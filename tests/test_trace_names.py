"""The benchmark's tracer and lap timer wrap gbl functions by name; every name must resolve."""
import importlib.util
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
laps = _load("laps")


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_name_resolves(span):
    module_name, attr = span.rsplit(".", 1)
    assert callable(getattr(tracing._MODULES[module_name], attr))


@pytest.mark.parametrize("module,name", laps.LAP_POINTS, ids=lambda v: getattr(v, "__name__", v))
def test_lap_point_resolves(module, name):
    assert callable(getattr(module, name))
