"""The benchmark's tracer wraps gbl functions by name; every name must resolve."""
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_name_resolves(span):
    module_name, attr = span.rsplit(".", 1)
    assert callable(getattr(tracing._MODULES[module_name], attr))
