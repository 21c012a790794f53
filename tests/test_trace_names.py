"""The benchmark's tracer and lap timer wrap gbl functions by name; every name must resolve,
and the kernels the lap timer times must still call through the wrapped names."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gbl import certifier, cli, grassmann
from gbl.rng import substream

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


@pytest.fixture
def lap_marks(monkeypatch):
    """Install the lap timer for one test; monkeypatch puts the wrapped functions back."""
    for module, name in laps.LAP_POINTS:
        monkeypatch.setattr(module, name, getattr(module, name))
    timer = laps.Laps()
    timer.install()
    return timer.marks


def test_chart_sampler_laps_per_batch(lap_marks):
    # the (4, 3) cloud op of the benchmark is timed by these chart_v laps, one per batch
    grassmann.sample_chart_sublevel(4, 3, 2.9, 2, substream(0, 6))
    assert len(lap_marks) >= 1


def test_one_eigvalsh_lap_per_block_size(lap_marks):
    # a 1 x 1 block is its own bound and never reaches eigvalsh
    certifier.min_form_eigenvalue(4, 3, np.full((5, 3), 0.5))
    assert len(lap_marks) == len({len(blk.slots) for blk in certifier.block_catalogue(4, 3)} - {1}) == 3


def test_tracer_counts_the_sweep_profiles(monkeypatch, capsys):
    # the tracer reads the profiles as min_form_eigenvalue's third positional argument: the
    # sweep's one batch minimum holds five audits of 2,000, the one row of the beta0 = 1 audit
    # and nine search rows
    for span in tracing.SPANS:
        module_name, attr = span.rsplit(".", 1)
        module = tracing._MODULES[module_name]
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main(["sweep-k0", "--samples", "2000"]) == 0
    capsys.readouterr()
    assert tracer.counts["certifier.eigensolve.profiles"] == 10_010
    assert sum(span[0] == "certifier.compute_K0" for span in tracer.spans) == 1
