"""Every op of the benchmark's workloads, run in-process at seed 0: each oracle check passes.

A report key the ops read, or a gbl name they call, that goes missing fails here
rather than in a benchmark run.  The values the ops record and each op's calls of
the lap points are pinned too.
"""
import collections
import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from gbl import graphs

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
laps = _load("laps")


@pytest.fixture(scope="module")
def builtins():
    # as perfbench/worker.py builds them
    return {name: graphs.builtin(name) for name in ("affine", "holomorphic_pair", "lawson_osserman")}


# sha256 of json.dumps([record["values"] for record in records], sort_keys=True) at seed 0: the
# certificate values every op records (iterate bounds, mean-Gauss margins, the FD ops' worst
# relative differences, ...), so a change that moves any of their bits has to say so
VALUE_DIGESTS = {
    "geometry-loop": "740ecedc7cd5e9ca24004f8f183bb60995bd0ef63766ee4bd30302dfc458ec39",
    "k0-sweep": "43e91b3a2e5eb79fa72d67dedba01d821e5cc0f8263459c537d9e1399653edbf",
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_op_passes_its_checks(workload, builtins):
    _, records = workloads.run_campaign(workload, 0, builtins)
    assert records
    for record in records:
        assert record["ok"], (record["op"], record["checks"], record.get("error"))
    values = json.dumps([record["values"] for record in records], sort_keys=True)
    assert hashlib.sha256(values.encode()).hexdigest() == VALUE_DIGESTS[workload]


# calls of each laps.LAP_POINTS function per op at seed 0, once the process's caches are warm (the
# first mean_gauss_image op also calls eigvalsh, in leggauss, to build the cube rule).  A lap ends
# at each such call and an op's best time sums the best of each lap, so a change that moves a count
# changes how finely that op is timed and has to say so
LAP_CALLS = {
    "k0-sweep": {
        "sweep-k0 n=4 m=3": {"eigvalsh": 5},
        "certify n=5 m=3": {"eigvalsh": 2},
        "certify n=6 m=4": {"eigvalsh": 2},
    },
    "geometry-loop": {
        "fd holomorphic_pair": {"point_geometry": 400},
        "fd lawson_osserman": {"point_geometry": 200},
        "richardson holomorphic_pair": {},
        "richardson lawson_osserman": {},
        "mean_gauss_image 20 balls": {"mean_gauss_image": 20},
        "iterate n=2 m=2 points=100": {"chart_v": 9},
        "iterate n=3 m=2 points=100": {"chart_v": 11},
        "iterate n=4 m=3 points=8": {"chart_v": 7},
    },
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_lap_point_calls_per_op(workload, builtins, monkeypatch):
    workloads.run_campaign(workload, 0, builtins)     # warms every cache the ops fill
    calls = collections.Counter()

    def counting(fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # monkeypatch puts every wrapped function back after the test
    for module, name in laps.LAP_POINTS:
        monkeypatch.setattr(module, name, counting(getattr(module, name), name))
    seen = {}
    for op_name, op in workloads.WORKLOADS[workload](0, builtins):
        calls.clear()
        op()
        seen[op_name] = dict(calls)
    assert seen == LAP_CALLS[workload]
