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


# sha256 of json.dumps(record["values"], sort_keys=True) of each op at seed 0: the certificate
# values the op records (iterate bounds, mean-Gauss margins, the FD ops' worst relative
# differences, ...), so a change that moves any of their bits has to say which op moved
VALUE_DIGESTS = {
    "geometry-loop": {
        "fd holomorphic_pair": "8cc461a03cc0e197b6d1354c914426fa6bae49eb7a02f25e589f3fe56d261673",
        # the cone's jac and hess read in the unit direction: worst_rel_diff 5.553197895442441e-09 ->
        # 4.7869828372960555e-09, and the Richardson order 1.9407838127803532 -> 1.990289305584547
        "fd lawson_osserman": "e13adda73b0bdfd91ea9758a53eb33a25dc536dcd51aa91528ca7d4dbebd5acb",
        "richardson holomorphic_pair": "ca6116302fba43d6821adcb384f74ba4866deaf57131c781f931a22a2baec2f1",
        "richardson lawson_osserman": "eb75c4fd6ee07dd4bf1d366aa44f26a4f39fdf95374b77a7c455c0afa6ae3aeb",
        "mean_gauss_image 20 balls": "c7c867e344c004db60c5d3a89410caebfff596a00bad7a6bbedef06815d754b4",
        "iterate n=2 m=2 points=100": "1386dbb3e85a52fb64919d6556f65d4076bc2772b8dc08a037ae813ed32cc2f1",
        "iterate n=3 m=2 points=100": "0b8d20575158b31572986cc8621250ad619001ba087b6f033ebc020d0c422274",
        "iterate n=4 m=3 points=8": "cb051132f094ae806eae26655781134b6fde917724fc9ba1ba6d5729014d6966",
    },
    "k0-sweep": {
        "sweep-k0 n=4 m=3": "67b200effa114cf08633334e62b2f6699af6c07cc4bdb583c477c3b57c8f0dca",
        "certify n=5 m=3": "6a170575dc98d31d5d7539fced87d7c8c42ff001c51a54dbb10d0d1f4d0e91b8",
        "certify n=6 m=4": "e76f90294010b68d435a6355b2c51704da739780a3048a73d6f4311011b55a66",
    },
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_op_passes_its_checks(workload, builtins):
    _, records = workloads.run_campaign(workload, 0, builtins)
    assert records
    for record in records:
        assert record["ok"], (record["op"], record["checks"], record.get("error"))
    digests = {record["op"]: hashlib.sha256(json.dumps(record["values"], sort_keys=True).encode()).hexdigest()
               for record in records}
    assert digests == VALUE_DIGESTS[workload]


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
