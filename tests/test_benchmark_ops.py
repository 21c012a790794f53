"""Every op of the benchmark's workloads, run in-process at seed 0: each oracle check passes.

A report key the ops read, or a gbl name they call, that goes missing fails here
rather than in a benchmark run.
"""
import importlib.util
from pathlib import Path

import pytest

from gbl import graphs

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.fixture(scope="module")
def builtins():
    # as perfbench/worker.py builds them
    return {name: graphs.builtin(name) for name in ("affine", "holomorphic_pair", "lawson_osserman")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_op_passes_its_checks(workload, builtins):
    _, records = workloads.run_campaign(workload, 0, builtins)
    assert records
    for record in records:
        assert record["ok"], (record["op"], record["checks"], record.get("error"))
