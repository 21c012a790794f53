"""Self-checks of the benchmark: its contract file, determinism and refusal.

    python3 -m pytest perfbench/tests -q

The determinism checks run every workload three times in worker processes,
which takes about a minute; `-k contract` or `-k refuses` skips them.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_contract_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert list(reference.REFERENCES) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def test_refuses_checkout_without_gbl(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = SPEC["command"] + ["--workload", "geometry-loop", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _certificates(result):
    return [(op["op"], op["checks"], op["values"]) for op in result["ops"]]


def _laps(result):
    return [len(op["laps"]) for op in result["ops"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_certificates_other_seed_passes(workload):
    _, first = run.spawn_worker(workload, 0)
    _, second = run.spawn_worker(workload, 0)
    assert all(op["ok"] for op in first["ops"]), first["ops"]
    assert _certificates(first) == _certificates(second)
    # best_time pairs the i-th laps of different campaigns
    assert _laps(first) == _laps(second)
    _, other = run.spawn_worker(workload, 1)
    assert all(op["ok"] for op in other["ops"]), other["ops"]


@pytest.mark.parametrize("seed", [1, 2])
def test_fixed_stream_cloud_oracle_holds_on_other_streams(seed):
    # the timed (4, 3) cloud always comes from FIXED_CLOUD_KEY; its oracle must
    # not depend on that one stream
    key = (seed, workloads.FIXED_CLOUD_KEY[1])
    assert key != workloads.FIXED_CLOUD_KEY
    checks, values = workloads.iterate_op(4, 3, workloads.FIXED_CLOUD_POINTS, key)()
    assert all(checks.values()), values


def test_best_time_sums_each_laps_fastest_run():
    assert run.best_time([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 1.0 + 1.0 + 2.0
    assert run.best_time([[1.0], [1.0, 2.0]]) is None
