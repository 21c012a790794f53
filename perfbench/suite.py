"""Run every workload of the benchmark and print each metric by name and unit.

    python3 perfbench/suite.py [--seeds 0 1 2 ...] [--trace 0|1]

It runs every workload of BENCHMARK.json; each (workload, seed) pair is one
`run.py` run with BENCHMARK.json's run_seconds.  With one seed the table lists the values of that run; with
several it lists the median and the quartiles of each metric and the spread
(q3 - q1) / median next to the metric's bound.  A spread of a third of the
bound or more is flagged with "!".  The exit code is 1 if any op failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    failed = 0
    for workload in names:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            failed += result["failed"]
            runs.append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = first["unit"]
            if len(values) == 1:
                print(f"{workload:14s} {metric:45s} {values[0]:14.6g} {unit}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = "!" if bound is not None and spread >= bound / 3 else " "
            bound_text = f"bound {bound}" if bound is not None else ""
            print(f"{workload:14s} {metric:45s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f}{flag} {bound_text}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
