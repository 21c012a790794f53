"""Benchmark of the gbl certificate campaigns.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the gbl under test is the checkout's
`src/gbl`, used as it is (pure Python, nothing to build).  Workloads are
listed with their reasons in BENCHMARK.json and defined in workloads.py.

Every campaign runs in its own single-threaded worker process (GBL_THREADS
and the BLAS thread variables set to 1 before numpy loads, PYTHONHASHSEED
fixed).  With --trace 0 the run starts campaign workers, one after another on
the same inputs, until S seconds have passed and at least MIN_CAMPAIGNS have
run.  The host is shared and its speed swings by up to a factor of two, so
two steps take the swings out of the times:

- best laps (laps.py): each op is timed by the sum over its laps of each
  lap's fastest campaign, which removes spells shorter than the run;
- host speed (reference.py): each worker also runs a fixed kernel that does
  the workload's kind of work without gbl, and every time is multiplied by
  host_speed = the kernel's nominal time / its best-lap time in this run,
  which removes spells that last the whole run.

It reports the end-to-end metrics, the first three in seconds at the
reference host speed:

    campaign_s   sum over the ops of each op's best time
    op_max_s     the largest of these per-op times
    setup_s      median over the workers of process start to "ready"
    peak_rss_mb  largest peak resident set of a campaign worker

The unscaled times and host_speed are in the line before the result.

With --trace 1 it runs one untraced and one traced campaign worker and
reports the per-layer metrics of tracing.py; trace.overhead_ratio is the
traced campaign time over the untraced one.

Every op of every campaign is checked against its oracle, and against the
certificates of the first campaign; `attempted` and `failed` count ops.  The last
stdout line is the result object; the line before it holds every op's
certificate values and the run environment, which are also written to
.bench_out/ with the spans of a traced run.  A worker that crashes, or a
checkout without src/gbl, ends the run with a non-zero exit code and no
result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".bench_out"
WORKLOADS = ("k0-sweep", "geometry-loop")
MIN_CAMPAIGNS = 3
# a run must end within 180 s; no campaign worker starts that would, at the
# pace of the last one, end after this point
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 160.0

END_TO_END = (
    ("campaign_s", "s", "lower"),
    ("op_max_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("GBL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(workload: str, seed: int, spans: Path | None = None) -> tuple[float, dict]:
    """Run one worker to completion: its set-up time and its result.

    With `spans` the worker traces its campaign and writes the spans there.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker {' '.join(cmd[1:])} exited with {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _ops(results: list[dict]) -> list[dict]:
    return [op for r in results for op in r["ops"]]


def check_same_certificates(results: list[dict]) -> None:
    """Fail every op whose certificate values differ from the first campaign's."""
    for result in results[1:]:
        for first, op in zip(results[0]["ops"], result["ops"], strict=True):
            op["checks"]["same_as_campaign_0"] = op["values"] == first["values"]
            op["ok"] = op["ok"] and op["checks"]["same_as_campaign_0"]


def best_time(runs: list[list[float]]) -> float | None:
    """Sum over laps of each lap's fastest run; None when the runs made different numbers of laps."""
    if len({len(laps) for laps in runs}) != 1:
        return None
    return sum(min(lap) for lap in zip(*runs))


def best_op_times(results: list[dict]) -> tuple[dict, list[str]]:
    """Each op's best time over the campaigns, from its laps (popped from the records).

    An op whose campaigns made different numbers of laps is timed by its
    fastest campaign instead, and named in the returned list.
    """
    best, differ = {}, []
    for same_op in zip(*(r["ops"] for r in results)):
        name = same_op[0]["op"]
        best[name] = best_time([op.pop("laps") for op in same_op])
        if best[name] is None:
            best[name] = min(op["seconds"] for op in same_op)
            differ.append(name)
    return best, differ


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups, results = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup_s, result = spawn_worker(workload, seed)
        setups.append(setup_s)
        results.append(result)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_CAMPAIGNS and elapsed >= seconds:
            break
        if elapsed + (time.perf_counter() - t0) > LAST_START_S:
            break
    check_same_certificates(results)
    best, differ = best_op_times(results)
    references = [r.pop("reference") for r in results]
    reference_best_s = best_time([ref["laps"] for ref in references])
    speed = references[0]["nominal_s"] / reference_best_s
    raw = {
        "campaign_s": sum(best.values()),
        "op_max_s": max(best.values()),
        "setup_s": statistics.median(setups),
    }
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    units = {name: unit for name, unit, _ in END_TO_END}
    details = {"raw_s": raw, "host_speed": speed, "reference_best_s": reference_best_s,
               "setup_samples": setups, "op_best_s": best, "laps_differ": differ, "campaigns": results}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, details


def measure_traced(workload: str, seed: int, spans: Path) -> tuple[dict, dict]:
    _, plain = spawn_worker(workload, seed)
    plain["ops"] = [{k: v for k, v in op.items() if k != "laps"} for op in plain["ops"]]
    del plain["reference"]
    _, traced = spawn_worker(workload, seed, spans=spans)
    metrics = traced.pop("per_layer")
    metrics["trace.overhead_ratio"] = {"value": traced["campaign_s"] / plain["campaign_s"], "unit": "ratio"}
    return metrics, {"campaigns": [plain, traced], "spans_file": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn_worker, whose finally kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "gbl" / "__init__.py").is_file():
        print(f"no gbl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, details = measure_traced(args.workload, args.seed, OUT / f"{stem}.spans.jsonl")
        else:
            metrics, details = measure(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = _ops(details["campaigns"])
    attempted, failed = len(ops), sum(1 for op in ops if not op["ok"])
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": details["campaigns"][0]["environment"], **details}
    text = json.dumps(details)
    (OUT / f"{stem}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
