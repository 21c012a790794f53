"""One benchmark process: set-up, then one campaign of a workload.

    python3 perfbench/worker.py --workload W --seed N [--spans PATH]

run.py starts it with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread variables already set, so they are in force before numpy loads.
Set-up means numpy, scipy and gbl imported and the builtin immersions
constructed, which every CLI run pays.  stdout carries the line "ready" when
set-up is done and then one JSON line with the campaign's wall time, its
ops with their laps (laps.py), the laps of one run of the workload's
reference kernel (reference.py), the peak resident set and the environment.
With --spans the campaign is traced instead of lapped: the result also holds
the per-layer metrics, and the spans are written to PATH.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("GBL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_threads_in_force(numpy) -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over src/gbl/*.py, which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gbl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(numpy, scipy, seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_force": _blas_threads_in_force(numpy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _plain(obj):
    """JSON fallback for numpy scalars in certificate values."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _reference(reference, laps) -> dict:
    """Run the workload's reference kernel once, lapped like an op."""
    kernel, nominal_s = reference
    laps.marks.clear()
    start = time.perf_counter()
    kernel(laps.stamp)
    return {"nominal_s": nominal_s, "laps": laps.between(start, time.perf_counter()).tolist()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="trace the campaign and write its spans to this file")
    args = parser.parse_args()

    import numpy
    import scipy
    import scipy.optimize  # noqa: F401

    import gbl
    from gbl import graphs

    if Path(gbl.__file__).resolve().parent != SRC / "gbl":
        print(f"gbl was imported from {gbl.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import workloads
    from laps import Laps
    from reference import REFERENCES

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    builtins = {name: graphs.builtin(name) for name in ("affine", "holomorphic_pair", "lawson_osserman")}
    print("ready", flush=True)
    laps = Laps() if tracer is None else None
    if laps is not None:
        laps.install()

    start = time.perf_counter()
    campaign_s, ops = workloads.run_campaign(args.workload, args.seed, builtins, laps)
    result = {
        "campaign_s": campaign_s,
        "ops": ops,
        # read before the reference kernel runs, so that it holds the campaign's memory only
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(numpy, scipy, args.seed),
    }
    if laps is not None:
        result["reference"] = _reference(REFERENCES[args.workload], laps)
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(start, campaign_s)
        tracer.write(args.spans)
    print(json.dumps(result, default=_plain), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
