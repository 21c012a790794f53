"""The certificate campaigns the benchmark times, each op with its oracle.

An op is one certificate: one CLI command run in-process through
`gbl.cli.main`, or one acceptance-campaign call.  Every op returns the
oracle checks it passed or failed and the certificate values it produced;
the values are recorded in the run's output so that a later change shows
what it moved, but they are never metrics.

Inputs come from `gbl.rng.substream(seed, k)` with a fixed stream index per
op, so a seed fixes every input.  The one exception is the (4, 3) cloud of
geometry-loop, see `_ITERATE_CLOUDS`.

Two campaigns are left out, because a run repeats its campaign many times
(see run.py) and the whole benchmark must fit a fixed time budget: the
find_eps0 campaign of acceptance criterion 4 (m = 2, 3, 4 at a million
samples, about 21 s) and the eps1 campaign (compute_epsilon1 at m = 3 and
`gbl shrink` at (2, 2), about 8.5 s).  For the same reason geometry-loop
runs its per-point paths on fewer points than the acceptance campaigns
(FD_POINTS, BALLS, FIXED_CLOUD_POINTS): the same calls, in a campaign of
about 2 s instead of 6.5 s.
"""
from __future__ import annotations

import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from gbl import cli, graphs, grassmann, shrinking
from gbl.rng import substream

# eps1 regression baselines (a = 3, beta0 = 2.9); iterate takes them as its eps1
EPS1_BASELINE = {2: 0.06819684, 3: 0.06141896}
K0_CLOSED_FORM_TOL = 1e-6
FD_TOL = 1e-3
SQRT6_2 = math.sqrt(6.0) / 2.0
# audit samples of every k0-sweep op: the dense mesh and the polish stay
# whole, the random audit is a tenth of the CLI's 20k cap, so that a campaign
# takes a few seconds (run.py times each lap by its fastest campaign)
K0_AUDIT_SAMPLES = 2000
# geometry-loop sizes: a campaign of about 2 s, so that a run repeats every
# op many times (run.py times each lap by its fastest campaign)
FD_POINTS = 200
BALLS = 20
FIXED_CLOUD_POINTS = 8


def k0_closed_form(beta0: float) -> float:
    """min(1, beta0 (3 - beta0) / 2): the II-block eigenvalue with the pair bound."""
    return min(1.0, beta0 * (3.0 - beta0) / 2.0)


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """Run one gbl command in-process; its JSON report and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _cli_checks(code: int, report: dict) -> dict:
    return {"exit_code_0": code == 0, "summary_fail_0": report["summary"]["fail"] == 0}


# ---------------------------------------------------------------------------
# k0-sweep

def _k0_rows(rows: list[dict]) -> tuple[bool, list[dict]]:
    out = []
    for row in rows:
        gap = row["k0"] - k0_closed_form(row["beta0"])
        out.append({"beta0": row["beta0"], "k0": row["k0"], "gap_to_closed_form": gap})
    return all(abs(r["gap_to_closed_form"]) <= K0_CLOSED_FORM_TOL for r in out), out


def _sweep_op(seed: int):
    def op():
        code, report = run_cli(["sweep-k0", "--n", "4", "--m", "3", "--samples", str(K0_AUDIT_SAMPLES),
                                "--seed", str(seed)])
        checks = _cli_checks(code, report)
        checks["k0_closed_form"], rows = _k0_rows(report["payload"]["rows"])
        return checks, {"rows": rows}

    return op


def _certify_op(n: int, m: int, seed: int):
    def op():
        argv = ["certify", "--n", str(n), "--m", str(m), "--beta0", "2.9",
                "--samples", str(K0_AUDIT_SAMPLES), "--seed", str(seed)]
        code, report = run_cli(argv)
        cert = report["payload"]["certificate"]
        checks = _cli_checks(code, report)
        checks["k0_closed_form"], rows = _k0_rows([cert])
        return checks, {"n": n, "m": m, **rows[0], "budget_exhausted": cert["budget_exhausted"]}

    return op


def k0_sweep(seed: int, builtins: dict):
    return [
        ("sweep-k0 n=4 m=3", _sweep_op(seed)),
        ("certify n=5 m=3", _certify_op(5, 3, seed)),
        ("certify n=6 m=4", _certify_op(6, 4, seed)),
    ]


# ---------------------------------------------------------------------------
# geometry-loop

def _fd_worst(G, points) -> float:
    worst = 0.0
    for x in points:
        pg = graphs.point_geometry(G, x)
        cf = graphs.laplacian_v_closed_form(G, x)
        fd = graphs.laplacian_v_finite_difference(G, x, step=1e-3)
        scale = max(abs(cf), abs(fd), pg.slope * pg.norm_b2)
        worst = max(worst, abs(cf - fd) / scale)
    return worst


def _holomorphic_points(G, rng, count: int):
    # criterion 6: points where |B|^2 is tiny make the relative error meaningless
    pts = []
    while len(pts) < count:
        x = rng.uniform(-0.8, 0.8, 3)
        if graphs.point_geometry(G, x).norm_b2 >= 1e-3:
            pts.append(x)
    return pts


def _lawson_points(rng, count: int):
    pts = []
    for _ in range(count):
        x = rng.standard_normal(4)
        pts.append(x * (rng.uniform(0.5, 2.0) / np.linalg.norm(x)))
    return pts


def _fd_op(G, points_of, stream: int, seed: int):
    def op():
        worst = _fd_worst(G, points_of(substream(seed, stream)))
        return {"fd_rel_diff": worst < FD_TOL}, {"graph": G.name, "points": FD_POINTS, "worst_rel_diff": worst}

    return op


# rotated reference planes, where the FD truncation error is nonzero
_RICHARDSON = {
    "holomorphic_pair": (0.07, (0.3, 0.2, 0.7)),
    "lawson_osserman": (0.05, (1.0, -0.2, 0.4, 0.3)),
}


def _richardson_op(G):
    def op():
        tilt, x = _RICHARDSON[G.name]
        x = np.asarray(x)
        P0 = grassmann.from_chart(np.full((G.n, G.m), tilt), grassmann.standard_plane(G.n, G.m))
        cf = graphs.laplacian_v_closed_form(G, x, P0)
        e1 = abs(graphs.laplacian_v_finite_difference(G, x, P0, step=2e-3) - cf)
        e2 = abs(graphs.laplacian_v_finite_difference(G, x, P0, step=1e-3) - cf)
        order = math.log2(e1 / e2)
        return {"richardson_order": 1.5 < order < 2.5}, {"graph": G.name, "order": order}

    return op


def _mean_gauss_op(G, seed: int):
    def op():
        rng = substream(seed, 3)
        P0 = grassmann.standard_plane(3, 2)
        worst = math.inf
        for _ in range(BALLS):
            center = rng.uniform(-0.4, 0.4, 3)
            radius = float(rng.uniform(0.05, 0.3))
            mean = graphs.mean_gauss_image(G, center, radius, order=8)
            # criterion 10: the slope of this graph bounds v over the ball
            sup_v = 1.0 + 4.0 * (np.linalg.norm(center[:2]) + radius) ** 2
            worst = min(worst, sup_v + 1e-9 - grassmann.v_value(mean, P0))
        return {"mean_below_sup": worst >= 0.0}, {"balls": BALLS, "worst_margin": worst}

    return op


# (n, m, points, stream), iterated with the eps1 baseline of its m.  The
# (4, 3) cloud is drawn from the fixed key FIXED_CLOUD_KEY whatever the seed:
# `sample_chart_sublevel` accepts about 1e-5 of its box draws there, so the
# draws needed for 8 points vary by about 1/sqrt(8) = 35 % from stream to
# stream, and that op's time with them.  A fixed stream keeps the cost,
# which is the point of the op, and drops only its seed-to-seed spread; the
# benchmark's tests run the same oracle on seed-dependent streams.
_ITERATE_CLOUDS = ((2, 2, 100, 4), (3, 2, 100, 5), (4, 3, FIXED_CLOUD_POINTS, None))
FIXED_CLOUD_KEY = (0, 6)


def iterate_op(n: int, m: int, count: int, key: tuple[int, int]):
    """Op: iterate a sublevel cloud of `count` points drawn from substream(*key)."""
    def op():
        P1 = grassmann.standard_plane(n, m)
        Zs = grassmann.sample_chart_sublevel(n, m, 2.9, count, substream(*key))
        cloud = [grassmann.from_chart(Z, P1) for Z in Zs]
        params = shrinking.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        trace = shrinking.iterate(cloud, 2.9, params, epsilon1=EPS1_BASELINE[m])
        final = trace.bounds[-1]
        checks = {"below_threshold": final < SQRT6_2, "within_planned_steps": trace.k_actual <= trace.k_planned}
        return checks, {"n": n, "m": m, "points": count, "final_bound": final,
                        "k_actual": trace.k_actual, "k_planned": trace.k_planned}

    return op


def geometry_loop(seed: int, builtins: dict):
    hol, law = builtins["holomorphic_pair"], builtins["lawson_osserman"]
    ops = [
        ("fd holomorphic_pair", _fd_op(hol, lambda rng: _holomorphic_points(hol, rng, FD_POINTS), 1, seed)),
        ("fd lawson_osserman", _fd_op(law, lambda rng: _lawson_points(rng, FD_POINTS), 2, seed)),
        ("richardson holomorphic_pair", _richardson_op(hol)),
        ("richardson lawson_osserman", _richardson_op(law)),
        (f"mean_gauss_image {BALLS} balls", _mean_gauss_op(hol, seed)),
    ]
    for n, m, count, stream in _ITERATE_CLOUDS:
        key = FIXED_CLOUD_KEY if stream is None else (seed, stream)
        ops.append((f"iterate n={n} m={m} points={count}", iterate_op(n, m, count, key)))
    return ops


WORKLOADS = {
    "k0-sweep": k0_sweep,
    "geometry-loop": geometry_loop,
}


def run_campaign(workload: str, seed: int, builtins: dict, laps=None) -> tuple[float, list[dict]]:
    """Run every op of a workload; the campaign's wall time and one record per op.

    An op that raises fails its oracle; the campaign goes on with the next op.
    With `laps` (a laps.Laps that is installed) each record also holds the
    op's laps.
    """
    records = []
    start = time.perf_counter()
    for name, op in WORKLOADS[workload](seed, builtins):
        if laps is not None:
            laps.marks.clear()
        t0 = time.perf_counter()
        try:
            checks, values = op()
            error = None
        except Exception:  # an op that raises is a failed certificate
            checks, values, error = {"raised": False}, {}, traceback.format_exc()
        t1 = time.perf_counter()
        checks = {key: bool(passed) for key, passed in checks.items()}
        record = {"op": name, "seconds": t1 - t0, "ok": all(checks.values()),
                  "checks": checks, "values": values}
        if error is not None:
            record["error"] = error
        if laps is not None:
            record["laps"] = laps.between(t0, t1).tolist()
        records.append(record)
    return time.perf_counter() - start, records
