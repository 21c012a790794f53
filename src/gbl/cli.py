"""Command-line front end for all verification campaigns.

Subcommands: certify, lemmas, graph, shrink, sweep-k0, cross-validate.
Identical (config, seed) pairs produce byte-identical reports; wall time is
printed to stderr only.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import GBLError, UsageError

_K0_SWEEP_GRID = (1.0, 1.5, 2.0, 2.5, 2.9, 2.99)


def _apply_thread_cap() -> None:
    """Honor GBL_THREADS as an upper bound on BLAS thread pools."""
    cap = os.environ.get("GBL_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbl",
        description="Desk-scale verification campaigns for Gauss-map geometry of graphs.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"gbl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=4)
        p.add_argument("--m", type=int, default=3)
        p.add_argument("--beta0", type=float, default=2.9)
        p.add_argument("--a", type=float, default=3.0)
        p.add_argument("--b", type=float, default=2.8)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fd-step", type=float, default=1e-3)
        p.add_argument("--example", type=str, default="holomorphic_pair")
        p.add_argument("--point", type=str, default=None)
        p.add_argument("--graph-spec", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tolerance", type=float, default=None)

    for name in ("certify", "lemmas", "graph", "shrink", "sweep-k0", "cross-validate"):
        p = sub.add_parser(name)
        common(p)
        if name == "lemmas":
            p.add_argument(
                "--which",
                choices=("aux", "grouping", "es1", "es2", "pair", "iii", "iv", "all"),
                default="all",
            )
    return parser


def _validate(args) -> dict:
    cfg = {
        "command": args.command,
        "n": args.n,
        "m": args.m,
        "beta0": args.beta0,
        "a": args.a,
        "b": args.b,
        "samples": args.samples,
        "seed": args.seed,
        "fd_step": args.fd_step,
        "format": args.format,
    }
    if args.command == "lemmas":
        cfg["which"] = args.which
    if args.example:
        cfg["example"] = args.example
    if args.point:
        cfg["point"] = args.point
    if args.graph_spec:
        cfg["graph_spec"] = args.graph_spec
    if not (1 <= args.m <= args.n <= 16):
        raise UsageError("need 1 <= m <= n <= 16")
    if args.command in ("certify",) and not (1.0 <= args.beta0 < 3.0):
        raise UsageError("certify requires 1 <= beta0 < 3")
    if args.command == "shrink":
        if not (args.a > 1.0 and 1.0 <= args.beta0 < args.a):
            raise UsageError("shrink requires a > 1 and 1 <= beta0 < a")
        if not (1.0 <= args.b <= args.beta0):
            raise UsageError("shrink requires 1 <= b <= beta0")
    if args.samples < 0:
        raise UsageError("samples must be nonnegative")
    if args.fd_step <= 0:
        raise UsageError("fd-step must be positive")
    return cfg


def _tolerance(args, default: float) -> float:
    return args.tolerance if args.tolerance is not None else default


# ---------------------------------------------------------------------------
# command implementations

def _cmd_certify(args, report) -> None:
    from . import certifier

    tol = _tolerance(args, 1e-12)
    cert = certifier.compute_K0(
        args.n, args.m, args.beta0, audit_samples=args.samples, seed=args.seed
    )
    report.payload["certificate"] = cert.to_dict()
    report.add_margin(
        "k0_positive",
        cert.k0,
        tol,
        "Delta v >= K0 |B|^2 with K0 > 0 whenever prod(1+lambda^2) <= beta0^2, beta0 < 3",
    )
    report.add_margin(
        "audit_no_undercut",
        cert.worst_violation,
        max(tol, 1e-12),
        "every sampled admissible profile keeps the form eigenvalue above the reported K0",
    )
    if args.beta0 == 1.0:
        report.add_margin(
            "k0_at_one",
            -abs(cert.k0 - 1.0),
            1e-15,
            "K0(1) = 1 exactly: only lambda = 0 is admissible and the form is the identity",
        )


def _cmd_lemmas(args, report) -> None:
    import numpy as np

    from . import certifier
    from .rng import substream

    which = args.which
    samples = max(args.samples, 1)

    if which in ("aux", "all"):
        tol = _tolerance(args, 1e-8)
        for rec in certifier.auxiliary_extrema():
            report.add_margin(
                f"aux_{rec.name}",
                tol - rec.abs_diff,
                0.0,
                f"numerical minimum of {rec.name} matches its closed form {rec.closed_form!r}",
            )
            report.payload.setdefault("extrema", []).append(
                {
                    "name": rec.name,
                    "computed_min": rec.computed_min,
                    "argmin": rec.argmin,
                    "closed_form": rec.closed_form,
                    "abs_diff": rec.abs_diff,
                }
            )

    if which in ("grouping", "all"):
        tol = _tolerance(args, 1e-10)
        rng = substream(args.seed, 31)
        worst = math.inf
        for _ in range(min(samples, 200)):
            lam = certifier.LambdaProfile(3, 3, rng.uniform(0.0, 1.4, 3))
            h = certifier.HTensor.random(3, 3, rng)
            dv = certifier.laplacian_v(lam, h)
            total = certifier.decompose_terms(lam, h).total() * lam.v
            worst = min(worst, tol - abs(dv - total) / max(abs(dv), 1.0))
        report.add_margin(
            "grouping_identity",
            worst,
            0.0,
            "the index-typed groups sum to v^{-1} Delta v",
        )

    if which in ("es1", "all"):
        rng = substream(args.seed, 32)
        lams = certifier.sample_admissible_lambdas(3, 3.0, samples, rng)
        hs = rng.standard_normal((samples, 3))
        s = np.einsum("ka,ka->k", lams, hs)
        margin = float(np.min(s**2 + np.einsum("ka,ka->k", lams**2, hs**2)))
        report.add_margin(
            "es1_bound",
            margin,
            _tolerance(args, 1e-12),
            "I_j - 2 sum_a h_{a,aj}^2 = (sum lambda_a h_{a,aj})^2 + sum lambda_a^2 h^2 >= 0",
        )

    if which in ("es2", "pair", "all"):
        rng = substream(args.seed, 33)
        lams = certifier.sample_admissible_lambdas(2, 3.0, samples, rng)
        v = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        margin = float(np.min(v - 1.0 - lams[:, 0] * lams[:, 1]))
        report.add_margin(
            "pair_product_bound",
            margin,
            _tolerance(args, 1e-12),
            "lambda_a lambda_b <= v - 1 whenever prod(1+lambda^2) <= v^2 <= 9",
        )

    if which in ("iii", "all"):
        rng = substream(args.seed, 34)
        lams = certifier.sample_admissible_lambdas(3, 3.0, samples, rng)
        v = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        margin = float(np.min(certifier.verify_III_batch(lams, v)))
        report.add_margin(
            "triple_block_psd",
            margin,
            _tolerance(args, certifier.PSD_TOL),
            "the triple block dominates (3 - v) I for admissible profiles with v <= 3",
        )

    if which in ("iv", "all"):
        res = certifier.find_eps0(3, samples=samples, seed=args.seed)
        report.payload["eps0"] = {
            "m": res.m,
            "eps0": res.eps0,
            "verified_margin": res.verified_margin,
            "samples": res.samples,
        }
        report.add_margin(
            "diag_block_eps0",
            res.eps0,
            0.0,
            "a strictly positive eps0 keeps the diagonal block PSD for v <= 3",
        )
        report.add_margin(
            "diag_block_margin",
            res.verified_margin,
            _tolerance(args, certifier.PSD_TOL),
            "the eps0-reduced diagonal block stays PSD on all sampled admissible profiles",
        )


def _parse_point(args, n: int):
    import numpy as np

    if args.point is None:
        return np.full(n, 0.4)
    vals = [float(tok) for tok in args.point.split(",")]
    if len(vals) != n:
        raise UsageError(f"--point needs {n} coordinates, got {len(vals)}")
    return np.asarray(vals)


def _load_graph(args):
    import json as _json

    from . import graphs

    if args.graph_spec:
        with open(args.graph_spec, "r", encoding="utf-8") as fh:
            return graphs.graph_from_spec(_json.load(fh))
    return graphs.builtin(args.example)


def _cmd_graph(args, report) -> None:
    import numpy as np

    from . import graphs

    G = _load_graph(args)
    x = _parse_point(args, G.n)
    pg = graphs.point_geometry(G, x)
    closed = graphs.laplacian_v_closed_form(G, x)
    fd = graphs.laplacian_v_finite_difference(G, x, step=args.fd_step)
    # the floor keeps the comparison meaningful when both sides vanish (flat graphs)
    scale = max(abs(closed), abs(fd), pg.slope * pg.norm_b2, 1e-6)
    rel = abs(closed - fd) / scale
    tol = _tolerance(args, 1e-3)
    report.payload["geometry"] = {
        "example": G.name,
        "point": [float(v) for v in x],
        "slope": pg.slope,
        "lambdas": [float(v) for v in pg.lambdas],
        "norm_b2": pg.norm_b2,
        "mean_h_norm": float(np.linalg.norm(pg.mean_h)),
        "laplacian_v_closed": closed,
        "laplacian_v_fd": fd,
        "rel_diff": rel,
    }
    report.add_margin(
        "fd_cross_validation",
        tol - rel,
        0.0,
        "closed-form Delta v matches the divergence-form finite-difference Laplacian",
    )


def _cmd_cross_validate(args, report) -> None:
    import numpy as np

    from . import graphs, grassmann
    from .rng import substream

    G = _load_graph(args)
    rng = substream(args.seed, 41)
    count = max(10, min(args.samples, 500))
    tol = _tolerance(args, 1e-3)
    worst_rel = 0.0
    for _ in range(count):
        if G.name == "lawson_osserman":
            x = rng.standard_normal(G.n)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        else:
            x = rng.uniform(-0.6, 0.6, G.n)
        if not G.contains(x, margin=2 * args.fd_step):
            continue
        closed = graphs.laplacian_v_closed_form(G, x)
        fd = graphs.laplacian_v_finite_difference(G, x, step=args.fd_step)
        pg = graphs.point_geometry(G, x)
        scale = max(abs(closed), abs(fd), pg.slope * pg.norm_b2, 1e-6)
        worst_rel = max(worst_rel, abs(closed - fd) / scale)
    report.add_margin(
        "fd_agreement",
        tol - worst_rel,
        0.0,
        "closed-form Delta v agrees with the FD Laplacian at sampled points",
    )

    # convergence order on a generic reference plane (the base-plane cases are
    # exact for these examples, leaving no truncation error to measure)
    P0 = grassmann.from_chart(np.full((G.n, G.m), 0.05), grassmann.standard_plane(G.n, G.m))
    x = np.full(G.n, 0.45) if G.name != "lawson_osserman" else np.array([1.0, -0.2, 0.4, 0.3])
    closed = graphs.laplacian_v_closed_form(G, x, P0)
    e1 = abs(graphs.laplacian_v_finite_difference(G, x, P0, step=2 * args.fd_step) - closed)
    e2 = abs(graphs.laplacian_v_finite_difference(G, x, P0, step=args.fd_step) - closed)
    if e2 < 1e-11:
        order = 2.0  # below the roundoff floor; treat as converged
    else:
        order = math.log2(e1 / e2)
    report.payload["richardson"] = {"error_2h": e1, "error_h": e2, "order": order}
    report.add_margin(
        "richardson_order",
        1.0 - abs(order - 2.0),
        0.0,
        "halving the step divides the FD error by about four (second order)",
    )


def _shrink_cloud(args, P1):
    """Gauss-image cloud for the iteration.

    --graph-spec may hold a JSON array of chart matrices (a cloud as such),
    or a graph description whose Gauss image is sampled over a small ball;
    otherwise a synthetic sublevel cloud is drawn.
    """
    import json as _json

    import numpy as np

    from . import graphs, grassmann
    from .rng import substream

    if args.graph_spec:
        with open(args.graph_spec, "r", encoding="utf-8") as fh:
            data = _json.load(fh)
        if isinstance(data, list):
            cloud = [grassmann.from_chart(np.asarray(Z, dtype=float), P1) for Z in data]
        else:
            G = graphs.graph_from_spec(data)
            rng = substream(args.seed, 53)
            cloud = []
            for _ in range(32):
                x = rng.uniform(-0.3, 0.3, G.n)
                if G.contains(x):
                    cloud.append(graphs.point_geometry(G, x).gauss)
        if not cloud:
            raise UsageError("the supplied cloud is empty")
        if (cloud[0].n, cloud[0].m) != (P1.n, P1.m):
            raise UsageError(
                f"cloud dimensions ({cloud[0].n}, {cloud[0].m}) do not match --n/--m"
            )
        if max(grassmann.v_value(pt, P1) for pt in cloud) > args.beta0:
            raise UsageError("supplied cloud exceeds the beta0 sublevel set")
        return cloud
    Zs = grassmann.sample_chart_sublevel(args.n, args.m, args.beta0, 32, substream(args.seed, 52))
    return [grassmann.from_chart(Z, P1) for Z in Zs]


def _cmd_shrink(args, report) -> None:
    import numpy as np

    from . import grassmann, shrinking
    from .rng import substream

    tol = _tolerance(args, 1e-9)
    params = shrinking.ShrinkParameters(a=args.a, b=args.b, beta0=args.beta0)
    if args.a == 3.0:
        report.add_margin(
            "threshold_identity",
            1e-12 - abs(params.threshold - math.sqrt(6.0) / 2.0),
            0.0,
            "with a = 3 the case threshold equals sqrt(6)/2",
        )
    eps = shrinking.compute_epsilon1(args.a, args.beta0, m=args.m, budget=2_000_000)
    report.payload["epsilon1"] = {
        "epsilon1": eps.epsilon1,
        "first_branch": eps.first_branch,
        "epsilon2": eps.epsilon2,
        "argmin_b": eps.argmin_b,
    }
    report.add_margin(
        "epsilon1_positive", eps.epsilon1, 0.0, "the per-step decrement eps1 is strictly positive"
    )

    rng = substream(args.seed, 51)
    P1 = grassmann.standard_plane(args.n, args.m)
    Z0 = rng.standard_normal((args.n, args.m))
    # the radial inverse scales the direction of Z0 to v = b
    y = (args.b - 1.0) * Z0.ravel() / np.linalg.norm(Z0)
    Q = grassmann.from_chart(grassmann.t_embedding_inverse(y, args.n, args.m), P1)
    res = shrinking.shrink_center(P1, Q, params)
    samples = min(args.samples, 50_000)
    margin = shrinking.containment_check(P1, res.p2, params, samples=samples, seed=args.seed)
    report.payload["shrink_step"] = {
        "case": res.case,
        "t0": res.t0,
        "new_bound_on_q": res.new_bound_on_q,
        "containment_margin": margin,
    }
    report.add_margin(
        "containment", margin, tol, "v(P, P2) <= a for every sampled P with v(P, P1) <= b"
    )
    if res.case == "CaseII":
        report.add_margin(
            "decrement",
            args.b - eps.epsilon1 - res.new_bound_on_q,
            tol,
            "the replacement drops the witness bound by at least eps1",
        )

    cloud = _shrink_cloud(args, P1)
    trace = shrinking.iterate(
        cloud,
        args.beta0,
        shrinking.ShrinkParameters(a=args.a, b=args.beta0, beta0=args.beta0),
        epsilon1=eps.epsilon1,
    )
    report.payload["iteration"] = trace.to_dict()
    report.add_margin(
        "iteration_count",
        float(trace.k_planned - trace.k_actual),
        0.0,
        "the iteration finishes within floor((a - threshold)/eps1) + 1 steps",
    )


def _cmd_sweep_k0(args, report) -> None:
    from . import certifier

    rows = []
    prev = math.inf
    monotone_margin = math.inf
    for beta0 in _K0_SWEEP_GRID:
        cert = certifier.compute_K0(
            args.n, args.m, beta0, audit_samples=min(args.samples, 20_000), seed=args.seed
        )
        closed = certifier.k0_closed_form(args.m, beta0)
        rows.append(
            {
                "beta0": beta0,
                "k0": cert.k0,
                "k0_closed_form": closed,
                "closed_form_gap": cert.k0 - closed,
                "argmin_lambda": [float(x) for x in cert.argmin_lambda.lambdas],
                "eigen_margin": cert.worst_violation,
            }
        )
        monotone_margin = min(monotone_margin, prev - cert.k0)
        prev = cert.k0
    report.payload["rows"] = rows
    report.add_margin(
        "monotone_nonincreasing",
        monotone_margin,
        _tolerance(args, 1e-9),
        "K0(beta0) is non-increasing along the sweep",
    )
    report.add_margin(
        "first_is_one",
        -abs(rows[0]["k0"] - 1.0),
        1e-15,
        "K0(1) = 1 exactly",
    )
    report.add_margin(
        "degenerates_at_three",
        0.05 - rows[-1]["k0"],
        0.0,
        "K0(2.99) lies below 0.05: the constant degenerates towards beta0 = 3",
    )
    report.add_margin("all_positive", min(r["k0"] for r in rows), 0.0, "K0 > 0 on the sweep")


_COMMANDS = {
    "certify": _cmd_certify,
    "lemmas": _cmd_lemmas,
    "graph": _cmd_graph,
    "shrink": _cmd_shrink,
    "sweep-k0": _cmd_sweep_k0,
    "cross-validate": _cmd_cross_validate,
}


def _sweep_csv(report) -> str:
    lines = ["beta0,k0,argmin_lambda,eigen_margin"]
    for row in report.payload.get("rows", []):
        lam = ";".join(format(x, ".17g") for x in row["argmin_lambda"])
        lines.append(
            f"{format(row['beta0'], '.17g')},{format(row['k0'], '.17g')},{lam},{format(row['eigen_margin'], '.17g')}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        config = _validate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    from . import __version__
    from .reporting import Report

    report = Report(command=args.command, config=config, version=__version__)
    try:
        _COMMANDS[args.command](args, report)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GBLError as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.format == "csv" and args.command == "sweep-k0":
        text = _sweep_csv(report)
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_json()

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"elapsed {time.monotonic() - start:.3f}s", file=sys.stderr)
    return 0 if report.failed == 0 else 1
