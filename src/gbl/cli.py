"""Command-line front end for all verification campaigns.

Subcommands: certify, lemmas, graph, shrink, sweep-k0, cross-validate.
Identical (config, seed) pairs produce byte-identical reports; wall time is
printed to stderr only.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import GBLError, UsageError

_K0_SWEEP_GRID = (1.0, 1.5, 2.0, 2.5, 2.9, 2.99)
# largest m that certify and sweep-k0 accept: the audit sampler's acceptance
# at beta0 = 2.9 falls about 4x per m (4.1e-4 at m = 8, 2.2e-5 at m = 10),
# and default certify takes 45-54 s at (8, 8), 42-49 s of it drawing the audit's
# 100,000 profiles (2-core Xeon host)
_K0_MAX_M = 8
# largest --samples, find_eps0's default: 1e12 died in numpy's allocator
_MAX_SAMPLES = 1_000_000
# largest n * m that shrink accepts: its containment check draws 50,000 chart
# matrices, and the chart sampler accepts fewer proposals as n and m grow (1 in
# 400 at (6, 4), 1 in 1,600 at (6, 5)); default shrink takes 10 s at (6, 4)
# against a budget of 30 s (2-core Xeon host)
_SHRINK_MAX_NM = 24
# largest --a that shrink accepts: at a = 1000, beta0 = b = 999 every shape up to (6, 4) passes
# in at most 10.4 s; at a = 10001 containment fails at (2, 2), near a = 1e5 eps1 collapses to
# zero, and (6, 4) at a = 1e6 takes 57 s and fails containment (2-core Xeon host)
_SHRINK_MAX_A = 1000.0


def _apply_thread_cap() -> None:
    """Set each BLAS thread variable that is unset to 1; a set one wins."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


# argparse keywords of every flag a subcommand may declare
_FLAGS = {
    "--n": dict(type=int, default=4),
    "--m": dict(type=int, default=3),
    "--beta0": dict(type=float, default=2.9),
    "--a": dict(type=float, default=3.0),
    "--b": dict(type=float, default=2.8),
    "--samples": dict(type=int),
    "--seed": dict(type=int, default=0),
    "--fd-step": dict(type=float, default=1e-3),
    "--example": dict(default="holomorphic_pair"),
    "--point": {},
    "--graph-spec": {},
    "--which": dict(choices=("aux", "grouping", "es1", "pair", "iii", "iv", "all"), default="all"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--tolerance": dict(type=float),
    "--out": {},
}
# flags every subcommand declares after its own
_OUTPUT_FLAGS = ("--format", "--tolerance", "--out")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The gbl parser with only the subcommand argv[0] names, or all six.  A one-subcommand parser
    lists all six in its metavar, so it prints the full parser's usage; the full parser sets none,
    as argparse names the subcommand action "command" by it in its invalid-choice error."""
    parser = argparse.ArgumentParser(
        prog="gbl",
        description="Desk-scale verification campaigns for Gauss-map geometry of graphs.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"gbl {__version__}")
    commands = {argv[0]: _COMMANDS[argv[0]]} if argv and argv[0] in _COMMANDS else _COMMANDS
    metavar = None if commands is _COMMANDS else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, flags, samples) in commands.items():
        # no abbreviations: `certify --b` must not read as --beta0
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags + _OUTPUT_FLAGS:
            p.add_argument(flag, **_FLAGS[flag])
        if samples:
            p.set_defaults(samples=samples[0])
    return parser


def _validate(args) -> dict:
    """The echoed config; raises UsageError on malformed input before any work.

    The config is every flag the subcommand declares but --out, in
    declaration order.  Also parses --point into `args.coords`, and reads
    --graph-spec into `args.spec` (None when not given) and the graph it
    describes into `args.graph` (`_spec_graph`; for shrink, `_cloud_graph`).
    """
    _, flags, samples = _COMMANDS[args.command]
    dests = [f[2:].replace("-", "_") for f in flags + _OUTPUT_FLAGS if f != "--out"]
    cfg = {dest: getattr(args, dest) for dest in dests}
    if "m" in cfg:
        if not (1 <= args.m <= args.n <= 16):
            raise UsageError("need 1 <= m <= n <= 16")
        if args.command in ("certify", "sweep-k0") and args.m > _K0_MAX_M:
            raise UsageError(f"{args.command} requires m <= {_K0_MAX_M}")
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if args.command == "certify" and not (1.0 <= args.beta0 < 3.0):
        raise UsageError("certify requires 1 <= beta0 < 3")
    if args.command == "shrink":
        if not (1.0 < args.a <= _SHRINK_MAX_A and 1.0 <= args.beta0 < args.a):
            raise UsageError(f"shrink requires 1 < a <= {_SHRINK_MAX_A:g} and 1 <= beta0 < a")
        if not (1.0 <= args.b <= args.beta0):
            raise UsageError("shrink requires 1 <= b <= beta0")
        if args.n * args.m > _SHRINK_MAX_NM:
            raise UsageError(f"shrink requires n * m <= {_SHRINK_MAX_NM}")
    if samples:
        # every sampled check reads a sample; only `lemmas --which aux` draws none
        if args.samples == 0 and cfg.get("which") != "aux":
            raise UsageError(f"{args.command} requires samples >= 1: its checks read a sample")
        if not (0 <= args.samples <= samples[1]):
            raise UsageError(f"samples must lie in [0, {samples[1]}]")
    if "fd_step" in cfg and args.fd_step <= 0:
        raise UsageError("fd-step must be positive")
    args.coords = None
    if cfg.get("point"):
        try:
            args.coords = [float(tok) for tok in args.point.split(",")]
        except ValueError:
            raise UsageError(f"--point needs comma-separated numbers, got {args.point!r}") from None
    args.spec = args.graph = None
    if cfg.get("graph_spec"):
        try:
            with open(args.graph_spec, "r", encoding="utf-8") as fh:
                args.spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"--graph-spec {args.graph_spec}: {exc}") from None
        args.graph = _cloud_graph(args) if args.command == "shrink" else _spec_graph(args)
    return cfg


def _spec_graph(args):
    """The graph --graph-spec describes; raises UsageError naming the error that refuses it."""
    from . import graphs

    try:
        return graphs.graph_from_spec(args.spec)
    except GBLError as exc:
        raise UsageError(f"--graph-spec {args.graph_spec}: {type(exc).__name__}: {exc}") from None


def _cloud_graph(args):
    """The graph a shrink --graph-spec describes, or None for a list of chart matrices.

    Raises UsageError unless the graph, or every chart matrix, has the
    dimensions (--n, --m) of the cloud it stands for.
    """
    import numpy as np

    graph = None
    if isinstance(args.spec, list):
        if not args.spec:
            raise UsageError("the supplied cloud is empty")
        try:
            dims = [np.shape(Z) for Z in args.spec]
        except ValueError as exc:
            raise UsageError(f"--graph-spec {args.graph_spec}: {exc}") from None
    else:
        graph = _spec_graph(args)
        dims = [(graph.n, graph.m)]
    for dim in dims:
        if dim != (args.n, args.m):
            raise UsageError(f"cloud dimensions {dim} do not match --n/--m")
    return graph


def _tolerance(args, default: float) -> float:
    return args.tolerance if args.tolerance is not None else default


# ---------------------------------------------------------------------------
# command implementations

def _cmd_certify(args, report) -> None:
    from . import certifier

    tol = _tolerance(args, 1e-12)
    (cert,) = certifier.compute_K0(
        args.n, args.m, (args.beta0,), audit_samples=args.samples, seed=args.seed
    )
    report.payload["certificate"] = cert
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
    from . import certifier
    from .rng import substream

    which = args.which

    if which in ("aux", "all"):
        tol = _tolerance(args, 1e-8)
        for rec in certifier.auxiliary_extrema():
            report.add_margin(
                f"aux_{rec.name}",
                tol - rec.abs_diff,
                0.0,
                f"numerical minimum of {rec.name} matches its closed form {rec.closed_form!r}",
            )
            report.payload.setdefault("extrema", []).append(rec)

    if which in ("grouping", "all"):
        tol = _tolerance(args, 1e-10)
        rng = substream(args.seed, 31)
        worst = math.inf
        for _ in range(min(args.samples, 200)):
            lams = rng.uniform(0.0, 1.4, 3)
            h = rng.standard_normal((3, 3, 3))
            h = 0.5 * (h + h.transpose(0, 2, 1))
            dv = certifier.laplacian_v_batch(lams, h)
            groups = certifier.decompose_terms(lams, h).values()     # summed in catalogue order
            total = sum(values.sum() for values in groups) * float(certifier.profile_v(lams))
            worst = min(worst, tol - abs(dv - total) / max(abs(dv), 1.0))
        report.add_margin(
            "grouping_identity",
            worst,
            0.0,
            "the index-typed groups sum to v^{-1} Delta v",
        )

    # the block lemmas, each the `block_margin` of one kind on its own sample
    for option, kind, m, stream, name, tol, claim in (
        ("es1", "I", 3, 32, "es1_bound", 1e-12,
         "I_j >= 2 sum_a h_{a,aj}^2: the I block dominates the identity"),
        ("pair", "II", 2, 33, "pair_product_bound", 1e-12,
         "lambda_a lambda_b <= v - 1 whenever prod(1+lambda^2) <= v^2 <= 9"),
        ("iii", "III", 3, 34, "triple_block_psd", certifier.PSD_TOL,
         "the triple block dominates (3 - v) I for admissible profiles with v <= 3"),
    ):
        if which in (option, "all"):
            lams = certifier.sample_admissible_lambdas(m, 3.0, args.samples, substream(args.seed, stream))
            margin = certifier.block_margin(kind, lams, certifier.profile_v(lams))[1]
            report.add_margin(name, margin, _tolerance(args, tol), claim)

    if which in ("iv", "all"):
        res = certifier.find_eps0(3, samples=args.samples, seed=args.seed)
        report.payload["eps0"] = res
        report.add_margin(
            "diag_block_eps0",
            res.eps0,
            0.0,
            "a strictly positive eps0 keeps the diagonal block PSD for v <= 3",
        )


def _parse_point(args, n: int):
    import numpy as np

    if args.coords is None:
        return np.full(n, 0.4)
    if len(args.coords) != n:
        raise UsageError(f"--point needs {n} coordinates, got {len(args.coords)}")
    return np.asarray(args.coords)


def _load_graph(args):
    from . import graphs

    return args.graph if args.graph_spec else graphs.builtin(args.example)


def _fd_agreement(G, x, step: float):
    """point_geometry, closed-form and FD Delta v on the base plane at x, and their relative difference.

    Raises UsageError where the step does not resolve x (some x_i +- step rounds back to x_i): the
    stencil there differences equal values, so the FD reads 0 whatever the geometry.  It raises
    too where the FD is exactly 0 but the closed form is not, as where every stencil value of v
    is the same double: the FD measured nothing.
    """
    from . import certifier, graphs

    pg = graphs.point_geometry(G, x)
    if any(xi + step == xi or xi - step == xi for xi in x):
        raise UsageError(f"--fd-step {step:g} does not resolve the point: some x_i +- step rounds back to x_i")
    closed = float(certifier.laplacian_v_batch(pg.lambdas, pg.h))
    fd = graphs.laplacian_v_finite_difference(G, x, step=step)
    if fd == 0.0 and closed != 0.0:
        raise UsageError(f"--fd-step {step:g} does not move v at the point: the FD reads exactly 0 "
                         f"against a closed form of {closed:.3g}")
    # the floor keeps the comparison meaningful when both sides vanish (flat graphs)
    scale = max(abs(closed), abs(fd), pg.slope * pg.norm_b2, 1e-6)
    return pg, closed, fd, abs(closed - fd) / scale


def _cmd_graph(args, report) -> None:
    import numpy as np

    G = _load_graph(args)
    x = _parse_point(args, G.n)
    pg, closed, fd, rel = _fd_agreement(G, x, args.fd_step)
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
    tol = _tolerance(args, 1e-3)
    worst_rel = 0.0
    checked = 0
    for _ in range(args.samples):
        if G.name == "lawson_osserman":
            x = rng.standard_normal(G.n)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        else:
            x = rng.uniform(-0.6, 0.6, G.n)
        if not G.contains(x, margin=2 * args.fd_step):
            continue
        checked += 1
        worst_rel = max(worst_rel, _fd_agreement(G, x, args.fd_step)[3])
    report.payload["points_checked"] = checked
    report.add_margin(
        "fd_agreement",
        tol - worst_rel if checked else -math.inf,
        0.0,
        "closed-form Delta v agrees with the FD Laplacian at every sampled point in the domain, and one lies there",
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
    or a graph description whose Gauss image is sampled over a small ball
    (`args.graph`, built and checked against --n/--m by `_validate`);
    otherwise a synthetic sublevel cloud is drawn.
    """
    import numpy as np

    from . import graphs, grassmann
    from .rng import substream

    if args.graph_spec:
        if args.graph is None:
            cloud = [grassmann.from_chart(np.asarray(Z, dtype=float), P1) for Z in args.spec]
        else:
            G = args.graph
            rng = substream(args.seed, 53)
            cloud = []
            for _ in range(32):
                x = rng.uniform(-0.3, 0.3, G.n)
                if G.contains(x):
                    cloud.append(graphs.point_geometry(G, x).gauss)
        if not cloud:
            raise UsageError("the supplied cloud is empty")
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
    eps = shrinking.compute_epsilon1(args.a, args.beta0, m=args.m)
    report.payload["epsilon1"] = eps
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
    margin = shrinking.containment_check(P1, res.p2, params, samples=args.samples, seed=args.seed)
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
    report.payload["iteration"] = trace
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
    for cert in certifier.compute_K0(args.n, args.m, _K0_SWEEP_GRID, audit_samples=args.samples, seed=args.seed):
        rows.append(
            {
                "beta0": cert.beta0,
                "k0": cert.k0,
                "k0_closed_form": cert.k0_closed_form,
                "closed_form_gap": cert.closed_form_gap,
                "argmin_lambda": cert.argmin_lambda,
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
    if args.m == 1:
        # no II block: K0 = 1 at every beta0, and nothing degenerates
        report.add_margin(
            "matches_closed_form",
            -max(abs(r["closed_form_gap"]) for r in rows),
            1e-12,
            "K0(beta0) equals its closed form 1 at every beta0 of the sweep",
        )
    else:
        report.add_margin(
            "degenerates_at_three",
            0.05 - rows[-1]["k0"],
            0.0,
            "K0(2.99) lies below 0.05: the constant degenerates towards beta0 = 3",
        )
    report.add_margin("all_positive", min(r["k0"] for r in rows), 0.0, "K0 > 0 on the sweep")


# each subcommand: its campaign, the flags it reads in declaration order, and
# its --samples default and upper bound (sweep-k0 audits six beta0 values,
# shrink's containment check draws chart matrices, and each cross-validate
# point costs an FD Laplacian)
_COMMANDS = {
    "certify": (_cmd_certify, ("--n", "--m", "--beta0", "--samples", "--seed"), (100_000, _MAX_SAMPLES)),
    "lemmas": (_cmd_lemmas, ("--which", "--samples", "--seed"), (100_000, _MAX_SAMPLES)),
    "graph": (_cmd_graph, ("--example", "--graph-spec", "--point", "--fd-step"), None),
    "shrink": (_cmd_shrink, ("--n", "--m", "--beta0", "--a", "--b", "--samples", "--seed", "--graph-spec"),
               (50_000, 50_000)),
    "sweep-k0": (_cmd_sweep_k0, ("--n", "--m", "--samples", "--seed"), (20_000, 20_000)),
    "cross-validate": (_cmd_cross_validate, ("--example", "--graph-spec", "--samples", "--seed", "--fd-step"),
                       (500, 500)),
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
    args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
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
        _COMMANDS[args.command][0](args, report)
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
