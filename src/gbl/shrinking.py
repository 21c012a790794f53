"""Center replacement and the quantitative Gauss-image shrinking iteration.

Given a bound v(., P1) <= b on a region and a witness Q, the replacement
step produces a new center P2 so that the region stays inside the sublevel
set {v(., P2) <= a} while the bound at Q drops to max(1, b - eps1).  The
spherical picture behind it: w = cos r for the chordal distance r on the
ambient sphere, so v = sec r and the triangle inequality controls
containment.  Iterating the step drives a cloud's certified bound below
the case threshold sqrt(2) (1 + 1/a)^(-1/2) in at most
floor((a - threshold)/eps1) + 1 steps.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import grassmann
from .errors import DimensionMismatch, PreconditionViolated, RootBracketFailure, Stalled
from .rng import substream


def threshold(a: float) -> float:
    """Case threshold sqrt(2) (1 + 1/a)^(-1/2); equals sqrt(6)/2 at a = 3."""
    return math.sqrt(2.0) / math.sqrt(1.0 + 1.0 / a)


@dataclass(frozen=True)
class ShrinkParameters:
    """Outer bound a, current bound b, and global slope bound beta0."""
    a: float
    b: float
    beta0: float

    def __post_init__(self):
        if not (self.a > 1.0):
            raise PreconditionViolated("need a > 1")
        if not (1.0 <= self.beta0 < self.a):
            raise PreconditionViolated("need 1 <= beta0 < a")
        if not (1.0 <= self.b <= self.beta0 * (1.0 + 1e-12)):
            raise PreconditionViolated("need 1 <= b <= beta0")

    @property
    def alpha(self) -> float:
        return math.acos(1.0 / self.a)

    @property
    def beta(self) -> float:
        return math.acos(1.0 / self.b)

    @property
    def gamma(self) -> float:
        return self.alpha - self.beta

    @property
    def c(self) -> float:
        """sec(alpha - beta) via the product form; v(P2, P1) target in case II."""
        return 1.0 / (
            1.0 / (self.a * self.b)
            + math.sqrt(1.0 - self.a**-2) * math.sqrt(1.0 - self.b**-2)
        )

    @property
    def threshold(self) -> float:
        return threshold(self.a)


@dataclass(frozen=True)
class ShrinkResult:
    p2: grassmann.GrassmannPoint
    case: str                      # TrivialCenter | CaseI | CaseII
    t0: float | None
    new_bound_on_q: float


def shrink_center(
    P1: grassmann.GrassmannPoint, Q: grassmann.GrassmannPoint, params: ShrinkParameters
) -> ShrinkResult:
    """Replace the center P1 by P2 per the case analysis.

    b below the threshold, or v(Q, P1) < c, allow P2 = Q outright; otherwise
    P2 = gamma(t0) on the geodesic from Q to P1 where v(., P1) first drops
    to c, t0 = s L with s the `grassmann.geodesic_fraction` of the
    strictly decreasing log-sec profile.
    """
    vq = grassmann.v_value(Q, P1)
    if vq > params.b * (1.0 + 1e-9):
        raise PreconditionViolated(f"v(Q, P1) = {vq:.6f} exceeds b = {params.b}")
    if params.b < params.threshold:
        return ShrinkResult(Q, "TrivialCenter", None, 1.0)
    c = params.c
    if vq < c:
        return ShrinkResult(Q, "CaseI", None, 1.0)

    angles = grassmann.jordan_decompose(Q, P1).pair_angles
    if float(grassmann.log_volume(np.tan(angles) ** 2)) - math.log(c) < -1e-9:
        raise RootBracketFailure("v(Q, P1) < c inside case II")
    s, new_bound = _case_two(angles, c)
    t0 = float(s) * float(np.linalg.norm(angles))
    return ShrinkResult(grassmann.geodesic(Q, P1, t0), "CaseII", t0, float(new_bound))


def _case_two(thetas: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Fraction s of the geodesic Q -> P1 where v(., P1) = c, and v(Q, gamma(s L)), per angle profile."""
    s = grassmann.geodesic_fraction(thetas, math.log(c))
    return s, np.exp(grassmann.log_volume(np.tan(thetas * s[..., None]) ** 2))


def containment_check(
    P1: grassmann.GrassmannPoint,
    P2: grassmann.GrassmannPoint,
    params: ShrinkParameters,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Worst margin of a - v(P, P2) over sampled P with v(P, P1) <= b.

    Sampling is uniform in chart coordinates of P1 with rejection.  A sample
    outside the chart of P2 is a failed check rather than an error: it counts
    as -inf (a containment violation, which the replacement construction
    rules out) instead of raising OutOfChart as `grassmann.chart_stack` would.
    """
    Zs = grassmann.sample_chart_sublevel(P1.n, P1.m, params.b, samples, substream(seed, 21))
    rows = P1.frame[None, :, :] + Zs @ P1.normal_frame
    denom = grassmann.chart_v(Zs)
    wnum = np.linalg.det(rows @ P2.frame.T)
    with np.errstate(divide="ignore"):
        v2 = np.where(wnum > 0.0, denom / np.where(wnum > 0.0, wnum, 1.0), np.inf)
    return float(np.min(params.a - v2))


# eps1 grid: EPS1_B_STEPS values of b, theta_steps^m profiles per b (thinned by 4
# down to EPS1_MIN_THETA_STEPS while over budget); EPS1_SLACK is the relative slack
EPS1_B_STEPS = 17
EPS1_MIN_THETA_STEPS = 8
EPS1_SLACK = 1e-3


@dataclass
class Epsilon1Result:
    """Per-step decrement eps1 for given (a, beta0, m): a sampled estimate, not yet a lower bound."""
    epsilon1: float
    first_branch: float
    epsilon2: float
    argmin_b: float
    argmin_thetas: np.ndarray
    evaluations: int
    budget_exhausted: bool

    def __float__(self) -> float:
        return self.epsilon1


def compute_epsilon1(a: float, beta0: float, m: int, budget: int = 4_000_000) -> Epsilon1Result:
    """Decrement eps1 = min(threshold - 1, inf F) over the case-II region, estimated by sampling.

    The compact region: b in [threshold, beta0], theta in [0, arccos(1/b)]^m
    with c(b) <= prod sec(theta) <= b.  A grid of at most `budget` points plus
    Nelder-Mead polish estimates inf F, and eps1 keeps EPS1_SLACK below that
    estimate.  The estimate can sit above feasible F values, so eps1 is not
    yet a lower bound.  PreconditionViolated,
    before anything is allocated, when even the coarsest grid exceeds `budget`.
    """
    if not (1.0 <= beta0 < a):
        raise PreconditionViolated("need 1 <= beta0 < a")
    thr = threshold(a)
    branch1 = thr - 1.0
    if beta0 < thr:
        # no case-II configurations exist below the threshold
        return Epsilon1Result(branch1, branch1, math.inf, beta0, np.zeros(m), 0, False)

    requested = theta_steps = 64 if m <= 3 else 32
    while EPS1_B_STEPS * theta_steps**m > budget and theta_steps > EPS1_MIN_THETA_STEPS:
        theta_steps -= 4
    if EPS1_B_STEPS * theta_steps**m > budget:
        raise PreconditionViolated(f"eps1 grid of {EPS1_B_STEPS} x {theta_steps}^{m} exceeds budget {budget}")
    budget_exhausted = theta_steps < requested

    b_values = np.linspace(thr, beta0, EPS1_B_STEPS) if beta0 > thr else np.array([thr])
    best = math.inf
    best_b = float(b_values[0])
    best_thetas = np.zeros(m)
    evaluations = 0
    for b in b_values:
        params = ShrinkParameters(a=a, b=float(b), beta0=beta0)
        c = params.c
        tmax = math.acos(1.0 / b)
        axes = np.linspace(0.0, tmax, theta_steps)
        mesh = np.stack(np.meshgrid(*([axes] * m), indexing="ij"), axis=-1).reshape(-1, m)
        sec_prod = np.prod(1.0 / np.cos(mesh), axis=1)
        feas = (sec_prod >= c * (1.0 - 1e-12)) & (sec_prod <= b * (1.0 + 1e-12))
        mesh = mesh[feas]
        if mesh.shape[0] == 0:
            continue
        evaluations += mesh.shape[0]
        F = b - _case_two(mesh, c)[1]
        idx = int(np.argmin(F))
        if F[idx] < best:
            best = float(F[idx])
            best_b = float(b)
            best_thetas = mesh[idx].copy()

    if math.isfinite(best):
        def objective(x: np.ndarray) -> float:
            b = float(x[0])
            thetas = x[1:]
            if not (thr <= b <= beta0):
                return 10.0 + abs(b - min(max(b, thr), beta0))
            tmax = math.acos(1.0 / b)
            if np.any(thetas < 0.0) or np.any(thetas > tmax):
                return 10.0 + float(np.sum(np.clip(-thetas, 0, None) + np.clip(thetas - tmax, 0, None)))
            params = ShrinkParameters(a=a, b=b, beta0=beta0)
            sec_prod = float(np.prod(1.0 / np.cos(thetas)))
            if not (params.c <= sec_prod <= b):
                return 10.0 + abs(sec_prod - min(max(sec_prod, params.c), b))
            return b - float(_case_two(thetas, params.c)[1])

        res = minimize(
            objective,
            x0=np.concatenate([[best_b], best_thetas]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 4000},
        )
        evaluations += res.nfev
        if res.fun < best:
            best = float(res.fun)
            best_b = float(res.x[0])
            best_thetas = np.clip(res.x[1:], 0.0, None)

    eps2 = best
    eps1 = min(branch1, eps2 * (1.0 - EPS1_SLACK))
    if eps1 <= 0.0:
        raise PreconditionViolated("numerical decrement collapsed to zero")
    return Epsilon1Result(
        epsilon1=eps1,
        first_branch=branch1,
        epsilon2=eps2,
        argmin_b=best_b,
        argmin_thetas=best_thetas,
        evaluations=evaluations,
        budget_exhausted=budget_exhausted,
    )


# ---------------------------------------------------------------------------
# the iteration on point clouds

@dataclass
class IterationTrace:
    bounds: list = field(default_factory=list)
    cases: list = field(default_factory=list)
    epsilon1: float = 0.0
    k_planned: int = 0
    k_actual: int = 0

    def to_dict(self) -> dict:
        return {
            "bounds": [float(b) for b in self.bounds],
            "cases": list(self.cases),
            "epsilon1": self.epsilon1,
            "k_planned": self.k_planned,
            "k_actual": self.k_actual,
        }


def iterate(cloud, q0_bound: float, params: ShrinkParameters, epsilon1: float) -> IterationTrace:
    """Drive a cloud's certified v-bound below the case threshold.

    Starting from the standard plane, each step replaces the center using
    the cloud's embedded mean as the witness Q, then contracts the cloud
    towards Q (the desk-scale stand-in for the concentration the elliptic
    theory provides) by a factor halved from 1/2 until the certified bound
    has dropped by eps1.  Raises Stalled when even full contraction cannot
    achieve half the decrement.

    The cloud is charted once, as a (K, n, m) stack around the initial
    center, and moved to each new center's chart by one `chart_stack`; a
    contraction factor costs one batched `t_embedding_inverse` and one
    batched `chart_v`.
    """
    if not cloud:
        raise PreconditionViolated("empty cloud")
    P = grassmann.standard_plane(cloud[0].n, cloud[0].m)
    if q0_bound > params.beta0 * (1.0 + 1e-12):
        raise PreconditionViolated("q0_bound must not exceed beta0")
    if any((pt.n, pt.m) != (P.n, P.m) for pt in cloud):
        raise DimensionMismatch(f"every cloud point must be a ({P.n},{P.m}) plane")
    # orthonormal frames have sqrt(det(R R^T)) = 1, and v(pt, P) = 1 / w
    Zs, w = grassmann.chart_stack(np.stack([pt.frame for pt in cloud]), P, 1.0)
    b0 = float(np.max(1.0 / np.minimum(w, 1.0)))
    if b0 > q0_bound * (1.0 + 1e-9):
        raise PreconditionViolated(f"cloud exceeds the certified bound: {b0:.6f} > {q0_bound:.6f}")

    n, m = P.n, P.m
    eps1 = float(epsilon1)
    thr = params.threshold
    k_planned = int((params.a - thr) / eps1) + 1
    trace = IterationTrace(epsilon1=eps1, k_planned=k_planned)
    trace.bounds.append(q0_bound)

    bj = q0_bound
    while bj >= thr and trace.k_actual < k_planned + 5:
        # witness: the cloud's mean through the radial embedding around P
        ybar = grassmann.t_embedding(Zs).mean(axis=0)
        q = grassmann.from_chart(grassmann.t_embedding_inverse(ybar, n, m), P)
        res = shrink_center(P, q, dataclasses.replace(params, b=bj))
        # the cloud and the witness in the chart of the new center, embedded once
        Zs = grassmann.chart_stack(P.frame + Zs @ P.normal_frame, res.p2, grassmann.chart_v(Zs))[0]
        ys = grassmann.t_embedding(Zs)
        yq = grassmann.t_embedding(grassmann.to_chart(q, res.p2))
        target = max(bj - eps1, 1.0 + 1e-9)
        rho = 0.5
        for _ in range(60):
            # pull every cloud point towards the witness by rho in the embedding
            new_Zs = grassmann.t_embedding_inverse(yq + rho * (ys - yq), n, m)
            bn = float(np.max(grassmann.chart_v(new_Zs)))
            if bn <= target:
                break
            rho *= 0.5
        if bn > max(bj - 0.5 * eps1, 1.0 + 1e-9):
            raise Stalled(
                f"step {trace.k_actual}: bound {bn:.6f} did not decrement from {bj:.6f} by eps1/2"
            )
        Zs = new_Zs
        P = res.p2
        bj = bn
        trace.bounds.append(bj)
        trace.cases.append(res.case)
        trace.k_actual += 1
    return trace
