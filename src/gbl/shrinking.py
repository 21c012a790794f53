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
from .errors import PreconditionViolated, RootBracketFailure, Stalled
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
    epsilon1: float | None


def shrink_center(
    P1: grassmann.GrassmannPoint,
    Q: grassmann.GrassmannPoint,
    params: ShrinkParameters,
    epsilon1: float | None = None,
) -> ShrinkResult:
    """Replace the center P1 by P2 per the case analysis.

    b below the threshold, or v(Q, P1) < c, allow P2 = Q outright; otherwise
    P2 = gamma(t0) on the geodesic from Q to P1 where v(., P1) first drops
    to c, found by bisection of the strictly decreasing profile product.
    """
    vq = grassmann.v_value(Q, P1)
    if vq > params.b * (1.0 + 1e-9):
        raise PreconditionViolated(f"v(Q, P1) = {vq:.6f} exceeds b = {params.b}")
    if params.b < params.threshold:
        return ShrinkResult(Q, "TrivialCenter", None, 1.0, epsilon1)
    c = params.c
    if vq < c:
        return ShrinkResult(Q, "CaseI", None, 1.0, epsilon1)

    dec = grassmann.jordan_decompose(Q, P1)
    angles = dec.pair_angles
    L = float(np.linalg.norm(angles))
    logc = math.log(c)

    def excess(t: float) -> float:
        # log v(gamma(t), P1) - log c, strictly decreasing in t
        return -float(np.sum(np.log(np.cos(angles * (1.0 - t / L))))) - logc

    if excess(0.0) < -1e-9:
        raise RootBracketFailure("v(Q, P1) < c inside case II")
    lo, hi = 0.0, L
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t0 = 0.5 * (lo + hi)
    p2 = grassmann.geodesic(Q, P1, t0)
    new_bound = float(np.exp(-np.sum(np.log(np.cos(angles * (t0 / L))))))
    return ShrinkResult(p2, "CaseII", t0, new_bound, epsilon1)


def containment_check(
    P1: grassmann.GrassmannPoint,
    P2: grassmann.GrassmannPoint,
    params: ShrinkParameters,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Worst margin of a - v(P, P2) over sampled P with v(P, P1) <= b.

    Sampling is uniform in chart coordinates of P1 with rejection; an
    out-of-chart sample relative to P2 counts as -inf (a containment
    violation), which the replacement construction rules out.
    """
    n, m = P1.n, P1.m
    rng = substream(seed, 21)
    Zs = grassmann.sample_chart_sublevel(n, m, params.b, samples, rng)
    basis = P1.extended_basis()
    rows = P1.frame[None, :, :] + Zs @ basis[n:]
    denom = np.sqrt(np.linalg.det(np.eye(n) + np.einsum("kia,kja->kij", Zs, Zs)))
    wnum = np.linalg.det(rows @ P2.frame.T)
    with np.errstate(divide="ignore"):
        v2 = np.where(wnum > 0.0, denom / np.where(wnum > 0.0, wnum, 1.0), np.inf)
    return float(np.min(params.a - v2))


@dataclass
class Epsilon1Result:
    """Certified per-step decrement for given (a, beta0, m)."""
    epsilon1: float
    first_branch: float
    epsilon2: float
    argmin_b: float
    argmin_thetas: np.ndarray
    evaluations: int
    budget_exhausted: bool
    slack: float

    def __float__(self) -> float:
        return self.epsilon1


def _vectorised_decrement(b: float, c: float, thetas: np.ndarray) -> np.ndarray:
    """F = b - v(Q, gamma(t0)) for a batch of feasible angle profiles."""
    L = np.linalg.norm(thetas, axis=1)
    logc = math.log(c)
    lo = np.zeros_like(L)
    hi = np.ones_like(L)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        # log v(gamma(s L), P1) at fraction s: -sum log cos(theta (1-s))
        val = -np.sum(np.log(np.cos(thetas * (1.0 - mid)[:, None])), axis=1)
        above = val > logc
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    s0 = 0.5 * (lo + hi)
    vq2 = np.exp(-np.sum(np.log(np.cos(thetas * s0[:, None])), axis=1))
    return b - vq2


def compute_epsilon1(
    a: float,
    beta0: float,
    n: int | None = None,
    m: int = 2,
    budget: int = 4_000_000,
    b_steps: int = 17,
    theta_steps: int | None = None,
    polish: bool = True,
    slack: float = 1e-3,
) -> Epsilon1Result:
    """Certified decrement eps1 = min(threshold - 1, inf F) over the case-II region.

    The compact region: b in [threshold, beta0], theta in [0, arccos(1/b)]^m
    with c(b) <= prod sec(theta) <= b.  A dense grid plus derivative-free
    polish estimates inf F; the certificate keeps a relative `slack` below
    the numerical minimum so sampled configurations cannot undercut it.
    """
    if not (1.0 <= beta0 < a):
        raise PreconditionViolated("need 1 <= beta0 < a")
    if n is not None and m > n:
        raise PreconditionViolated("need m <= n")
    thr = threshold(a)
    branch1 = thr - 1.0
    if theta_steps is None:
        theta_steps = 64 if m <= 3 else 32
    budget_exhausted = False
    if beta0 < thr:
        # no case-II configurations exist below the threshold
        return Epsilon1Result(branch1, branch1, math.inf, beta0, np.zeros(m), 0, False, slack)

    requested = theta_steps
    while b_steps * theta_steps**m > budget and theta_steps > 8:
        theta_steps -= 4
    if theta_steps < requested:
        budget_exhausted = True

    b_values = np.linspace(thr, beta0, b_steps) if beta0 > thr else np.array([thr])
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
        F = _vectorised_decrement(float(b), c, mesh)
        idx = int(np.argmin(F))
        if F[idx] < best:
            best = float(F[idx])
            best_b = float(b)
            best_thetas = mesh[idx].copy()

    if polish and math.isfinite(best):
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
            return float(_vectorised_decrement(b, params.c, thetas[None, :])[0])

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
    eps1 = min(branch1, eps2 * (1.0 - slack))
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
        slack=slack,
    )


# ---------------------------------------------------------------------------
# the iteration on point clouds

@dataclass
class IterationTrace:
    centers: list = field(default_factory=list)
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


def t_mean(cloud, P: grassmann.GrassmannPoint) -> grassmann.GrassmannPoint:
    """Mean of a cloud through the radial chart embedding around P."""
    ys = grassmann.t_embedding(np.stack([grassmann.to_chart(pt, P) for pt in cloud]))
    Zbar = grassmann.t_embedding_inverse(ys.mean(axis=0), P.n, P.m)
    return grassmann.from_chart(Zbar, P)


def _contract_cloud(cloud, center_pt, P, rho: float):
    """Pull every cloud point towards center_pt by factor rho, in P's embedding."""
    yq = grassmann.t_embedding(grassmann.to_chart(center_pt, P))
    ys = grassmann.t_embedding(np.stack([grassmann.to_chart(pt, P) for pt in cloud]))
    return [
        grassmann.from_chart(grassmann.t_embedding_inverse(yq + rho * (y - yq), P.n, P.m), P)
        for y in ys
    ]


def iterate(
    cloud,
    q0_bound: float,
    params: ShrinkParameters,
    epsilon1: float | None = None,
    initial_center: grassmann.GrassmannPoint | None = None,
    contraction: float = 0.5,
    max_steps: int | None = None,
) -> IterationTrace:
    """Drive a cloud's certified v-bound below the case threshold.

    Each step replaces the center using the cloud's embedded mean as the
    witness Q, then contracts the cloud towards Q (the desk-scale stand-in
    for the concentration the elliptic theory provides) until the certified
    bound has dropped by eps1.  Raises Stalled when even full contraction
    cannot achieve half the decrement.
    """
    if not cloud:
        raise PreconditionViolated("empty cloud")
    P = initial_center if initial_center is not None else grassmann.standard_plane(cloud[0].n, cloud[0].m)
    if q0_bound > params.beta0 * (1.0 + 1e-12):
        raise PreconditionViolated("q0_bound must not exceed beta0")
    b0 = max(grassmann.v_value(pt, P) for pt in cloud)
    if b0 > q0_bound * (1.0 + 1e-9):
        raise PreconditionViolated(f"cloud exceeds the certified bound: {b0:.6f} > {q0_bound:.6f}")

    eps1 = float(epsilon1) if epsilon1 is not None else float(
        compute_epsilon1(params.a, params.beta0, m=cloud[0].m)
    )
    thr = params.threshold
    k_planned = int((params.a - thr) / eps1) + 1
    trace = IterationTrace(epsilon1=eps1, k_planned=k_planned)
    trace.centers.append(P)
    trace.bounds.append(q0_bound)

    bj = q0_bound
    limit = max_steps if max_steps is not None else k_planned + 5
    while bj >= thr and trace.k_actual < limit:
        q = t_mean(cloud, P)
        res = shrink_center(P, q, dataclasses.replace(params, b=bj), eps1)
        target = max(bj - eps1, 1.0 + 1e-9)
        rho = contraction
        new_cloud = cloud
        bn = math.inf
        for _ in range(60):
            new_cloud = _contract_cloud(cloud, q, res.p2, rho)
            bn = max(grassmann.v_value(pt, res.p2) for pt in new_cloud)
            if bn <= target:
                break
            rho *= 0.5
        if bn > max(bj - 0.5 * eps1, 1.0 + 1e-9):
            raise Stalled(
                f"step {trace.k_actual}: bound {bn:.6f} did not decrement from {bj:.6f} by eps1/2"
            )
        cloud = new_cloud
        P = res.p2
        bj = bn
        trace.centers.append(P)
        trace.bounds.append(bj)
        trace.cases.append(res.case)
        trace.k_actual += 1
    return trace
