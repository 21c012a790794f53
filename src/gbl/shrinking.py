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

from . import grassmann
from .errors import DimensionMismatch, PreconditionViolated, Stalled
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
    def c(self) -> float:
        """sec(alpha - beta) with alpha = arccos(1/a), beta = arccos(1/b), via the product form;
        v(P2, P1) target in case II."""
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
    strictly decreasing log-sec profile; the angles, L and gamma come from
    one `grassmann._geodesic_directions` of (Q, P1).
    """
    vq = grassmann.v_value(Q, P1)
    if vq > params.b * (1.0 + 1e-9):
        raise PreconditionViolated(f"v(Q, P1) = {vq:.6f} exceeds b = {params.b}")
    if params.b < params.threshold:
        return ShrinkResult(Q, "TrivialCenter", None, 1.0)
    c = params.c
    if vq < c:
        return ShrinkResult(Q, "CaseI", None, 1.0)

    left, u, angles, L = grassmann._geodesic_directions(Q, P1)
    s, new_bound = _case_two(angles, c)
    t0 = float(s) * L
    return ShrinkResult(grassmann._geodesic_point(left, u, angles, L, t0), "CaseII", t0, float(new_bound))


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

    The samples are uniform in chart coordinates of P1, drawn by
    `grassmann.sample_chart_sublevel` as Haar frames times singular values
    kept under a closed-form envelope (50,000 at (4, 3) take about 0.7 s).
    A sample outside the chart of P2 is a failed check rather than an error:
    it counts as -inf (a containment violation, which the replacement
    construction rules out) instead of raising OutOfChart as
    `grassmann.chart_stack` would.
    Raises PreconditionViolated unless samples >= 1: no sample has no worst margin.
    """
    if samples < 1:
        raise PreconditionViolated(f"containment_check needs samples >= 1, got {samples}")
    Zs = grassmann.sample_chart_sublevel(P1.n, P1.m, params.b, samples, substream(seed, 21))
    rows = P1.frame[None, :, :] + Zs @ P1.normal_frame
    denom = grassmann.chart_v(Zs)
    wnum = np.linalg.det(rows @ P2.frame.T)
    with np.errstate(divide="ignore"):
        v2 = np.where(wnum > 0.0, denom / np.where(wnum > 0.0, wnum, 1.0), np.inf)
    return float(np.min(params.a - v2))


@dataclass
class Epsilon1Result:
    """Per-step decrement eps1 for given (a, beta0, m): a witness value, not yet a certified lower bound.

    epsilon2 is F at the witness (argmin_b, argmin_thetas) = (beta0, theta*)
    on the equal-angle face, first_branch = threshold - 1, and epsilon1 the
    smaller of the two.
    """
    epsilon1: float
    first_branch: float
    epsilon2: float
    argmin_b: float
    argmin_thetas: np.ndarray


def compute_epsilon1(a: float, beta0: float, m: int) -> Epsilon1Result:
    """Decrement eps1 = min(threshold - 1, F(beta0, theta*)) with theta*_i = arccos(beta0^(-1/m)).

    F(b, theta) = b - v(Q, gamma(t0)) is the case-II decrement on the region
    b in [threshold, beta0], c(b) <= prod sec(theta) <= b.  At b = threshold
    c(b) = b, so F = threshold - 1 there.  At b = beta0 the candidate minimum
    lies on the face prod sec(theta) = b with all angles equal, where F is one
    `geodesic_fraction` Newton root.  Probes find no smaller F on the face,
    along b or inside the region, but eps1 is a witness value, not yet a
    certified lower bound.
    """
    if m < 1:
        raise PreconditionViolated(f"need m >= 1, got {m}")
    if not (1.0 <= beta0 < a):
        raise PreconditionViolated("need 1 <= beta0 < a")
    thr = threshold(a)
    branch1 = thr - 1.0
    if beta0 < thr:
        # no case-II configurations exist below the threshold
        return Epsilon1Result(branch1, branch1, math.inf, beta0, np.zeros(m))
    thetas = np.full(m, math.acos(beta0 ** (-1.0 / m)))
    eps2 = beta0 - float(_case_two(thetas, ShrinkParameters(a, beta0, beta0).c)[1])
    eps1 = min(branch1, eps2)
    if eps1 <= 0.0:
        raise PreconditionViolated("numerical decrement collapsed to zero")
    return Epsilon1Result(eps1, branch1, eps2, beta0, thetas)


# ---------------------------------------------------------------------------
# the iteration on point clouds

@dataclass
class IterationTrace:
    bounds: list = field(default_factory=list)
    cases: list = field(default_factory=list)
    epsilon1: float = 0.0
    k_planned: int = 0
    k_actual: int = 0


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
