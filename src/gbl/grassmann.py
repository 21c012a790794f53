"""Geometry of oriented n-planes in R^(n+m).

Planes are stored as orthonormal row frames. The module provides the
Pluecker-style pairing w (a determinant), principal angles and their
singular-value decomposition, the angle-sum distance, normal geodesics,
the volume-distortion function

    v(P, P0) = 1 / w(P, P0) = prod_a sec(theta_a) = sqrt(det(I + Z Z^T)),

its Hessian in singular-value-adapted frames, and the radial chart
embedding T with |T(Z)| = v - 1.

Conventions
-----------
* A chart around P0 uses P0's own rows as the tangent basis and a fixed
  orthonormal completion as the normal basis; chart matrices Z are n x m
  and the represented plane is spanned by rows of (I | Z) in that basis.
  `chart_stack` is the one routine that charts planes (any stack of
  spanning rows); its pairing step `_chart_pairing`, which callers that
  need only w take alone, decides when a plane is out of chart
  (`_require_in_chart`).  Around the coordinate plane a graph's rows
  (I | Df^T) chart to Df^T with w = 1 / vol, which needs no solve.
* Frames adapted to the principal angles towards P0 come from one SVD of
  the chart matrix (`chart_svd`; `chart_frames` assembles the rows from its
  factors).  Jordan data (`jordan_decompose`, by descending angle,
  left_i . right_j = cos(theta_i) delta_ij, the left basis positively
  oriented) serves only `distance` and the geodesics: one
  `_geodesic_directions` per case-II step of `shrinking.shrink_center`.
* Repeated angles make principal bases non-unique; whichever gauge the
  SVD returns is kept, and only gauge-invariant quantities should be
  consumed downstream.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# not called here: perfbench/tracing.py wraps grassmann.brentq by name
from scipy.optimize import brentq  # noqa: F401

from .errors import (
    CutLocus,
    DimensionMismatch,
    InversionFailure,
    OutOfChart,
    PreconditionViolated,
    RankDeficient,
)
from .rng import child, rejection_sample

CHART_TOL = 1e-12
CUT_TOL = 1e-8
# singular values at least this close to 1 are snapped to exactly 1 so that
# identical planes report exactly zero angles
_SNAP_ONE = 1.0 - 5e-15
# Newton steps allowed to a monotone root solve (`_rising_newton`)
_NEWTON_CAP = 100
# proposals per envelope test of `sample_chart_sublevel`: its temporaries stay
# cache-sized, about 180 ns a proposal at (2, 2) against 250 ns for 240k at once
_PROPOSAL_CHUNK = 32768


def _orthonormalize_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormalize rows, preserving span and orientation sign."""
    q, r = np.linalg.qr(rows.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return (q * signs).T


class GrassmannPoint:
    """An oriented n-plane in R^(n+m): an orthonormal n x (n+m) row frame."""

    __slots__ = ("frame", "n", "m", "_normal")

    def __init__(self, frame: np.ndarray):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2 or frame.shape[0] >= frame.shape[1]:
            raise DimensionMismatch(f"frame must be n x (n+m) with m >= 1, got {frame.shape}")
        n, cols = frame.shape
        gram_err = np.abs(frame @ frame.T - np.eye(n)).max()
        if gram_err > 1e-6:
            raise RankDeficient("rows are far from orthonormal; use make_point for raw spans")
        if gram_err > 1e-14:
            frame = _orthonormalize_rows(frame)
        frame = np.ascontiguousarray(frame)
        frame.flags.writeable = False
        self.frame = frame
        self.n = n
        self.m = cols - n
        self._normal = None

    @property
    def normal_frame(self) -> np.ndarray:
        """Fixed orthonormal basis of the orthogonal complement (m rows)."""
        if self._normal is None:
            q, _ = np.linalg.qr(self.frame.T, mode="complete")
            normal = np.ascontiguousarray(q[:, self.n:].T)
            normal.flags.writeable = False
            self._normal = normal
        return self._normal

    def __repr__(self) -> str:
        return f"GrassmannPoint(n={self.n}, m={self.m})"


def make_point(rows: np.ndarray) -> GrassmannPoint:
    """Orthonormalize raw spanning rows into a GrassmannPoint.

    Raises RankDeficient when the smallest singular value is below 1e-10.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] >= rows.shape[1]:
        raise DimensionMismatch(f"rows must be n x (n+m) with m >= 1, got {rows.shape}")
    smin = np.linalg.svd(rows, compute_uv=False)[-1]
    if smin < 1e-10:
        raise RankDeficient(f"numerical rank < {rows.shape[0]} (smallest singular value {smin:.3e})")
    return GrassmannPoint(_orthonormalize_rows(rows))


@lru_cache(maxsize=None)
def standard_plane(n: int, m: int) -> GrassmannPoint:
    """The coordinate plane spanned by the first n basis vectors, built once per (n, m).

    Every caller shares the one plane: its frame (I | 0) and its lazily built
    normal frame, which the QR makes exactly (0 | I), are read-only.
    """
    return GrassmannPoint(np.hstack([np.eye(n), np.zeros((n, m))]))


def _check_same(P: GrassmannPoint, Q: GrassmannPoint) -> None:
    if (P.n, P.m) != (Q.n, Q.m):
        raise DimensionMismatch(f"({P.n},{P.m}) vs ({Q.n},{Q.m})")


def w_pairing(P: GrassmannPoint, Q: GrassmannPoint) -> float:
    """det(P.frame Q.frame^T); lies in [-1, 1], equals 1 iff P = Q."""
    _check_same(P, Q)
    return float(np.clip(np.linalg.det(P.frame @ Q.frame.T), -1.0, 1.0))


@dataclass(frozen=True)
class JordanDecomposition:
    """Principal angles and pairwise-aligned bases between two planes.

    `pair_angles` holds the n angles in descending order, the p = min(n, m)
    possibly-nonzero ones first and then n - p exact zeros, matching basis
    row order. `orientation` is the sign of det W folded out of the singular
    values.
    """
    left_basis: np.ndarray
    right_basis: np.ndarray
    orientation: float
    pair_angles: np.ndarray


def jordan_decompose(P: GrassmannPoint, Q: GrassmannPoint) -> JordanDecomposition:
    """SVD of W = P.frame Q.frame^T, angles sorted descending."""
    _check_same(P, Q)
    W = P.frame @ Q.frame.T
    U, s, Vh = np.linalg.svd(W)
    orientation = 1.0 if np.linalg.det(W) >= 0.0 else -1.0
    # descending angles = ascending singular values
    U = U[:, ::-1]
    s = s[::-1]
    Vh = Vh[::-1, :]
    if np.linalg.det(U) < 0.0:
        # flip one aligned pair; keeps W = U diag(s) Vh and the pairing
        U[:, -1] *= -1.0
        Vh[-1, :] *= -1.0
    s = np.clip(s, 0.0, 1.0)
    s[s >= _SNAP_ONE] = 1.0
    return JordanDecomposition(
        left_basis=U.T @ P.frame,
        right_basis=Vh @ Q.frame,
        orientation=orientation,
        pair_angles=np.arccos(s),
    )


def distance(P: GrassmannPoint, Q: GrassmannPoint) -> float:
    """Angle-sum distance sqrt(sum theta_i^2)."""
    return float(np.linalg.norm(jordan_decompose(P, Q).pair_angles))


def v_value(P: GrassmannPoint, P0: GrassmannPoint) -> float:
    """v(P, P0) = 1 / w(P, P0) = prod sec(theta_a), w the `_chart_pairing` of P's frame clipped
    to 1 as `w_pairing` clips it; OutOfChart (`_require_in_chart`) unless w > CHART_TOL."""
    _check_same(P, P0)
    return float(1.0 / min(_chart_pairing(P.frame, P0, 1.0)[1], 1.0))


def from_chart(Z: np.ndarray, P0: GrassmannPoint) -> GrassmannPoint:
    """Plane spanned by rows of (I | Z) in P0's adapted basis."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (P0.n, P0.m):
        raise DimensionMismatch(f"Z must be {P0.n} x {P0.m}, got {Z.shape}")
    if not np.isfinite(Z).all():
        raise DimensionMismatch("chart matrix has non-finite entries")
    rows = P0.frame + Z @ P0.normal_frame
    return GrassmannPoint(_orthonormalize_rows(rows))


def _chart_pairing(R: np.ndarray, P0: GrassmannPoint, vol) -> tuple[np.ndarray, np.ndarray]:
    """A = R P0^T and the pairing w = det A / vol of a (..., n, n+m) stack of rows R with P0.

    `vol` is sqrt(det(R R^T)) per plane (1 for orthonormal frames).  Raises
    OutOfChart, naming how many planes fail, unless every w > CHART_TOL.
    """
    A = R @ P0.frame.T
    w = np.linalg.det(A) / vol
    _require_in_chart(w)
    return A, w


def _require_in_chart(w: np.ndarray) -> None:
    """Raises OutOfChart, naming how many planes fail, unless every pairing w > CHART_TOL."""
    out = w <= CHART_TOL
    if np.any(out):
        raise OutOfChart(f"{int(np.sum(out))} plane(s) outside the chart of P0 (w <= 0)")


def chart_stack(R: np.ndarray, P0: GrassmannPoint, vol) -> tuple[np.ndarray, np.ndarray]:
    """Chart matrices around P0 of the planes spanned by a (..., n, n+m) stack of rows R, and w.

    The rows need not be orthonormal: `vol` is sqrt(det(R R^T)) per plane (1
    for orthonormal frames), so w = det(R P0^T) / vol is the pairing w(P, P0)
    of `_chart_pairing`, and Z = (R P0^T)^{-1} R N0^T with N0 the normal frame
    of P0.  Raises OutOfChart, naming how many planes fail, unless every
    w > CHART_TOL.
    """
    A, w = _chart_pairing(R, P0, vol)
    return np.linalg.solve(A, R @ P0.normal_frame.T), w


def to_chart(P: GrassmannPoint, P0: GrassmannPoint) -> np.ndarray:
    """Chart matrix of P around P0; inverse of `from_chart`."""
    _check_same(P, P0)
    return chart_stack(P.frame, P0, 1.0)[0]


def geodesic(Q: GrassmannPoint, P1: GrassmannPoint, t: float) -> GrassmannPoint:
    """Point at arc length t on the normal geodesic from Q towards P1.

    Each principal pair is rotated by theta_a * t / L, L = distance(Q, P1)
    (`_geodesic_point`); the standard parameter range is t in [0, L] but any
    real t evaluates the same rotation formula. Raises CutLocus when an angle
    reaches pi/2 or the target orientation is reversed (`_geodesic_directions`).
    """
    return _geodesic_point(*_geodesic_directions(Q, P1), t)


def _geodesic_point(left, u, angles, L: float, t: float) -> GrassmannPoint:
    """The plane at arc length t on the geodesic of `_geodesic_directions` (left, u, angles, L)."""
    if L == 0.0:
        return GrassmannPoint(left)
    s = angles * (t / L)
    return GrassmannPoint(np.cos(s)[:, None] * left + np.sin(s)[:, None] * u)


def _geodesic_directions(Q: GrassmannPoint, P1: GrassmannPoint):
    """Left basis, unit directions u (0 at a zero angle), pair angles and length of the geodesic Q -> P1."""
    dec = jordan_decompose(Q, P1)
    if dec.orientation <= 0.0:
        raise CutLocus("target plane is orientation-reversed; no minimal in-chart geodesic")
    angles = dec.pair_angles
    if np.any(angles >= np.pi / 2 - CUT_TOL):
        raise CutLocus("a principal angle reaches pi/2")
    left, right = dec.left_basis, dec.right_basis
    sines = np.sin(angles)
    u = np.zeros_like(left)
    rot = sines > 0.0
    u[rot] = (right[rot] - np.cos(angles[rot])[:, None] * left[rot]) / sines[rot][:, None]
    return left, u, angles, float(np.linalg.norm(angles))


@dataclass(frozen=True)
class AdaptedFrames:
    """Orthonormal frames at P aligned with the principal directions towards P0.

    tangent[c] pairs with normal[c] at lambdas[c] = tan theta_c (descending,
    zero-padded past min(n, m)): cos(theta_c) tangent[c] - sin(theta_c)
    normal[c] lies in P0.  Rows sharing an angle may rotate among themselves
    (gauge); only signs are fixed, so consume gauge-invariant quantities.
    """
    tangent: np.ndarray   # (n, n+m) rows spanning P
    normal: np.ndarray    # (m, n+m) rows spanning the complement
    lambdas: np.ndarray   # (m,)


def chart_svd(Z: np.ndarray):
    """The SVD Z = U diag(s) V^T of an n x m chart matrix, as (U^T, s, V) with signs fixed so
    that V_aa >= 0 and, for unpaired tangents, U_ii >= 0."""
    n, m = Z.shape
    # the SVD of the m x n transpose: for a graph, whose chart around the
    # coordinate plane is Df^T, this is the SVD of Df itself
    V, s, Ut = np.linalg.svd(Z.T)
    for a in range(m):
        if V[a, a] < 0.0:
            V[:, a] *= -1.0
            if a < n:
                Ut[a] *= -1.0
    for i in range(m, n):
        if Ut[i, i] < 0.0:
            Ut[i] *= -1.0
    return Ut, s, V


def chart_frames(Z: np.ndarray):
    """Adapted rows of the plane spanned by T0 + Z N0, from the SVD of its n x m chart matrix Z.

    T0 and N0 are the chart's orthonormal tangent and normal rows.  With
    Z = U diag(s) V^T (`chart_svd`, s zero-padded past min(n, m)), tangent
    row i is U_i^T T0 + s_i V_i^T N0 and normal row a is -s_a U_a^T T0 +
    V_a^T N0.  Returns these rows unscaled, tangents first, as one
    (n+m, n+m) stack of coordinates in the chart basis (T0; N0): a caller
    multiplies them by that basis to get rows of R^(n+m).  Also returns the
    scales 1 / sqrt(1 + s^2) that make the rows orthonormal at every angle,
    and the (m,) lambdas s = tan theta.
    """
    n, m = Z.shape
    p = min(n, m)
    Ut, s, V = chart_svd(Z)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Ut
    K[n:, n:] = V.T
    K[:p, n:] = s[:, None] * V.T[:p]
    K[n : n + p, :n] = -s[:, None] * Ut[:p]
    lam = np.zeros(n + m)
    lam[:p] = lam[n : n + p] = s
    return K, 1.0 / np.sqrt(1.0 + lam**2), lam[n:]


def adapted_frames(P: GrassmannPoint, P0: GrassmannPoint) -> AdaptedFrames:
    """`chart_frames` of P around P0, scaled; raises OutOfChart unless w(P, P0) > 0."""
    rows, scale, lambdas = chart_frames(to_chart(P, P0))
    rows = (rows @ np.vstack([P0.frame, P0.normal_frame])) * scale[:, None]
    return AdaptedFrames(tangent=rows[: P.n], normal=rows[P.n :], lambdas=lambdas)


@lru_cache(maxsize=None)
def _hessian_slots(n: int, m: int) -> tuple:
    """Pairs a != b below min(n, m), and the flat (nm)^2 slots of (c, c), (a,a)-(b,b) and (a,b)-(b,a)."""
    nm = n * m
    a, b = np.nonzero(~np.eye(min(n, m), dtype=bool))
    c = np.arange(min(n, m)) * (m + 1)
    return a, b, np.concatenate([c * nm + c, (a * m + a) * nm + b * m + b, (a * m + b) * nm + b * m + a])


def hessian_over_v(lams: np.ndarray, n: int) -> np.ndarray:
    """Hess v / v in adapted frames at profiles lams (..., m) = tan theta, shape (..., nm, nm).

    The basis is the orthonormal coframe of `adapted_frames`, slot (i, a)
    flattened row-major to i*m + a.  Entry pattern: 1 on every mixed slot,
    1 + 2 lambda_a^2 on the diagonal slots (a, a), couplings lambda_a lambda_b
    between (a,a)-(b,b) and between (a,b)-(b,a) for a != b below min(n, m).
    It defines `hessian_v`; `certifier.laplacian_v_batch` sums the form in
    closed form and never builds this matrix.
    """
    lams = np.asarray(lams, dtype=float)
    m = lams.shape[-1]
    a, b, flat = _hessian_slots(n, m)
    lam = lams[..., : min(n, m)]
    pair = lam[..., a] * lam[..., b]
    H = np.tile(np.eye(n * m).ravel(), lams.shape[:-1] + (1,))
    H[..., flat] = np.concatenate([1.0 + 2.0 * lam**2, pair, pair], axis=-1)
    return H.reshape(lams.shape[:-1] + (n * m, n * m))


def hessian_v(P: GrassmannPoint, P0: GrassmannPoint) -> np.ndarray:
    """Hessian of v(., P0) at P as an (nm) x (nm) matrix: v times `hessian_over_v`."""
    return v_value(P, P0) * hessian_over_v(adapted_frames(P, P0).lambdas, P.n)


def geodesic_velocity(Q: GrassmannPoint, P1: GrassmannPoint, frames: AdaptedFrames) -> np.ndarray:
    """Unit initial velocity of the geodesic Q -> P1, as (n, m) components in `frames`.

    Entry [i, a] is the pairing of the moving-frame derivative with
    frames.normal[a] when the moving frame starts at frames.tangent.
    """
    left, u, angles, L = _geodesic_directions(Q, P1)
    if L == 0.0:
        return np.zeros((Q.n, Q.m))
    vel = (angles / L)[:, None] * u
    return (frames.tangent @ left.T) @ (vel @ frames.normal.T)


def log_volume(s2: np.ndarray) -> np.ndarray:
    """log v = 1/2 sum log1p(s2) over the last axis; s2 = sigma^2 = tan^2(theta) of a chart matrix."""
    return 0.5 * np.sum(np.log1p(s2), axis=-1)


def t_embedding(Z: np.ndarray) -> np.ndarray:
    """Radial chart embedding Z -> (v(Z) - 1) Z / |Z|, flattened: (..., n, m) -> (..., nm)."""
    Z = np.asarray(Z, dtype=float)
    flat = Z.reshape(Z.shape[:-2] + (-1,))
    # a row times a column is one BLAS dot, the sum np.linalg.norm takes of a
    # single matrix, so each matrix of a stack maps as it would alone
    nz = np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])
    # v - 1 as expm1 of the log-volume stays accurate where sqrt(det(I + Z Z^T)) - 1 cancels
    radius = np.expm1(log_volume(np.linalg.svd(Z, compute_uv=False) ** 2))
    # Z = 0 has radius 0, so any divisor maps it to 0
    return (radius / np.where(nz > 0.0, nz, 1.0))[..., None] * flat


def _rising_newton(residual, x: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Newton steps x - F/F' on a stack of roots, `residual(x)` -> (F, F'), from x below each root.

    F is concave increasing or convex decreasing, so every step rises without passing the root.
    A row freezes once its step stops rising, so each row of a stack settles byte-identically to
    the row alone; inactive rows keep x.  InversionFailure if a row still rises after _NEWTON_CAP.
    """
    for _ in range(_NEWTON_CAP):
        if not np.any(active):
            return x
        f, df = residual(x)
        # rows with F = F' = 0 step to NaN, which never counts as a rise, and rows with F' = 0 < -F
        # (a zero angle of `geodesic_fraction`, where F' = -0.0) to -inf
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / df
        active = active & (step > x)
        x = np.where(active, step, x)
    if np.any(active):
        raise InversionFailure(f"Newton root not settled after {_NEWTON_CAP} steps")
    return x


def t_embedding_inverse(y: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of `t_embedding` on a stack: (..., nm) -> (..., n, m).

    With D = y / |y| and sigma the p = min(n, m) singular values of D,
    v(t D)^2 = prod(1 + t^2 sigma_i^2), so u = t^2 solves
    F(u) = sum log1p(u sigma_i^2) - 2 log1p(|y|) = 0.  F is concave and
    increasing.  D has unit Frobenius norm, so sum sigma_i^2 = 1 and, by
    AM-GM, sum log1p(u sigma_i^2) <= p log1p(u / p): F <= 0 at
    u0 = p expm1(2 log1p(|y|) / p), the root itself when p = 1 or every
    sigma_i is equal.  Newton from u0 (`_rising_newton`) rises monotonically
    to the root; zero rows map to 0.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (n * m,):
        raise DimensionMismatch(f"expected vectors of length {n * m}, got shape {y.shape}")
    # the row-times-column dot is the one np.linalg.norm takes of a vector
    ny = np.sqrt((y[..., None, :] @ y[..., :, None])[..., 0, 0])
    direction = (y / np.where(ny > 0.0, ny, 1.0)[..., None]).reshape(y.shape[:-1] + (n, m))
    s2 = np.linalg.svd(direction, compute_uv=False) ** 2
    target = 2.0 * np.log1p(ny)
    p = s2.shape[-1]

    def residual(u):
        us2 = u[..., None] * s2
        return np.sum(np.log1p(us2), axis=-1) - target, np.sum(s2 / (1.0 + us2), axis=-1)

    u = _rising_newton(residual, p * np.expm1(target / p), ny > 0.0)
    return np.sqrt(u)[..., None, None] * direction


def geodesic_fraction(thetas: np.ndarray, log_v: float) -> np.ndarray:
    """Fraction s in [0, 1] of the normal geodesic Q -> P1 where log v(., P1) falls to `log_v`.

    `thetas` (..., p) are the angles from Q to P1, so log v = log_volume(tan^2(theta (1 - s))) is
    convex and decreasing in s.  log sec x >= x^2 / 2 gives log v >= (1 - s)^2 |theta|^2 / 2, so
    Newton rises from s0 = max(0, 1 - sqrt(2 log_v) / |theta|), below the root (from 0 where
    |theta| = 0 or log_v <= 0), and a row already at or below `log_v` stays at 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    s = np.zeros(thetas.shape[:-1])
    if log_v > 0.0:
        reach = np.sqrt(2.0 * log_v)
        # 0 where |theta| <= reach, |theta| = 0 included
        s = 1.0 - reach / np.maximum(np.sqrt(np.sum(thetas * thetas, axis=-1)), reach)

    def residual(s):
        t = np.tan(thetas * (1.0 - s)[..., None])
        return log_volume(t * t) - log_v, -np.sum(thetas * t, axis=-1)

    return _rising_newton(residual, s, np.ones(s.shape, dtype=bool))


# ---------------------------------------------------------------------------
# sampling helpers (vectorised; used by the shrinking module)

def chart_v(Zs: np.ndarray) -> np.ndarray:
    """Batched v = sqrt(det(I + Z Z^T)) for Zs of shape (..., n, m)."""
    Zs = np.asarray(Zs, dtype=float)
    n = Zs.shape[-2]
    gram = np.eye(n) + np.einsum("...ia,...ja->...ij", Zs, Zs)
    return np.sqrt(np.linalg.det(gram))


def to_ball(s: np.ndarray) -> np.ndarray:
    """Ball coordinates w = sqrt(log1p(s^2)) of singular values s: |w|^2 = 2 log v, so {v <= b} is a ball."""
    return np.sqrt(np.log1p(np.square(s)))


def from_ball(w: np.ndarray) -> np.ndarray:
    """Singular values s = sqrt(expm1(w^2)) of ball coordinates w; inverse of `to_ball`."""
    return np.sqrt(np.expm1(np.square(w)))


def log_ball_density(u: np.ndarray, excess: int) -> np.ndarray:
    """log f at squared ball coordinates u = w^2, shape (p, ...), of chart matrices with |n - m| = excess.

    f(w) = prod_{i<j} |t_i - t_j| prod t_i^(excess/2) prod g(w_i), with t = s^2 = expm1(u) and
    g = ds/dw, is the density in w of Lebesgue measure on chart matrices once the Haar frames of
    their SVD are integrated out; log g = u + (log u - log t) / 2.  The coordinates run along the
    first axis, so each sum over them adds whole rows.  Ties and u = 0 give -inf or NaN.
    """
    t = np.expm1(u)
    i, j = np.triu_indices(u.shape[0], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = np.log(np.abs(t[i] - t[j]))
        # u + (log u + (excess - 1) log t) / 2, in place on log t
        log_t = np.log(t, out=t)
        log_t *= 0.5 * (excess - 1)
        log_t += 0.5 * np.log(u)
        log_t += u
        return np.sum(pairs, axis=0) + np.sum(log_t, axis=0)


def log_ball_envelope(p: int, excess: int, r2: float) -> float:
    """An upper bound on `log_ball_density` over the ball orthant |w|^2 <= r2 > 0.

    With t sorted so that t_1 >= ... >= t_p, prod_{i<j} (t_i - t_j) <= prod t_i^(p-i), so log f <=
    sum phi_i(u_i), where e_i = p - i + excess/2 and phi_i(u) = (e_i - 1/2) log expm1(u) + log(u)/2
    + u is concave and increasing.  For every mu the Lagrange dual mu r2 + sum_i max_u (phi_i(u) -
    mu u) bounds the maximum of that sum over sum u <= r2, and it equals the maximum where the
    maximisers u_i(mu), the roots of phi_i'(u) = mu, spend the budget: sum u_i(mu) = r2.  phi_i'
    and sum u_i(mu) are convex and decreasing, so both roots are monotone Newton solves
    (`_rising_newton`).  A term with e_i = 0 (the smallest angle when n = m) has phi' <= 3/4 < mu,
    so its maximum is phi(0+) = 0.  With at most one term of e_i > 0 (p = 1, or p = 2 with n = m)
    no root is solved: phi_1 is increasing, so the bound is phi_1(r2).  1e-9 covers rounding.
    """
    e = np.arange(p - 1, -1, -1) + 0.5 * excess

    def phi(u, e):
        return (e - 0.5) * np.log(np.expm1(u)) + 0.5 * np.log(u) + u

    if np.count_nonzero(e) <= 1:
        return float(phi(r2, e[0])) + 1e-9
    e = e[e > 0.0]

    def slope(u, mu):
        """phi_i'(u) - mu and phi_i''(u)."""
        q = -np.expm1(-u)
        return (e - 0.5) / q + 0.5 / u + 1.0 - mu, -(e - 0.5) * (1.0 - q) / (q * q) - 0.5 / (u * u)

    def roots(mu):
        # phi_i' >= e_i/u + e_i/2 + 3/4 puts the start below each root
        return _rising_newton(lambda u: slope(u, mu), e / (mu - 0.5 * e - 0.75), np.ones(e.shape, dtype=bool))

    def spent(mu):
        u = roots(mu)
        return np.sum(u) - r2, np.sum(1.0 / slope(u, mu)[1])

    # phi_1' >= e_1 + 1/2 + 1/(2u) puts u_1(mu) >= r2 at this start, below the root
    mu = float(_rising_newton(spent, np.array(e[0] + 0.5 + 0.5 / r2), np.array(True)))
    u = roots(mu)
    return mu * r2 + float(np.sum(phi(u, e) - mu * u)) + 1e-9


def _haar(G: np.ndarray) -> np.ndarray:
    """Haar orthonormal rows from p Gaussian rows G (p, N, k), one set per last index: QR, R's diagonal positive.

    Gram-Schmidt run twice, vectorised over the stack; the second pass keeps the rows orthonormal
    to rounding ("twice is enough": Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005).
    Each pass divides by positive norms, so R's diagonal is positive.
    """
    Q = G.copy()
    for _ in range(2):
        for j in range(Q.shape[0]):
            for i in range(j):
                Q[j] -= np.sum(Q[i] * Q[j], axis=0) * Q[i]
            Q[j] /= np.sqrt(np.sum(Q[j] * Q[j], axis=0))
    return Q


def sample_chart_sublevel(
    n: int, m: int, v_bound: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sample of chart matrices with v(Z) <= v_bound: Haar frames times sampled singular values.

    Lebesgue measure on N x p matrices (N = max(n, m), p = min(n, m)) splits as Haar(U) x Haar(V)
    times the density `log_ball_density` of the ball coordinates w = `to_ball`(s), and v(Z) <=
    v_bound is the ball orthant |w|^2 <= 2 log v_bound.  A proposal w is a |Gaussian| direction
    (p normals of `rng`) times the radius R U^(1/p), and a second uniform keeps it with
    probability f(w) / M, M = `log_ball_envelope`.  A kept w gets Z = U diag(s) V^T, with U
    (N x p) and V (p x p) the `_haar` frames of N + p Gaussian rows (Mezzadri, "How to generate
    random matrices from the classical compact groups", Notices AMS 54, 2007).  The uniforms and
    the frames come from two generators split off `rng` before the loop; each of the three is
    consumed row by row, so the rows returned do not depend on `rejection_sample`'s batch sizes.
    For n < m, Z is the transpose.  The accept step keeps Z only if chart_v(Z) <= v_bound, so
    every returned Z satisfies the bound as `chart_v` computes it.
    """
    if v_bound < 1.0:
        raise PreconditionViolated("v_bound must be >= 1")
    if v_bound == 1.0:
        return np.zeros((count, n, m))
    N, p = max(n, m), min(n, m)
    r2 = 2.0 * float(np.log(v_bound))
    log_envelope = log_ball_envelope(p, N - p, r2)
    coins, frames = child(rng), child(rng)

    def propose(rows: int):
        """u = w^2 (p, hits) of the proposals the envelope keeps, and the (rows,) mask of them."""
        # coordinates along the first axis, contiguous, so that sums over them add whole rows
        x2 = np.square(np.ascontiguousarray(rng.standard_normal((rows, p)).T))
        radius, coin = coins.random((rows, 2)).T
        u = x2 * (r2 * radius ** (2.0 / p) / np.sum(x2, axis=0))
        hit = log_ball_density(u, N - p) - log_envelope > np.log(coin)
        return u[:, hit], hit

    def draw(rows: int) -> np.ndarray:
        parts = [propose(min(_PROPOSAL_CHUNK, rows - i)) for i in range(0, rows, _PROPOSAL_CHUNK)]
        u = np.concatenate([part[0] for part in parts], axis=1)
        hit = np.concatenate([part[1] for part in parts])
        g = np.moveaxis(frames.standard_normal((u.shape[1], p, N + p)), 0, -1)
        Ut, Vt, s = _haar(g[:, :N]), _haar(g[:, N:]), from_ball(np.sqrt(u))
        # Z^T = V diag(s) U^T, (p, N, k)
        Zt = sum(Vt[i][:, None] * (s[i] * Ut[i])[None] for i in range(p))
        # rows the envelope rejects are marked by Z[0, 0] = NaN and hold no matrix
        Zs = np.empty((rows, n, m))
        Zs[:, 0, 0] = np.nan
        Zs[np.flatnonzero(hit)] = np.transpose(Zt, (2, 0, 1) if n < m else (2, 1, 0))
        return Zs

    def accept(Zs: np.ndarray) -> np.ndarray:
        keep = ~np.isnan(Zs[:, 0, 0])
        keep[keep] = chart_v(Zs[keep]) <= v_bound
        return keep

    return rejection_sample(count, (n, m), draw, accept)
