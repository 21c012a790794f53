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
  spanning rows) and decides when a plane is out of chart.
* Principal (Jordan) angle data is ordered by descending angle.  Aligned
  bases returned by `jordan_decompose` satisfy left_i . right_j =
  cos(theta_i) delta_ij, with the left basis positively oriented.
* Repeated angles make principal bases non-unique; whichever gauge the
  SVD returns is kept, and only gauge-invariant quantities should be
  consumed downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# not called here: perfbench/tracing.py wraps grassmann.brentq by name
from scipy.optimize import brentq  # noqa: F401

from .errors import (
    CutLocus,
    DimensionMismatch,
    InversionFailure,
    OutOfChart,
    RankDeficient,
)

ORTHO_TOL = 1e-10
CHART_TOL = 1e-12
CUT_TOL = 1e-8
# singular values at least this close to 1 are snapped to exactly 1 so that
# identical planes report exactly zero angles
_SNAP_ONE = 1.0 - 5e-15
# below this angle the principal normal direction is taken from the
# orthonormal completion instead of the ill-conditioned difference formula
_ANGLE_SPLIT = 1e-5
# Newton steps allowed to a monotone root solve (`_rising_newton`)
_NEWTON_CAP = 100


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
    def ambient(self) -> int:
        return self.n + self.m

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


def standard_plane(n: int, m: int) -> GrassmannPoint:
    """The coordinate plane spanned by the first n basis vectors."""
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

    thetas/lambdas/mus hold the p = min(n, m) possibly-nonzero angles in
    descending order; `pair_angles` repeats them padded with the n - p
    exact zeros, matching basis row order. `orientation` is the sign of
    det W folded out of the singular values.
    """
    thetas: np.ndarray
    lambdas: np.ndarray
    mus: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    orientation: float
    pair_angles: np.ndarray


def jordan_decompose(P: GrassmannPoint, Q: GrassmannPoint) -> JordanDecomposition:
    """SVD of W = P.frame Q.frame^T, angles sorted descending."""
    _check_same(P, Q)
    n, m = P.n, P.m
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
    pair_angles = np.arccos(s)
    p = min(n, m)
    mus = s[:p].copy()
    thetas = pair_angles[:p].copy()
    with np.errstate(divide="ignore"):
        lambdas = np.where(mus > 0.0, np.sqrt(np.clip(1.0 - mus**2, 0.0, 1.0)) / np.where(mus > 0.0, mus, 1.0), np.inf)
    return JordanDecomposition(
        thetas=thetas,
        lambdas=lambdas,
        mus=mus,
        left_basis=U.T @ P.frame,
        right_basis=Vh @ Q.frame,
        orientation=orientation,
        pair_angles=pair_angles,
    )


def distance(P: GrassmannPoint, Q: GrassmannPoint) -> float:
    """Angle-sum distance sqrt(sum theta_i^2)."""
    return float(np.linalg.norm(jordan_decompose(P, Q).pair_angles))


def v_value(P: GrassmannPoint, P0: GrassmannPoint) -> float:
    """v(P, P0) = 1 / w(P, P0) = prod sec(theta_a); requires w > 0."""
    w = w_pairing(P, P0)
    if w <= CHART_TOL:
        raise OutOfChart(f"w(P, P0) = {w:.3e} <= 0; v undefined")
    return 1.0 / w


def from_chart(Z: np.ndarray, P0: GrassmannPoint) -> GrassmannPoint:
    """Plane spanned by rows of (I | Z) in P0's adapted basis."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (P0.n, P0.m):
        raise DimensionMismatch(f"Z must be {P0.n} x {P0.m}, got {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise DimensionMismatch("chart matrix has non-finite entries")
    rows = P0.frame + Z @ P0.normal_frame
    return GrassmannPoint(_orthonormalize_rows(rows))


def chart_stack(R: np.ndarray, P0: GrassmannPoint, vol) -> tuple[np.ndarray, np.ndarray]:
    """Chart matrices around P0 of the planes spanned by a (..., n, n+m) stack of rows R, and w.

    The rows need not be orthonormal: `vol` is sqrt(det(R R^T)) per plane (1
    for orthonormal frames), so w = det(R P0^T) / vol is the pairing w(P, P0),
    and Z = (R P0^T)^{-1} R N0^T with N0 the normal frame of P0.  Raises
    OutOfChart, naming how many planes fail, unless every w > CHART_TOL.
    """
    A = R @ P0.frame.T
    w = np.linalg.det(A) / vol
    out = w <= CHART_TOL
    if np.any(out):
        raise OutOfChart(f"{int(np.sum(out))} plane(s) outside the chart of P0 (w <= 0)")
    return np.linalg.solve(A, R @ P0.normal_frame.T), w


def to_chart(P: GrassmannPoint, P0: GrassmannPoint) -> np.ndarray:
    """Chart matrix of P around P0; inverse of `from_chart`."""
    _check_same(P, P0)
    return chart_stack(P.frame, P0, 1.0)[0]


def geodesic(Q: GrassmannPoint, P1: GrassmannPoint, t: float) -> GrassmannPoint:
    """Point at arc length t on the normal geodesic from Q towards P1.

    Each principal pair is rotated by theta_a * t / L, L = distance(Q, P1);
    the standard parameter range is t in [0, L] but any real t evaluates the
    same rotation formula. Raises CutLocus when an angle reaches pi/2 or the
    target orientation is reversed (no minimal in-chart geodesic).
    """
    dec = jordan_decompose(Q, P1)
    if dec.orientation <= 0.0:
        raise CutLocus("target plane is orientation-reversed; no minimal in-chart geodesic")
    angles = dec.pair_angles
    if np.any(angles >= np.pi / 2 - CUT_TOL):
        raise CutLocus("a principal angle reaches pi/2")
    L = float(np.linalg.norm(angles))
    if L == 0.0:
        return GrassmannPoint(dec.left_basis)
    left, right = dec.left_basis, dec.right_basis
    sines = np.sin(angles)
    u = np.zeros_like(left)
    rot = sines > 0.0
    u[rot] = (right[rot] - np.cos(angles[rot])[:, None] * left[rot]) / sines[rot][:, None]
    s = angles * (t / L)
    rows = np.cos(s)[:, None] * left + np.sin(s)[:, None] * u
    return GrassmannPoint(rows)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at `base`, as components in an orthonormal coframe."""
    base: GrassmannPoint
    coeffs: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class AdaptedFrames:
    """Frames at P aligned with the principal directions towards P0.

    tangent[c] pairs with normal[c]; the pair carries lambdas[c] = tan of
    the c-th principal angle (zero-padded past min(n, m)).
    """
    tangent: np.ndarray   # (n, n+m) rows spanning P
    normal: np.ndarray    # (m, n+m) rows spanning the complement
    lambdas: np.ndarray   # (m,)


def adapted_frames(P: GrassmannPoint, P0: GrassmannPoint) -> AdaptedFrames:
    """Singular-value-adapted tangent/normal frames of P relative to P0."""
    dec = jordan_decompose(P, P0)
    n, m = P.n, P.m
    p = min(n, m)
    tangent = dec.left_basis
    slot_angle = np.zeros(m)
    slot_angle[:p] = dec.thetas
    formula = [c for c in range(p) if dec.thetas[c] > _ANGLE_SPLIT]
    normal = np.zeros((m, n + m))
    for c in formula:
        normal[c] = (dec.right_basis[c] - dec.mus[c] * tangent[c]) / np.sin(dec.thetas[c])
    known = np.vstack([tangent] + [normal[c][None, :] for c in formula])
    q, _ = np.linalg.qr(known.T, mode="complete")
    pool = q[:, known.shape[0]:].T
    take = 0
    for c in range(m):
        if c < p and c in formula:
            continue
        normal[c] = pool[take]
        take += 1
    return AdaptedFrames(tangent=tangent, normal=normal, lambdas=np.tan(slot_angle))


def hessian_v(P: GrassmannPoint, P0: GrassmannPoint) -> np.ndarray:
    """Hessian of v(., P0) at P as an (nm) x (nm) matrix.

    The basis is the orthonormal coframe attached to `adapted_frames(P, P0)`,
    slot (i, a) flattened row-major to i*m + a.  Entry pattern: v on every
    mixed slot, (1 + 2 lambda_a^2) v on the diagonal slots (a, a), couplings
    lambda_a lambda_b v between (a,a)-(b,b) and between (a,b)-(b,a).
    """
    v = v_value(P, P0)
    n, m = P.n, P.m
    lam = adapted_frames(P, P0).lambdas
    p = min(n, m)
    M = v * np.eye(n * m)
    idx = lambda i, a: i * m + a
    for c in range(p):
        M[idx(c, c), idx(c, c)] = (1.0 + 2.0 * lam[c] ** 2) * v
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            M[idx(a, a), idx(b, b)] = lam[a] * lam[b] * v
            M[idx(a, b), idx(b, a)] = lam[a] * lam[b] * v
    return M


def geodesic_velocity(Q: GrassmannPoint, P1: GrassmannPoint, frames: AdaptedFrames) -> TangentVector:
    """Unit initial velocity of the geodesic Q -> P1, in `frames` components.

    coeffs[i, a] is the pairing of the moving-frame derivative with
    frames.normal[a] when the moving frame starts at frames.tangent.
    """
    dec = jordan_decompose(Q, P1)
    if dec.orientation <= 0.0 or np.any(dec.pair_angles >= np.pi / 2 - CUT_TOL):
        raise CutLocus("no minimal in-chart geodesic towards P1")
    angles = dec.pair_angles
    L = float(np.linalg.norm(angles))
    if L == 0.0:
        return TangentVector(Q, np.zeros((Q.n, Q.m)))
    sines = np.sin(angles)
    vel = np.zeros_like(dec.left_basis)
    rot = sines > 0.0
    vel[rot] = (angles[rot] / L)[:, None] * (
        (dec.right_basis[rot] - np.cos(angles[rot])[:, None] * dec.left_basis[rot]) / sines[rot][:, None]
    )
    R = frames.tangent @ dec.left_basis.T
    return TangentVector(Q, R @ (vel @ frames.normal.T))


def in_bjx(P: GrassmannPoint, P0: GrassmannPoint) -> bool:
    """True iff every pairwise sum of principal angles to P0 is below pi/2."""
    dec = jordan_decompose(P, P0)
    if dec.thetas.size == 1:
        return bool(dec.thetas[0] < np.pi / 2)
    return bool(dec.thetas[0] + dec.thetas[1] < np.pi / 2)


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
        # rows with F = F' = 0 step to NaN, which never counts as a rise
        with np.errstate(invalid="ignore"):
            step = x - f / df
        active = active & (step > x)
        x = np.where(active, step, x)
    if np.any(active):
        raise InversionFailure(f"Newton root not settled after {_NEWTON_CAP} steps")
    return x


def t_embedding_inverse(y: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of `t_embedding` on a stack: (..., nm) -> (..., n, m).

    With D = y / |y| and sigma the singular values of D, v(t D)^2 =
    prod(1 + t^2 sigma_i^2), so u = t^2 solves
    F(u) = sum log1p(u sigma_i^2) - 2 log1p(|y|) = 0.  F is concave and
    increasing with F(0) <= 0, so Newton from u = 0 (`_rising_newton`)
    rises monotonically to the root; zero rows map to 0.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (n * m,):
        raise DimensionMismatch(f"expected vectors of length {n * m}, got shape {y.shape}")
    # the row-times-column dot is the one np.linalg.norm takes of a vector
    ny = np.sqrt((y[..., None, :] @ y[..., :, None])[..., 0, 0])
    direction = (y / np.where(ny > 0.0, ny, 1.0)[..., None]).reshape(y.shape[:-1] + (n, m))
    s2 = np.linalg.svd(direction, compute_uv=False) ** 2
    target = 2.0 * np.log1p(ny)

    def residual(u):
        us2 = u[..., None] * s2
        return np.sum(np.log1p(us2), axis=-1) - target, np.sum(s2 / (1.0 + us2), axis=-1)

    u = _rising_newton(residual, np.zeros_like(ny), ny > 0.0)
    return np.sqrt(u)[..., None, None] * direction


def geodesic_fraction(thetas: np.ndarray, log_v: float) -> np.ndarray:
    """Fraction s in [0, 1) of the normal geodesic Q -> P1 where log v(., P1) falls to `log_v`.

    `thetas` (..., p) are the angles from Q to P1, so log v = log_volume(tan^2(theta (1 - s))) is
    convex and decreasing in s; Newton rises from s = 0, and a row already at or below stays at 0.
    """
    thetas = np.asarray(thetas, dtype=float)

    def residual(s):
        t = np.tan(thetas * (1.0 - s)[..., None])
        return log_volume(t * t) - log_v, -np.sum(thetas * t, axis=-1)

    s = np.zeros(thetas.shape[:-1])
    return _rising_newton(residual, s, np.ones(s.shape, dtype=bool))


# ---------------------------------------------------------------------------
# sampling helpers (vectorised; used by the shrinking module and the tests)

def random_point(n: int, m: int, rng: np.random.Generator) -> GrassmannPoint:
    """Haar-ish random oriented plane from a Gaussian row span."""
    return GrassmannPoint(_orthonormalize_rows(rng.standard_normal((n, n + m))))


def chart_v(Zs: np.ndarray) -> np.ndarray:
    """Batched v = sqrt(det(I + Z Z^T)) for Zs of shape (..., n, m)."""
    Zs = np.asarray(Zs, dtype=float)
    n = Zs.shape[-2]
    gram = np.eye(n) + np.einsum("...ia,...ja->...ij", Zs, Zs)
    return np.sqrt(np.linalg.det(gram))


def chart_thetas(Zs: np.ndarray) -> np.ndarray:
    """Batched principal angles to the chart center: arctan of singular values."""
    return np.arctan(np.linalg.svd(np.asarray(Zs, dtype=float), compute_uv=False))


def sample_chart_sublevel(
    n: int, m: int, v_bound: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Rejection-sample chart matrices with v(Z) <= v_bound, uniform in the box.

    The box |Z_ij| <= sqrt(v_bound^2 - 1) contains the whole sublevel set,
    so rejection sampling covers it without needing the invariant measure.
    Since det(I + Z Z^T) = prod(1 + s_i^2) >= 1 + |Z|_F^2, a draw with
    1 + |Z|_F^2 > v_bound^2 lies outside; such draws are dropped before
    `chart_v` runs, with a relative margin of 1e-9 that keeps every draw
    `chart_v` would accept.
    """
    if v_bound < 1.0:
        raise ValueError("v_bound must be >= 1")
    half = float(np.sqrt(max(v_bound * v_bound - 1.0, 0.0)))
    if half == 0.0:
        return np.zeros((count, n, m))
    norm_bound = v_bound * v_bound * (1.0 + 1e-9)
    out = np.empty((count, n, m))
    filled = 0
    rate = 0.25
    while filled < count:
        draw = int(min(2_000_000, max(1024, 1.2 * (count - filled) / rate)))
        Zs = rng.uniform(-half, half, size=(draw, n, m))
        Zs = Zs[1.0 + np.einsum("kia,kia->k", Zs, Zs) <= norm_bound]
        keep = Zs[chart_v(Zs) <= v_bound]
        rate = max(keep.shape[0] / draw, 1e-3)
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out
