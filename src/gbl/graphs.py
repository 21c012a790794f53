"""Geometry of explicit graphs (x, f(x)) in R^(n+m).

Computes the induced metric, slope, tangent-plane (Gauss) map, second
fundamental form in singular-value-adapted frames, and mean curvature, and
cross-validates the closed-form Laplacian of the volume-distortion function
against an independent divergence-form finite-difference operator.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import certifier, grassmann
from .errors import DimensionMismatch, OutOfDomain, UnknownName
from .rng import rejection_sample, substream


@dataclass(frozen=True)
class GraphImmersion:
    """Explicit map f: R^n -> R^m with exact first and second derivatives.

    Every callable works on stacks of points: for x of shape (..., n),
    eval_fn returns (..., m), jac_fn (..., m, n), hess_fn (..., m, n, n) and
    excluded(x, margin) a boolean array of shape (...).  One point is the
    stack of shape (n,).  An immersion written for a single point must be
    rewritten to broadcast; there is no per-point fallback.  A derivative
    that does not depend on x may return one shared read-only array for one
    point (`_constant`), so a caller must not write into what jac and hess
    return.

    The margin contract: a point x not excluded at margin r has no point
    within distance r of it excluded at margin 0 (up to rounding, of order
    eps (|x| + r)).  The finite-difference Laplacian relies on it: it checks
    x at margin 2 step, and of its stencil, every point of which lies within
    sqrt(2) step of x, only that it is finite.
    """
    n: int
    m: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    # (x, margin) -> bool (...), keeping the margin contract: the FD Laplacian does not check its
    # stencil against it, so an `excluded` that ignores margin lets the FD evaluate excluded points
    excluded: Callable[[np.ndarray, float], np.ndarray] | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise DimensionMismatch(f"need 1 <= m <= n, got n={self.n}, m={self.m}")

    def f(self, x) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=float)

    def jac(self, x) -> np.ndarray:
        return np.asarray(self.jac_fn(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        return np.asarray(self.hess_fn(np.asarray(x, dtype=float)), dtype=float)

    def contains(self, x, margin: float = 0.0):
        """Domain membership: a bool for one point, a bool array (...) for a stack.

        Points with a non-finite coordinate are outside, and so is anything
        that is not a stack of n-vectors.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            return False
        inside = np.isfinite(x).all(axis=-1)         # a numpy bool for one point
        if self.excluded is not None:
            inside &= np.logical_not(self.excluded(x, margin))
        return bool(inside) if x.ndim == 1 else inside

    def require(self, x, margin: float = 0.0) -> np.ndarray:
        """x as a float array, or OutOfDomain naming its first point outside the domain."""
        x = np.asarray(x, dtype=float)
        inside = self.contains(x, margin)
        if inside is True or (inside is not False and inside.all()):
            return x
        bad = x if inside is False else x[~inside][0]
        raise OutOfDomain(f"{self.name}: point {bad} outside domain (margin {margin})")


def _validate_derivatives(G: GraphImmersion, points) -> None:
    """Central-difference sanity check that jac/hess really differentiate eval, to 1e-6 (hess: 50
    times that) times the largest derivative entry or 1.

    The 2n displaced copies of a point go through G as one stack, so this
    also checks that the immersion broadcasts.
    """
    h = 1e-5
    steps = h * np.eye(G.n)
    for x in points:
        x = np.asarray(x, dtype=float)
        J = G.jac(x)
        Hf = G.hess(x)
        scale = max(1.0, np.abs(J).max(), np.abs(Hf).max())
        dj = (G.f(x + steps) - G.f(x - steps)) / (2 * h)            # (n, m): row i is d/dx_i
        dh = (G.jac(x + steps) - G.jac(x - steps)) / (2 * h)        # (n, m, n)
        jac_err = np.abs(dj - J.T).max(axis=1)
        hess_err = np.abs(dh - np.moveaxis(Hf, -1, 0)).max(axis=(1, 2))
        for i in range(G.n):
            if jac_err[i] > 1e-6 * scale:
                raise DimensionMismatch(f"{G.name}: jac mismatch at {x} axis {i}")
            if hess_err[i] > 50 * 1e-6 * scale:
                raise DimensionMismatch(f"{G.name}: hess mismatch at {x} axis {i}")


def _constant(value: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A derivative that does not depend on x: the read-only `value` itself for one point, and a
    read-only broadcast of it over a stack."""
    return value if x.ndim == 1 else np.broadcast_to(value, x.shape[:-1] + value.shape)


def affine_graph(A: np.ndarray, b: np.ndarray | None = None) -> GraphImmersion:
    A = np.array(A, dtype=float)        # a copy, read-only below: one point's jac is A itself
    m, n = A.shape
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    zero = np.zeros((m, n, n))
    for arr in (A, zero):
        arr.flags.writeable = False
    return GraphImmersion(
        n=n,
        m=m,
        eval_fn=lambda x: x @ A.T + b,
        jac_fn=functools.partial(_constant, A),
        hess_fn=functools.partial(_constant, zero),
        name="affine",
    )


def holomorphic_pair() -> GraphImmersion:
    """Minimal 3 -> 2 graph (x1^2 - x2^2, 2 x1 x2), invariant in x3."""
    H = np.zeros((2, 3, 3))
    H[0, 0, 0], H[0, 1, 1] = 2.0, -2.0
    H[1, 0, 1] = H[1, 1, 0] = 2.0
    H.flags.writeable = False

    def f(x):
        return np.stack([x[..., 0] ** 2 - x[..., 1] ** 2, 2.0 * x[..., 0] * x[..., 1]], axis=-1)

    def jac(x):
        out = np.zeros(x.shape[:-1] + (2, 3))
        out[..., 0, 0] = out[..., 1, 1] = 2.0 * x[..., 0]
        out[..., 0, 1] = -2.0 * x[..., 1]
        out[..., 1, 0] = 2.0 * x[..., 1]
        return out

    return GraphImmersion(3, 2, f, jac, functools.partial(_constant, H), name="holomorphic_pair")


# quadratic forms of the unit-sphere Hopf fibration S^3 -> S^2
_HOPF_Q = np.zeros((3, 4, 4))
_HOPF_Q[0] = np.diag([1.0, 1.0, -1.0, -1.0])
_HOPF_Q[1, 1, 2] = _HOPF_Q[1, 2, 1] = 1.0
_HOPF_Q[1, 0, 3] = _HOPF_Q[1, 3, 0] = -1.0
_HOPF_Q[2, 0, 2] = _HOPF_Q[2, 2, 0] = 1.0
_HOPF_Q[2, 1, 3] = _HOPF_Q[2, 3, 1] = 1.0
_HOPF_2Q = 2.0 * _HOPF_Q
_EYE4 = np.eye(4)


def lawson_osserman() -> GraphImmersion:
    """The minimal cone graph (sqrt(5)/2) |x| eta(x/|x|), eta the Hopf map.

    eta is quadratic, so f = (sqrt(5)/2) eta(x)/|x| away from the origin,
    with analytic first and second derivatives.
    """
    c = math.sqrt(5.0) / 2.0

    def radius(x):
        # what np.linalg.norm(x, axis=-1) computes, bit for bit, without its dispatch
        return np.sqrt(np.add.reduce(x * x, axis=-1))

    def eta(x):
        return np.einsum("aij,...i,...j->...a", _HOPF_Q, x, x)

    def deta(x):
        # bitwise 2 einsum(Q, x): doubling is exact, and both sums run in the same order
        return np.einsum("aij,...j->...ai", _HOPF_2Q, x)

    def f(x):
        return c * eta(x) / radius(x)[..., None]

    def jac(x):
        r = radius(x)[..., None, None]
        return c * (deta(x) / r - eta(x)[..., :, None] * x[..., None, :] / r**3)

    def hess(x):
        r = radius(x)[..., None, None, None]
        r3 = r**3
        e = eta(x)[..., :, None, None]
        de = deta(x)
        xi, xj = x[..., None, :, None], x[..., None, None, :]
        out = _HOPF_2Q / r
        out -= (de[..., :, :, None] * xj + de[..., :, None, :] * xi) / r3
        out -= e * _EYE4 / r3
        out += 3.0 * (e * xi * xj) / r**5
        out *= c
        return out

    return GraphImmersion(
        4, 3, f, jac, hess,
        excluded=lambda x, margin: radius(x) < 1e-6 + margin,
        name="lawson_osserman",
    )


def builtin(name: str) -> GraphImmersion:
    """Named test immersions: affine, holomorphic_pair, lawson_osserman."""
    if name == "affine":
        G = affine_graph(np.array([[0.5, -0.25, 0.0], [0.1, 0.3, -0.2]]))
    elif name == "holomorphic_pair":
        G = holomorphic_pair()
    elif name == "lawson_osserman":
        G = lawson_osserman()
    else:
        raise UnknownName(f"no builtin immersion named {name!r}")
    pts = _probe_points(G)
    _validate_derivatives(G, pts)
    return G


def _probe_points(G: GraphImmersion):
    base = np.linspace(0.3, 0.9, G.n)
    alt = np.array([(-1.0) ** i * (0.4 + 0.1 * i) for i in range(G.n)])
    return [base, alt]


def _derivative(rows, i: int) -> list:
    """d/dx_i of a monomial sum given as (coeff, multiplier, exponents) rows; the integer
    multiplier collects the exponents brought down, so coeff * multiplier is one rounding."""
    out = []
    for c, k, e in rows:
        if e[i]:
            shifted = list(e)
            shifted[i] -= 1
            out.append((c, k * e[i], tuple(shifted)))
    return out


def _evaluate(entries, shape: tuple, x: np.ndarray) -> np.ndarray:
    """The monomial sums `entries` (one list of rows per entry, row-major over shape) at the
    points x (..., n), shape (...) + shape; each entry adds its rows in order."""
    out = np.zeros(x.shape[:-1] + (len(entries),))
    for k, rows in enumerate(entries):
        for c, mult, e in rows:
            val = np.full(x.shape[:-1], c * mult)
            for i, p in enumerate(e):
                if p:
                    val = val * x[..., i] ** p
            out[..., k] += val
    return out.reshape(x.shape[:-1] + shape)


def polynomial_graph(n: int, m: int, components) -> GraphImmersion:
    """Graph whose components are monomial sums; derivatives are symbolic.

    `components` is a length-m list; each entry is a list of (coeff, exponents)
    with a finite coeff and exponents a length-n tuple of nonnegative integers.
    The tables of f, Df and D^2 f are built once by `_derivative`, and
    `_evaluate` reads each of them.
    """
    comps = []
    for comp in components:
        rows = []
        for coeff, exps in comp:
            try:
                coeff, exps = float(coeff), tuple(float(e) for e in exps)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DimensionMismatch(f"malformed graph spec: {exc}") from exc
            if not math.isfinite(coeff):
                raise DimensionMismatch(f"malformed graph spec: coefficient {coeff} is not finite")
            if len(exps) != n or not all(e.is_integer() and e >= 0 for e in exps):
                raise DimensionMismatch(f"malformed graph spec: bad exponent tuple {exps}")
            rows.append((coeff, 1, tuple(map(int, exps))))
        comps.append(rows)
    first = [_derivative(rows, i) for rows in comps for i in range(n)]
    second = [_derivative(rows, j) for rows in first for j in range(n)]

    G = GraphImmersion(
        n, m,
        functools.partial(_evaluate, comps, (m,)),
        functools.partial(_evaluate, first, (m, n)),
        functools.partial(_evaluate, second, (m, n, n)),
        name="polynomial",
    )
    _validate_derivatives(G, _probe_points(G))
    return G


def graph_from_spec(spec: dict) -> GraphImmersion:
    """Ingest the JSON graph description: {"name": id} or monomial components."""
    if isinstance(spec, dict) and "name" in spec:
        return builtin(spec["name"])
    try:
        n = int(spec["n"])
        m = int(spec["m"])
        comps = [
            [(mono["coeff"], mono["exponents"]) for mono in comp["monomials"]]
            for comp in spec["components"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed graph spec: {exc}") from exc
    # the CLI's dimension bound (GraphImmersion asks m <= n): the FD Laplacian's
    # (2n^2+2n+1) x n x n metric batch took `gbl graph` to 6.5 GB at n = 120
    if n > 16:
        raise DimensionMismatch(f"a graph spec needs n <= 16, got {n}")
    if len(comps) != m:
        raise DimensionMismatch(f"expected {m} components, got {len(comps)}")
    return polynomial_graph(n, m, comps)


# ---------------------------------------------------------------------------
# pointwise geometry

@dataclass(frozen=True)
class PointGeometry:
    """The pointwise geometry of a graph at x; the mean curvature is read off `h`, and the metric
    and the Gauss plane are built from `jac`, when first read."""
    slope: float
    jac: np.ndarray                # (m, n) Df
    lambdas: np.ndarray            # (m,) singular values of Df, descending
    h: np.ndarray                  # (m, n, n) adapted-frame second fundamental form, symmetric
    norm_b2: float

    @functools.cached_property
    def mean_h(self) -> np.ndarray:
        """The mean curvature vector in the adapted normal frame, the traces h_{a,ii}, shape (m,)."""
        return np.einsum("aii->a", self.h)

    @functools.cached_property
    def g(self) -> np.ndarray:
        """The induced metric I + Df^T Df."""
        return _metric(self.jac)

    @functools.cached_property
    def gauss(self) -> grassmann.GrassmannPoint:
        """The tangent plane, the orthonormalized rows (I | Df^T); one QR on first access."""
        # (I | Df^T) has singular values >= 1, so it needs no rank check
        return grassmann.GrassmannPoint(grassmann._orthonormalize_rows(_tangent_rows(self.jac)))


def point_geometry(G: GraphImmersion, x) -> PointGeometry:
    """All pointwise quantities in the base-plane frames of `_adapted_second_form`.

    Takes one Jacobian and one Hessian and orthonormalizes nothing: the Gauss
    plane is built only if `PointGeometry.gauss` is read.  The slope is
    prod sqrt(1 + lambda^2), since det(I + Df^T Df) = prod (1 + s^2) over the
    singular values s of Df.  Repeated singular values keep whatever gauge
    the SVD returns, so only gauge-invariant outputs should be compared
    across points.
    """
    x = G.require(x)
    J = G.jac(x)
    lambdas, h = _adapted_second_form(J, G.hess(x))
    return PointGeometry(
        slope=float(certifier.profile_v(lambdas)),
        jac=J,
        lambdas=lambdas,
        h=h,
        # bitwise np.sum(h**2): h is contiguous, so both are one pairwise sum
        norm_b2=float(np.add.reduce((h * h).ravel())),
    )


def _adapted_second_form(J: np.ndarray, Hf: np.ndarray, P0: grassmann.GrassmannPoint | None = None):
    """Lambdas and second fundamental form h of one point in the adapted frames of its Gauss plane.

    Around the base plane (P0 = None) the chart is Df^T = V diag(s) U^T in the
    coordinate frames (`grassmann.chart_svd`): tangent rows (V_i, s_i U_i) /
    sqrt(1 + s_i^2), normal rows (-s_a V_a, U_a) / sqrt(1 + s_a^2), of which
    h reads only the blocks V^T and U^T.  Around another P0 they are the
    `grassmann.chart_frames` of the `grassmann.chart_stack` of the rows
    (I | Df^T), which raises OutOfChart unless w(gauss, P0) > 0.  h_{a,ij}
    pairs normal a with (0, D^2 f) at the coordinate parts of tangents i and
    j; h is returned as an (m, n, n) array symmetrised in (i, j).
    """
    m, n = J.shape
    if P0 is None:
        # a graph has m <= n, so Df has m singular values and no normal row is unpaired
        tangent, lambdas, normal = grassmann.chart_svd(J.T)
        scale_n = 1.0 / np.sqrt(1.0 + lambdas**2)
        scale_t = np.ones(n)                # tangents past m have scale 1
        scale_t[:m] = scale_n
        normal = normal.T
    else:
        Z = grassmann.chart_stack(_tangent_rows(J), P0, np.sqrt(np.linalg.det(_metric(J))))[0]
        rows, scale, lambdas = grassmann.chart_frames(Z)
        rows = rows @ np.vstack([P0.frame, P0.normal_frame])
        tangent, normal, scale_t, scale_n = rows[:n, :n], rows[n:, n:], scale[:n], scale[n:]
    # contiguous, the three-operand einsum below runs about twice as fast
    coords = np.ascontiguousarray(tangent)
    D2 = np.einsum("bkl,ik,jl->bij", Hf, coords, coords)
    h_raw = np.einsum("ab,bij->aij", normal, D2)
    h_raw *= scale_n[:, None, None]
    h_raw *= scale_t[:, None]
    h_raw *= scale_t
    h = h_raw + h_raw.transpose(0, 2, 1)
    h *= 0.5
    return lambdas, h


def _metric(J: np.ndarray) -> np.ndarray:
    """Induced metric g = I + Df^T Df of an (..., m, n) stack of Jacobians."""
    return np.eye(J.shape[-1]) + np.swapaxes(J, -1, -2) @ J


def _flux_coefficients(g: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """vol g^{-1} over a stack of metrics with volume elements vol = sqrt(det g): the
    divergence-form coefficients."""
    return vol[..., None, None] * np.linalg.inv(g)


def _tangent_rows(J: np.ndarray) -> np.ndarray:
    """(I | Df^T), shape (..., n, n+m): rows spanning each Gauss plane of the stack."""
    n = J.shape[-1]
    eye = np.broadcast_to(np.eye(n), J.shape[:-2] + (n, n))
    return np.concatenate([eye, np.swapaxes(J, -1, -2)], axis=-1)


def graph_v(G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None) -> np.ndarray:
    """v(gauss(x), P0) at each point of an (..., n) stack, shape (...), without frames.

    P0 = None means the base plane, where v is the volume element
    sqrt(det(I + Df^T Df)); otherwise v = 1 / w with w the pairing of the
    rows (I | Df^T) with P0 (`_v_from_jacobians`).
    """
    x = G.require(x)
    J = G.jac(x)
    return _v_from_jacobians(J, np.sqrt(np.linalg.det(_metric(J))), P0)


def _v_from_jacobians(J: np.ndarray, vol: np.ndarray, P0: grassmann.GrassmannPoint | None) -> np.ndarray:
    """v(gauss, P0) over a stack of Jacobians J with volume elements vol = sqrt(det g).

    At the base plane v is vol; otherwise v = 1 / w, w the
    `grassmann._chart_pairing` of the rows (I | Df^T) with P0, which raises
    OutOfChart unless every w > 0.  No chart matrix is solved for.
    """
    if P0 is None:
        return vol
    return 1.0 / grassmann._chart_pairing(_tangent_rows(J), P0, vol)[1]


def laplacian_v_closed_form(
    G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None
) -> float:
    """Closed-form Delta of v(gauss(.), P0) along the graph at x.

    Assumes the immersion has parallel mean curvature (the builtins are
    minimal).  P0 = None means the base coordinate plane; every P0 takes its
    frames from `_adapted_second_form`.
    """
    x = G.require(x)
    lambdas, h = _adapted_second_form(G.jac(x), G.hess(x), P0)
    return float(certifier.laplacian_v_batch(lambdas, h))


@functools.lru_cache(maxsize=None)
def _fd_stencil(n: int):
    """Index bookkeeping of the divergence-form stencil in dimension n.

    Returns the 2n^2 + 1 distinct integer offsets (row 0 the centre), the
    index arrays a, b, c, d of shape (2, n, n), the diagonal mask and the
    2n half-step directions (e_i, then -e_i).  For the half-step
    x + s (step/2) e_i, s = +1 then -1, the gradient component j is
    (u[a] - u[b]) / step when j == i and (u[a] - u[b] + u[c] - u[d]) /
    (4 step) otherwise, u being the values at x + step * offsets.
    """
    eye = np.eye(n, dtype=int)
    zero = np.zeros(n, dtype=int)
    offsets = {tuple(zero): 0}

    def index(offset) -> int:
        return offsets.setdefault(tuple(offset), len(offsets))

    abcd = np.zeros((4, 2, n, n), dtype=np.intp)
    for s, side in enumerate((1, -1)):
        for i in range(n):
            base = side * eye[i]
            for j in range(n):
                if j == i:
                    pair = (base, zero) if side > 0 else (zero, base)
                    abcd[:, s, i, j] = [index(pair[0]), index(pair[1]), 0, 0]
                else:
                    abcd[:, s, i, j] = [index(base + eye[j]), index(base - eye[j]),
                                        index(eye[j]), index(-eye[j])]
    table = np.array(list(offsets), dtype=float)
    diag = np.eye(n, dtype=bool)
    halves = np.concatenate([np.eye(n), -np.eye(n)])
    for arr in (table, abcd, diag, halves):
        arr.flags.writeable = False    # shared by every call through the cache
    return table, abcd, diag, halves


def laplacian_v_finite_difference(
    G: GraphImmersion,
    x,
    P0: grassmann.GrassmannPoint | None = None,
    step: float = 1e-3,
) -> float:
    """Divergence-form finite-difference Laplacian of u = v(gauss(.), P0).

    Conservative second-order scheme: fluxes sqrt(det g) g^{ij} du/dx^j are
    evaluated at half-steps, cross derivatives by averaged central
    differences.  The 2n^2 + 1 stencil points (row 0 the centre) and the 2n
    half-steps take one batched Jacobian and one batch of metrics: the
    stencil values of v come from `_v_from_jacobians`, as in `graph_v`, the
    half-steps give the flux coefficients, and the centre the volume
    element that divides the divergence.

    x is checked at margin 2 step, which by the margin contract of
    `GraphImmersion` keeps every stencil point in the domain; the stencil is
    checked only for finiteness, which a huge x or step can break.
    """
    x = G.require(x, margin=2.0 * step)
    n = G.n
    offsets, (a, b, c, d), diag, halves = _fd_stencil(n)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.concatenate([x + step * offsets, x + (0.5 * step) * halves])
    if not np.isfinite(pts).all():
        raise OutOfDomain(f"{G.name}: the stencil of {x} at step {step} leaves the finite range")
    size = len(offsets)
    J = G.jac(pts)
    g = _metric(J)
    vol = np.sqrt(np.linalg.det(g))
    u = _v_from_jacobians(J[:size], vol[:size], P0)
    first = u[a] - u[b]
    grad = np.where(diag, first / step, (first + u[c] - u[d]) / (4.0 * step))   # (2, n, n)

    coeff = _flux_coefficients(g[size:], vol[size:]).reshape(2, n, n, n)
    flux = np.vecdot(coeff[:, diag], grad)                  # (2, n): row i at half-step (s, i), times grad
    total = np.add.reduce((flux[0] - flux[1]) / step)
    return float(total / vol[0])


def ellipticity_check(
    G: GraphImmersion,
    center,
    radius: float,
    samples: int = 512,
    seed: int = 0,
) -> tuple[float, float]:
    """Extremal eigenvalues of sqrt(det g) g^{-1} over a sampled ball.

    When the slope stays below beta0 on the region, the ratios lie in
    [1/beta0, beta0]; slope <= 3 gives the universal window [1/3, 3].
    The points are uniform in the ball, restricted to the domain by
    `rng.rejection_sample`: the first n coordinates of a uniform point on
    the unit sphere in R^(n+2) are uniform in the unit ball.
    """
    center = np.asarray(center, dtype=float)
    rng = substream(seed, 11)

    def draw(rows: int) -> np.ndarray:
        g = rng.standard_normal((rows, G.n + 2))
        return center + radius * g[:, : G.n] / np.linalg.norm(g, axis=1)[:, None]

    ys = rejection_sample(samples, (G.n,), draw, G.contains)
    g = _metric(G.jac(ys))
    A = _flux_coefficients(g, np.sqrt(np.linalg.det(g)))
    eigs = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return float(eigs[:, 0].min(initial=math.inf)), float(eigs[:, -1].max(initial=-math.inf))


@functools.lru_cache(maxsize=None)
def _cube_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Legendre nodes (order^n, n) and weights on the cube [-1, 1]^n."""
    def grid(axis):
        return np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=-1)

    nodes1d, weights1d = np.polynomial.legendre.leggauss(order)
    nodes, wts = grid(nodes1d), np.prod(grid(weights1d), axis=-1)
    for arr in (nodes, wts):
        arr.flags.writeable = False    # shared by every call through the cache
    return nodes, wts


def mean_gauss_image(G: GraphImmersion, center, radius: float, order: int = 8) -> grassmann.GrassmannPoint:
    """Riemannian mean of the Gauss map over a domain ball, via the radial embedding around the
    base plane P0.

    Tensor-product Gauss-Legendre nodes on the bounding cube (`_cube_rule`,
    built once per (n, order)) restricted to the ball, weighted by the
    volume element sqrt(det g); the embedded mean is pulled back through the
    inverse embedding.  Convexity of balls under
    the embedding guarantees v(mean, P0) <= sup v over the nodes.  All nodes
    go through one batched Jacobian and one `grassmann.chart_stack` of the
    rows R = (I | Df^T), whose volume element is sqrt(det(R R^T)) = sqrt(det g).
    """
    center = np.asarray(center, dtype=float)
    P0 = grassmann.standard_plane(G.n, G.m)
    nodes, wts = _cube_rule(G.n, order)
    pts = nodes * radius
    inside = np.linalg.norm(pts, axis=1) <= radius
    ys = center + pts[inside]
    in_domain = G.contains(ys)
    ys, wts = ys[in_domain], wts[inside][in_domain]
    J = G.jac(ys)
    vol = np.sqrt(np.linalg.det(_metric(J)))
    Z = grassmann.chart_stack(_tangent_rows(J), P0, vol)[0]
    wv = wts * vol
    # the weights ride as one more column so that both totals add the nodes
    # in the same order (a 1-D sum would pair its terms instead)
    totals = np.sum(np.concatenate([wv[:, None] * grassmann.t_embedding(Z), wv[:, None]], axis=1), axis=0)
    total_w = totals[-1]
    if total_w <= 0.0:
        raise OutOfDomain("no quadrature nodes inside the domain ball")
    Zbar = grassmann.t_embedding_inverse(totals[:-1] / total_w, G.n, G.m)
    return grassmann.from_chart(Zbar, P0)
