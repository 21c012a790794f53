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


@dataclass(frozen=True)
class GraphImmersion:
    """Explicit map f: R^n -> R^m with exact first and second derivatives.

    Every callable works on stacks of points: for x of shape (..., n),
    eval_fn returns (..., m), jac_fn (..., m, n), hess_fn (..., m, n, n) and
    excluded(x, margin) a boolean array of shape (...).  One point is the
    stack of shape (n,).  An immersion written for a single point must be
    rewritten to broadcast; there is no per-point fallback.
    """
    n: int
    m: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    excluded: Callable[[np.ndarray, float], np.ndarray] | None = None  # (x, margin) -> bool (...)
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

        Points with a non-finite coordinate are outside.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            return False
        inside = np.isfinite(x).all(axis=-1)
        if self.excluded is not None:
            inside &= ~np.asarray(self.excluded(x, margin))
        return bool(inside) if inside.ndim == 0 else inside

    def require(self, x, margin: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = np.asarray(self.contains(x, margin))
        if not inside.all():
            bad = x if inside.ndim == 0 else x[~inside][0]
            raise OutOfDomain(f"{self.name}: point {bad} outside domain (margin {margin})")
        return x


def _validate_derivatives(G: GraphImmersion, points, rtol: float = 1e-6) -> None:
    """Central-difference sanity check that jac/hess really differentiate eval.

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
            if jac_err[i] > rtol * scale:
                raise DimensionMismatch(f"{G.name}: jac mismatch at {x} axis {i}")
            if hess_err[i] > 50 * rtol * scale:
                raise DimensionMismatch(f"{G.name}: hess mismatch at {x} axis {i}")


def affine_graph(A: np.ndarray, b: np.ndarray | None = None) -> GraphImmersion:
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    return GraphImmersion(
        n=n,
        m=m,
        eval_fn=lambda x: x @ A.T + b,
        jac_fn=lambda x: np.broadcast_to(A, x.shape[:-1] + A.shape),
        hess_fn=lambda x: np.zeros(x.shape[:-1] + (m, n, n)),
        name="affine",
    )


def holomorphic_pair() -> GraphImmersion:
    """Minimal 3 -> 2 graph (x1^2 - x2^2, 2 x1 x2), invariant in x3."""
    H = np.zeros((2, 3, 3))
    H[0, 0, 0], H[0, 1, 1] = 2.0, -2.0
    H[1, 0, 1] = H[1, 1, 0] = 2.0

    def f(x):
        return np.stack([x[..., 0] ** 2 - x[..., 1] ** 2, 2.0 * x[..., 0] * x[..., 1]], axis=-1)

    def jac(x):
        out = np.zeros(x.shape[:-1] + (2, 3))
        out[..., 0, 0] = out[..., 1, 1] = 2.0 * x[..., 0]
        out[..., 0, 1] = -2.0 * x[..., 1]
        out[..., 1, 0] = 2.0 * x[..., 1]
        return out

    return GraphImmersion(
        3, 2, f, jac, lambda x: np.broadcast_to(H, x.shape[:-1] + H.shape), name="holomorphic_pair"
    )


# quadratic forms of the unit-sphere Hopf fibration S^3 -> S^2
_HOPF_Q = np.zeros((3, 4, 4))
_HOPF_Q[0] = np.diag([1.0, 1.0, -1.0, -1.0])
_HOPF_Q[1, 1, 2] = _HOPF_Q[1, 2, 1] = 1.0
_HOPF_Q[1, 0, 3] = _HOPF_Q[1, 3, 0] = -1.0
_HOPF_Q[2, 0, 2] = _HOPF_Q[2, 2, 0] = 1.0
_HOPF_Q[2, 1, 3] = _HOPF_Q[2, 3, 1] = 1.0


def lawson_osserman() -> GraphImmersion:
    """The minimal cone graph (sqrt(5)/2) |x| eta(x/|x|), eta the Hopf map.

    eta is quadratic, so f = (sqrt(5)/2) eta(x)/|x| away from the origin,
    with analytic first and second derivatives.
    """
    c = math.sqrt(5.0) / 2.0

    def radius(x):
        return np.linalg.norm(x, axis=-1)

    def eta(x):
        return np.einsum("aij,...i,...j->...a", _HOPF_Q, x, x)

    def deta(x):
        return 2.0 * np.einsum("aij,...j->...ai", _HOPF_Q, x)

    def f(x):
        return c * eta(x) / radius(x)[..., None]

    def jac(x):
        r = radius(x)[..., None, None]
        return c * (deta(x) / r - np.einsum("...a,...i->...ai", eta(x), x) / r**3)

    def hess(x):
        r = radius(x)[..., None, None, None]
        e, de = eta(x), deta(x)
        out = 2.0 * _HOPF_Q / r
        out = out - (np.einsum("...ai,...j->...aij", de, x) + np.einsum("...aj,...i->...aij", de, x)) / r**3
        out = out - np.einsum("...a,ij->...aij", e, np.eye(4)) / r**3
        out = out + 3.0 * np.einsum("...a,...i,...j->...aij", e, x, x) / r**5
        return c * out

    return GraphImmersion(
        4, 3, f, jac, hess,
        excluded=lambda x, margin: radius(x) < 1e-6 + margin,
        name="lawson_osserman",
    )


_DEFAULT_AFFINE = (np.array([[0.5, -0.25, 0.0], [0.1, 0.3, -0.2]]), np.zeros(2))


def builtin(name: str, A=None, b=None) -> GraphImmersion:
    """Named test immersions: affine(A, b), holomorphic_pair, lawson_osserman."""
    if name == "affine":
        if A is None:
            A, b = _DEFAULT_AFFINE
        G = affine_graph(A, b)
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


def polynomial_graph(n: int, m: int, components) -> GraphImmersion:
    """Graph whose components are monomial sums; derivatives are symbolic.

    `components` is a length-m list; each entry is a list of (coeff, exponents)
    with exponents a length-n tuple of nonnegative integers.
    """
    comps = []
    for comp in components:
        rows = []
        for coeff, exps in comp:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise DimensionMismatch(f"bad exponent tuple {exps}")
            rows.append((float(coeff), exps))
        comps.append(rows)

    def mono(x, coeff, exps):
        val = np.full(x.shape[:-1], coeff)
        for i, e in enumerate(exps):
            if e:
                val = val * x[..., i] ** e
        return val

    def f(x):
        out = np.zeros(x.shape[:-1] + (m,))
        for a, rows in enumerate(comps):
            out[..., a] = sum(mono(x, c, e) for c, e in rows)
        return out

    def jac(x):
        out = np.zeros(x.shape[:-1] + (m, n))
        for a, rows in enumerate(comps):
            for c, e in rows:
                for i in range(n):
                    if e[i] == 0:
                        continue
                    shifted = list(e)
                    shifted[i] -= 1
                    out[..., a, i] += mono(x, c * e[i], tuple(shifted))
        return out

    def hess(x):
        out = np.zeros(x.shape[:-1] + (m, n, n))
        for a, rows in enumerate(comps):
            for c, e in rows:
                for i in range(n):
                    if e[i] == 0:
                        continue
                    for j in range(n):
                        factor = e[i] * (e[i] - 1) if i == j else e[i] * e[j]
                        if factor == 0:
                            continue
                        shifted = list(e)
                        shifted[i] -= 1
                        shifted[j] -= 1
                        if min(shifted) < 0:
                            continue
                        out[..., a, i, j] += mono(x, c * factor, tuple(shifted))
        return out

    G = GraphImmersion(n, m, f, jac, hess, name="polynomial")
    _validate_derivatives(G, _probe_points(G))
    return G


def graph_from_spec(spec: dict) -> GraphImmersion:
    """Ingest the JSON graph description: {"name": id} or monomial components."""
    if "name" in spec:
        return builtin(spec["name"])
    try:
        n = int(spec["n"])
        m = int(spec["m"])
        comps = [
            [(mono["coeff"], mono["exponents"]) for mono in comp["monomials"]]
            for comp in spec["components"]
        ]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed graph spec: {exc}") from exc
    if len(comps) != m:
        raise DimensionMismatch(f"expected {m} components, got {len(comps)}")
    return polynomial_graph(n, m, comps)


# ---------------------------------------------------------------------------
# pointwise geometry

@dataclass(frozen=True)
class PointGeometry:
    x: np.ndarray
    g: np.ndarray
    slope: float
    gauss: grassmann.GrassmannPoint
    lambdas: np.ndarray            # (m,) singular values of Df, descending
    h: certifier.HTensor           # adapted-frame second fundamental form
    mean_h: np.ndarray             # (m,)
    norm_b2: float


def point_geometry(G: GraphImmersion, x) -> PointGeometry:
    """All pointwise quantities in singular-value-adapted orthonormal frames.

    Frames come from the SVD Df = U diag(s) V^T with pair signs fixed so the
    normal frame leans positively along the later coordinate axes; repeated
    singular values keep whatever gauge the SVD returns, so only
    gauge-invariant outputs should be compared across points.
    """
    x = G.require(x)
    J = G.jac(x)
    g = _metric(J)
    lambdas, h = _adapted_second_form(J, G.hess(x))
    # (I | Df^T) has singular values >= 1, so it needs no rank check
    gauss = grassmann.GrassmannPoint(grassmann._orthonormalize_rows(_tangent_rows(J)))
    return PointGeometry(
        x=x,
        g=g,
        slope=math.sqrt(float(np.linalg.det(g))),
        gauss=gauss,
        lambdas=lambdas,
        h=h,
        mean_h=np.einsum("aii->a", h.h),
        norm_b2=h.norm2,
    )


def _adapted_second_form(J: np.ndarray, Hf: np.ndarray):
    """SVD-adapted lambdas and second fundamental form h of one point.

    Df = U diag(s) V^T with pair signs fixed so the normal frame leans
    positively along the later coordinate axes; lambdas are s padded to m,
    and h is the second fundamental form in the frames with tangent rows
    (V_i, s_i U_i) / sqrt(1 + s_i^2) and normal rows (-s_a V_a, U_a) /
    sqrt(1 + s_a^2).
    """
    m, n = J.shape
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    lambdas = np.zeros(m)
    lambdas[: s.size] = s
    for a in range(m):
        if U[a, a] < 0.0:
            U[:, a] *= -1.0
            if a < Vt.shape[0]:
                Vt[a, :] *= -1.0
    for i in range(m, n):
        if Vt[i, i] < 0.0:
            Vt[i, :] *= -1.0
    V = Vt.T

    lam_n = np.zeros(n)
    lam_n[:m] = lambdas
    tang_scale = 1.0 / np.sqrt(1.0 + lam_n**2)
    norm_scale = 1.0 / np.sqrt(1.0 + lambdas**2)
    D2 = np.einsum("bkl,ki,lj->bij", Hf, V, V)
    h_raw = np.einsum("ba,bij->aij", U, D2)
    h_raw *= norm_scale[:, None, None]
    h_raw *= tang_scale[None, :, None]
    h_raw *= tang_scale[None, None, :]
    return lambdas, certifier.HTensor(h_raw)


def _metric(J: np.ndarray) -> np.ndarray:
    """Induced metric g = I + Df^T Df of an (..., m, n) stack of Jacobians."""
    return np.eye(J.shape[-1]) + np.swapaxes(J, -1, -2) @ J


def _flux_coefficients(g: np.ndarray) -> np.ndarray:
    """sqrt(det g) g^{-1} over a stack of metrics: the divergence-form coefficients."""
    return np.sqrt(np.linalg.det(g))[..., None, None] * np.linalg.inv(g)


def _tangent_rows(J: np.ndarray) -> np.ndarray:
    """(I | Df^T), shape (..., n, n+m): rows spanning each Gauss plane of the stack."""
    n = J.shape[-1]
    eye = np.broadcast_to(np.eye(n), J.shape[:-2] + (n, n))
    return np.concatenate([eye, np.swapaxes(J, -1, -2)], axis=-1)


def graph_v(G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None) -> np.ndarray:
    """v(gauss(x), P0) at each point of an (..., n) stack, shape (...), without frames.

    P0 = None means the base plane, where v is the volume element
    sqrt(det(I + Df^T Df)); otherwise v = 1 / w with w from
    `grassmann.chart_stack` of the rows (I | Df^T).
    """
    x = G.require(x)
    J = G.jac(x)
    vol = np.sqrt(np.linalg.det(_metric(J)))
    if P0 is None:
        return vol
    return 1.0 / grassmann.chart_stack(_tangent_rows(J), P0, vol)[1]


def laplacian_v_closed_form(
    G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None
) -> float:
    """Closed-form Delta of v(gauss(.), P0) along the graph at x.

    Assumes the immersion has parallel mean curvature (the builtins are
    minimal); with P0 = None the base coordinate plane is used and the
    SVD-adapted lambdas and h of `point_geometry` apply directly, without
    the metric, frames or Gauss plane.
    """
    if P0 is None:
        x = G.require(x)
        lambdas, h = _adapted_second_form(G.jac(x), G.hess(x))
        return certifier.laplacian_v(certifier.LambdaProfile(G.n, G.m, lambdas), h)
    pg = point_geometry(G, x)
    grassmann.v_value(pg.gauss, P0)     # raises OutOfChart outside the chart of P0
    frames = grassmann.adapted_frames(pg.gauss, P0)
    Hf = G.hess(x)
    a_coords = frames.tangent[:, : G.n]           # tangent rows as coordinate vectors
    nu_tail = frames.normal[:, G.n :]             # only the fiber components pair with (0, D2f)
    D2 = np.einsum("bkl,ik,jl->bij", Hf, a_coords, a_coords)
    h = certifier.HTensor(np.einsum("ab,bij->aij", nu_tail, D2))
    lam = certifier.LambdaProfile(G.n, G.m, frames.lambdas)
    return certifier.laplacian_v(lam, h)


@functools.lru_cache(maxsize=None)
def _fd_stencil(n: int):
    """Index bookkeeping of the divergence-form stencil in dimension n.

    Returns the 2n^2 + 1 distinct integer offsets (row 0 the centre), the
    index arrays a, b, c, d of shape (2, n, n) and the diagonal mask.  For
    the half-step x + s (step/2) e_i, s = +1 then -1, the gradient component
    j is (u[a] - u[b]) / step when j == i and (u[a] - u[b] + u[c] - u[d]) /
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
    for arr in (table, abcd, diag):
        arr.flags.writeable = False    # shared by every call through the cache
    return table, abcd, diag


def laplacian_v_finite_difference(
    G: GraphImmersion,
    x,
    P0: grassmann.GrassmannPoint | None = None,
    step: float = 1e-3,
) -> float:
    """Divergence-form finite-difference Laplacian of u = v(gauss(.), P0).

    Conservative second-order scheme: fluxes sqrt(det g) g^{ij} du/dx^j are
    evaluated at half-steps, cross derivatives by averaged central
    differences.  The 2n^2 + 1 stencil values take one batched `graph_v`,
    the 2n flux coefficients and the centre's volume element one batched
    Jacobian.
    """
    x = G.require(x, margin=2.0 * step)
    n = G.n
    offsets, (a, b, c, d), diag = _fd_stencil(n)
    u = graph_v(G, x + step * offsets, P0)
    first = u[a] - u[b]
    grad = np.where(diag, first / step, (first + u[c] - u[d]) / (4.0 * step))   # (2, n, n)

    half = (0.5 * step) * np.concatenate([np.eye(n), -np.eye(n)])
    g = _metric(G.jac(x + np.vstack([half, np.zeros(n)])))
    coeff = _flux_coefficients(g[:-1]).reshape(2, n, n, n)
    rows = coeff[:, np.arange(n), np.arange(n)]                                  # row i at half-step (s, i)
    flux = (rows[..., None, :] @ grad[..., :, None])[..., 0, 0]                  # (2, n)
    total = np.sum((flux[0] - flux[1]) / step)
    return float(total / np.sqrt(np.linalg.det(g[-1])))


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
    Points are drawn one at a time (the draw order fixes the sample); the
    linear algebra runs once on the whole sample.
    """
    from .rng import substream

    center = np.asarray(center, dtype=float)
    rng = substream(seed, 11)
    ys = []
    while len(ys) < samples:
        direction = rng.standard_normal(G.n)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / G.n)
        y = center + r * direction
        if G.contains(y):
            ys.append(y)
    A = _flux_coefficients(_metric(G.jac(np.reshape(ys, (-1, G.n)))))
    eigs = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return float(eigs[:, 0].min(initial=math.inf)), float(eigs[:, -1].max(initial=-math.inf))


def mean_gauss_image(
    G: GraphImmersion,
    center,
    radius: float,
    P0: grassmann.GrassmannPoint | None = None,
    order: int = 8,
) -> grassmann.GrassmannPoint:
    """Riemannian mean of the Gauss map over a domain ball, via the radial embedding.

    Tensor-product Gauss-Legendre nodes on the bounding cube restricted to
    the ball, weighted by the volume element sqrt(det g); the embedded mean
    is pulled back through the inverse embedding.  Convexity of balls under
    the embedding guarantees v(mean, P0) <= sup v over the nodes.  All nodes
    go through one batched Jacobian and one `grassmann.chart_stack` of the
    rows R = (I | Df^T), whose volume element is sqrt(det(R R^T)) = sqrt(det g).
    """
    center = np.asarray(center, dtype=float)
    if P0 is None:
        P0 = grassmann.standard_plane(G.n, G.m)
    nodes1d, weights1d = np.polynomial.legendre.leggauss(order)
    grids = np.meshgrid(*([nodes1d] * G.n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1) * radius
    wgrids = np.meshgrid(*([weights1d] * G.n), indexing="ij")
    wts = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
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
