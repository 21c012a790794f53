"""Geometry of explicit graphs (x, f(x)) in R^(n+m).

Computes the induced metric, slope, tangent-plane (Gauss) map, second
fundamental form in singular-value-adapted frames, and mean curvature, and
cross-validates the closed-form Laplacian of the volume-distortion function
against an independent divergence-form finite-difference operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import certifier, grassmann
from .errors import DimensionMismatch, OutOfChart, OutOfDomain, UnknownName


@dataclass(frozen=True)
class GraphImmersion:
    """Explicit map f: R^n -> R^m with exact first and second derivatives."""
    n: int
    m: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Callable[[np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray], np.ndarray]
    domain_radius: float = math.inf
    excluded: Callable[[np.ndarray, float], bool] | None = None  # (x, margin) -> bool
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

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            return False
        if np.linalg.norm(x) + margin > self.domain_radius:
            return False
        if self.excluded is not None and self.excluded(x, margin):
            return False
        return True

    def require(self, x, margin: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.contains(x, margin):
            raise OutOfDomain(f"{self.name}: point {x} outside domain (margin {margin})")
        return x


def _validate_derivatives(G: GraphImmersion, points, rtol: float = 1e-6) -> None:
    """Central-difference sanity check that jac/hess really differentiate eval."""
    h = 1e-5
    for x in points:
        x = np.asarray(x, dtype=float)
        J = G.jac(x)
        Hf = G.hess(x)
        scale = max(1.0, np.abs(J).max(), np.abs(Hf).max())
        for i in range(G.n):
            e = np.zeros(G.n)
            e[i] = h
            dj = (G.f(x + e) - G.f(x - e)) / (2 * h)
            if np.abs(dj - J[:, i]).max() > rtol * scale:
                raise DimensionMismatch(f"{G.name}: jac mismatch at {x} axis {i}")
            dh = (G.jac(x + e) - G.jac(x - e)) / (2 * h)
            if np.abs(dh - Hf[:, :, i]).max() > 50 * rtol * scale:
                raise DimensionMismatch(f"{G.name}: hess mismatch at {x} axis {i}")


def affine_graph(A: np.ndarray, b: np.ndarray | None = None) -> GraphImmersion:
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    return GraphImmersion(
        n=n,
        m=m,
        eval_fn=lambda x: A @ x + b,
        jac_fn=lambda x: A,
        hess_fn=lambda x: np.zeros((m, n, n)),
        name="affine",
    )


def holomorphic_pair() -> GraphImmersion:
    """Minimal 3 -> 2 graph (x1^2 - x2^2, 2 x1 x2), invariant in x3."""
    H = np.zeros((2, 3, 3))
    H[0, 0, 0], H[0, 1, 1] = 2.0, -2.0
    H[1, 0, 1] = H[1, 1, 0] = 2.0

    def f(x):
        return np.array([x[0] ** 2 - x[1] ** 2, 2.0 * x[0] * x[1]])

    def jac(x):
        return np.array([[2.0 * x[0], -2.0 * x[1], 0.0], [2.0 * x[1], 2.0 * x[0], 0.0]])

    return GraphImmersion(3, 2, f, jac, lambda x: H, name="holomorphic_pair")


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

    def f(x):
        r = np.linalg.norm(x)
        return c * np.einsum("aij,i,j->a", _HOPF_Q, x, x) / r

    def jac(x):
        r = np.linalg.norm(x)
        eta = np.einsum("aij,i,j->a", _HOPF_Q, x, x)
        deta = 2.0 * np.einsum("aij,j->ai", _HOPF_Q, x)
        return c * (deta / r - np.outer(eta, x) / r**3)

    def hess(x):
        r = np.linalg.norm(x)
        eta = np.einsum("aij,i,j->a", _HOPF_Q, x, x)
        deta = 2.0 * np.einsum("aij,j->ai", _HOPF_Q, x)
        out = 2.0 * _HOPF_Q / r
        out = out - (np.einsum("ai,j->aij", deta, x) + np.einsum("aj,i->aij", deta, x)) / r**3
        out = out - np.einsum("a,ij->aij", eta, np.eye(4)) / r**3
        out = out + 3.0 * np.einsum("a,i,j->aij", eta, x, x) / r**5
        return c * out

    return GraphImmersion(
        4, 3, f, jac, hess,
        excluded=lambda x, margin: float(np.linalg.norm(x)) < 1e-6 + margin,
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
        val = coeff
        for xi, e in zip(x, exps):
            if e:
                val *= xi**e
        return val

    def f(x):
        out = np.zeros(m)
        for a, rows in enumerate(comps):
            out[a] = sum(mono(x, c, e) for c, e in rows)
        return out

    def jac(x):
        out = np.zeros((m, n))
        for a, rows in enumerate(comps):
            for c, e in rows:
                for i in range(n):
                    if e[i] == 0:
                        continue
                    shifted = list(e)
                    shifted[i] -= 1
                    out[a, i] += mono(x, c * e[i], tuple(shifted))
        return out

    def hess(x):
        out = np.zeros((m, n, n))
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
                        out[a, i, j] += mono(x, c * factor, tuple(shifted))
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
    g_inv: np.ndarray
    slope: float
    gauss: grassmann.GrassmannPoint
    lambdas: np.ndarray            # (m,) singular values of Df, descending
    h: certifier.HTensor           # adapted-frame second fundamental form
    mean_h: np.ndarray             # (m,)
    norm_b2: float
    tangent_frame: np.ndarray      # (n, n+m) ambient rows
    normal_frame: np.ndarray       # (m, n+m) ambient rows


def point_geometry(G: GraphImmersion, x) -> PointGeometry:
    """All pointwise quantities in singular-value-adapted orthonormal frames.

    Frames come from the SVD Df = U diag(s) V^T with pair signs fixed so the
    normal frame leans positively along the later coordinate axes; repeated
    singular values keep whatever gauge the SVD returns, so only
    gauge-invariant outputs should be compared across points.
    """
    x = G.require(x)
    n, m = G.n, G.m
    J = G.jac(x)
    Hf = G.hess(x)
    g = np.eye(n) + J.T @ J
    det_g = float(np.linalg.det(g))
    slope = math.sqrt(det_g)
    g_inv = np.linalg.inv(g)

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
    # tangent rows t_i = (V_i, s_i U_i) / sqrt(1 + s_i^2)
    tangent = np.zeros((n, n + m))
    tangent[:, :n] = (V * tang_scale[None, :]).T
    tangent[:m, n:] = (U * (lambdas * tang_scale[:m])[None, :]).T
    # normal rows nu_a = (-s_a V_a, U_a) / sqrt(1 + s_a^2)
    normal = np.zeros((m, n + m))
    normal[:, :n] = -(V[:, :m] * (lambdas * norm_scale)[None, :]).T
    normal[:, n:] = (U * norm_scale[None, :]).T

    D2 = np.einsum("bkl,ki,lj->bij", Hf, V, V)
    h_raw = np.einsum("ba,bij->aij", U, D2)
    h_raw *= norm_scale[:, None, None]
    h_raw *= tang_scale[None, :, None]
    h_raw *= tang_scale[None, None, :]
    h = certifier.HTensor(h_raw)

    mean_h = np.einsum("aii->a", h.h)
    gauss = grassmann.make_point(np.hstack([np.eye(n), J.T]))
    return PointGeometry(
        x=x,
        g=g,
        g_inv=g_inv,
        slope=slope,
        gauss=gauss,
        lambdas=lambdas,
        h=h,
        mean_h=mean_h,
        norm_b2=h.norm2,
        tangent_frame=tangent,
        normal_frame=normal,
    )


def graph_v(G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None) -> float:
    """v(gauss(x), P0) without building frames; P0 = None means the base plane.

    Uses w(P, P0) = det((I | Df^T) P0^T) / sqrt(det(I + Df^T Df)).
    """
    x = G.require(x)
    J = G.jac(x)
    Z = J.T
    det_gram = float(np.linalg.det(np.eye(G.n) + Z @ Z.T))
    if P0 is None:
        return math.sqrt(det_gram)
    rows = np.hstack([np.eye(G.n), Z])
    w = float(np.linalg.det(rows @ P0.frame.T)) / math.sqrt(det_gram)
    if w <= grassmann.CHART_TOL:
        raise OutOfChart(f"gauss({x}) is outside the chart of P0")
    return 1.0 / w


def laplacian_v_closed_form(
    G: GraphImmersion, x, P0: grassmann.GrassmannPoint | None = None
) -> float:
    """Closed-form Delta of v(gauss(.), P0) along the graph at x.

    Assumes the immersion has parallel mean curvature (the builtins are
    minimal); with P0 = None the base coordinate plane is used and the
    SVD-adapted frames of `point_geometry` apply directly.
    """
    pg = point_geometry(G, x)
    if P0 is None:
        lam = certifier.LambdaProfile(G.n, G.m, pg.lambdas)
        return certifier.laplacian_v(lam, pg.h)
    frames = grassmann.adapted_frames(pg.gauss, P0)
    if grassmann.w_pairing(pg.gauss, P0) <= grassmann.CHART_TOL:
        raise OutOfChart("gauss image outside the chart of P0")
    Hf = G.hess(x)
    a_coords = frames.tangent[:, : G.n]           # tangent rows as coordinate vectors
    nu_tail = frames.normal[:, G.n :]             # only the fiber components pair with (0, D2f)
    D2 = np.einsum("bkl,ik,jl->bij", Hf, a_coords, a_coords)
    h = certifier.HTensor(np.einsum("ab,bij->aij", nu_tail, D2))
    lam = certifier.LambdaProfile(G.n, G.m, frames.lambdas)
    return certifier.laplacian_v(lam, h)


def laplacian_v_finite_difference(
    G: GraphImmersion,
    x,
    P0: grassmann.GrassmannPoint | None = None,
    step: float = 1e-3,
) -> float:
    """Divergence-form finite-difference Laplacian of u = v(gauss(.), P0).

    Conservative second-order scheme: fluxes sqrt(det g) g^{ij} du/dx^j are
    evaluated at half-steps, cross derivatives by averaged central
    differences.
    """
    x = G.require(x, margin=2.0 * step)
    n = G.n
    cache: dict[tuple, float] = {}

    def u(offset: tuple) -> float:
        if offset not in cache:
            cache[offset] = graph_v(G, x + step * np.asarray(offset, dtype=float), P0)
        return cache[offset]

    def coeff(y: np.ndarray) -> np.ndarray:
        J = G.jac(y)
        g = np.eye(n) + J.T @ J
        return math.sqrt(float(np.linalg.det(g))) * np.linalg.inv(g)

    def grad_at_half(i: int, side: int) -> np.ndarray:
        """Gradient of u at x + side*(step/2) e_i, second order."""
        grad = np.zeros(n)
        base = np.zeros(n, dtype=int)
        base[i] = side
        for j in range(n):
            if j == i:
                if side > 0:
                    grad[j] = (u(tuple(base)) - u(tuple(np.zeros(n, dtype=int)))) / step
                else:
                    grad[j] = (u(tuple(np.zeros(n, dtype=int))) - u(tuple(base))) / step
            else:
                ej = np.zeros(n, dtype=int)
                ej[j] = 1
                grad[j] = (
                    u(tuple(base + ej)) - u(tuple(base - ej)) + u(tuple(ej)) - u(tuple(-ej))
                ) / (4.0 * step)
        return grad

    total = 0.0
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = 1.0
        flux_plus = coeff(x + 0.5 * step * ei)[i] @ grad_at_half(i, +1)
        flux_minus = coeff(x - 0.5 * step * ei)[i] @ grad_at_half(i, -1)
        total += (flux_plus - flux_minus) / step
    sqrt_g = math.sqrt(float(np.linalg.det(np.eye(n) + G.jac(x).T @ G.jac(x))))
    return total / sqrt_g


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
    """
    from .rng import substream

    center = np.asarray(center, dtype=float)
    rng = substream(seed, 11)
    lo, hi = math.inf, -math.inf
    accepted = 0
    while accepted < samples:
        direction = rng.standard_normal(G.n)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / G.n)
        y = center + r * direction
        if not G.contains(y):
            continue
        accepted += 1
        J = G.jac(y)
        g = np.eye(G.n) + J.T @ J
        A = math.sqrt(float(np.linalg.det(g))) * np.linalg.inv(g)
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        lo = min(lo, float(eigs[0]))
        hi = max(hi, float(eigs[-1]))
    return lo, hi


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
    the embedding guarantees v(mean, P0) <= sup v over the nodes.
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
    total_w = 0.0
    total_y = np.zeros(G.n * G.m)
    for offset, w in zip(pts[inside], wts[inside]):
        y = center + offset
        if not G.contains(y):
            continue
        J = G.jac(y)
        Z = grassmann.to_chart(grassmann.make_point(np.hstack([np.eye(G.n), J.T])), P0)
        vol = math.sqrt(float(np.linalg.det(np.eye(G.n) + J.T @ J)))
        total_y += w * vol * grassmann.t_embedding(Z)
        total_w += w * vol
    if total_w <= 0.0:
        raise OutOfDomain("no quadrature nodes inside the domain ball")
    Zbar = grassmann.t_embedding_inverse(total_y / total_w, G.n, G.m)
    return grassmann.from_chart(Zbar, P0)
