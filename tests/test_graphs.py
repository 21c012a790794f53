import hashlib
import math

import numpy as np
import pytest

from gbl import certifier as ct
from gbl import graphs as gg
from gbl import grassmann as gr
from gbl.errors import DimensionMismatch, OutOfChart, OutOfDomain, UnknownName
from gbl.rng import substream


def coordinate_norm_b2(G, x):
    """Frame-free |B|^2: g^{ik} g^{jl} <B_ij, B_kl> with B the normal part of (0, D2f)."""
    J = G.jac(x)
    Hf = G.hess(x)
    n = G.n
    g_inv = np.linalg.inv(np.eye(n) + J.T @ J)
    # ambient second derivative vectors and tangential projection
    tangent = np.hstack([np.eye(n), J.T])              # rows span the tangent plane
    gram_inv = g_inv                                    # gram of tangent rows is g
    B = np.zeros((n, n, n + G.m))
    for i in range(n):
        for j in range(n):
            amb = np.concatenate([np.zeros(n), Hf[:, i, j]])
            coeffs = gram_inv @ (tangent @ amb)
            B[i, j] = amb - coeffs @ tangent
    return float(np.einsum("ik,jl,ija,kla->", g_inv, g_inv, B, B))


class TestBuiltins:
    def test_affine_zero_map(self):
        G = gg.affine_graph(np.zeros((2, 3)), np.array([1.0, -2.0]))
        x = np.array([0.3, 0.4, 0.5])
        assert np.abs(G.f(x) - np.array([1.0, -2.0])).max() == 0.0
        assert np.abs(G.jac(x)).max() == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            gg.builtin("nope")

    def test_holomorphic_pair_minimal(self):
        G = gg.builtin("holomorphic_pair")
        rng = substream(20, 0)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-2, 2, 3)
            worst = max(worst, float(np.linalg.norm(gg.point_geometry(G, x).mean_h)))
        assert worst < 1e-8

    def test_cone_minimal(self):
        G = gg.builtin("lawson_osserman")
        rng = substream(20, 1)
        worst = 0.0
        for _ in range(1000):
            x = rng.standard_normal(4)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            worst = max(worst, float(np.linalg.norm(gg.point_geometry(G, x).mean_h)))
        assert worst < 1e-7

    def test_cone_excludes_origin(self):
        G = gg.builtin("lawson_osserman")
        with pytest.raises(OutOfDomain):
            gg.point_geometry(G, np.zeros(4))


POLY_SPEC = {
    "n": 3,
    "m": 2,
    "components": [
        {"monomials": [{"exponents": [3, 0, 1], "coeff": 0.5}, {"exponents": [0, 2, 0], "coeff": -1.0}]},
        {"monomials": [{"exponents": [1, 1, 2], "coeff": 2.0}, {"exponents": [0, 0, 0], "coeff": 0.25}]},
    ],
}


class TestBatchedDerivatives:
    @pytest.mark.parametrize("make", [
        lambda: gg.builtin("affine"),
        lambda: gg.builtin("holomorphic_pair"),
        lambda: gg.builtin("lawson_osserman"),
        lambda: gg.graph_from_spec(POLY_SPEC),
    ])
    def test_stack_equals_stacked_points(self, make):
        G = make()
        X = substream(26, G.n).uniform(0.3, 1.2, (40, G.n))
        for method, shape in ((G.f, (G.m,)), (G.jac, (G.m, G.n)), (G.hess, (G.m, G.n, G.n))):
            stacked = method(X)
            assert stacked.shape == (40,) + shape
            assert np.abs(stacked - np.stack([method(x) for x in X])).max() <= 1e-15
        # the FD Laplacian takes one Jacobian of its whole stencil, and the
        # point functions one of a single point: both must give the same bits
        for method in (G.jac, G.hess):
            assert method(X).tobytes() == np.stack([method(x) for x in X]).tobytes()
        assert G.hess(X.reshape(4, 10, G.n)).shape == (4, 10, G.m, G.n, G.n)

    def test_contains_on_a_stack(self):
        G = gg.builtin("lawson_osserman")
        X = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 1e-4, 0.0, 0.0]])
        assert G.contains(X).tolist() == [True, False, True]
        assert G.contains(X, margin=1e-3).tolist() == [True, False, False]
        assert G.contains(X[0]) is True
        with pytest.raises(OutOfDomain):
            G.require(X)

    @pytest.mark.parametrize("name", ["holomorphic_pair", "lawson_osserman"])
    def test_non_finite_points_are_outside(self, name):
        G = gg.builtin(name)
        X = np.full((4, G.n), 0.5)
        X[1, 0], X[2, -1], X[3, 1] = np.inf, -np.inf, np.nan
        assert G.contains(X).tolist() == [True, False, False, False]
        # one point at a time, with the wrong lengths and, at the cone, a point inside the margin
        bad = [*X[1:], np.full(G.n + 1, 0.5), np.full(G.n - 1, 0.5), np.float64(0.5)]
        if name == "lawson_osserman":
            near = np.array([0.0, 1e-3, 0.0, 0.0])
            assert G.contains(near) is True and G.require(near) is not None
            bad.append(near)
        for x in bad:
            assert G.contains(x, margin=2e-3) is False
            with pytest.raises(OutOfDomain, match=rf"{name}: point .* outside domain \(margin 0.002\)"):
                G.require(x, margin=2e-3)
        assert G.contains(X[0], margin=2e-3) is True
        assert G.require(X[0].tolist(), margin=2e-3).tobytes() == X[0].tobytes()
        with pytest.raises(OutOfDomain):
            gg.point_geometry(G, X[1])

    def test_graph_v_stack(self):
        G = gg.builtin("holomorphic_pair")
        P0 = gr.from_chart(np.full((3, 2), 0.07), gr.standard_plane(3, 2))
        X = substream(26, 9).uniform(-0.5, 0.5, (25, 3))
        for Q in (None, P0):
            stacked = gg.graph_v(G, X, Q)
            assert stacked.shape == (25,)
            assert stacked.tobytes() == np.array([gg.graph_v(G, x, Q) for x in X]).tobytes()
        slopes = np.array([gg.point_geometry(G, x).slope for x in X])
        assert np.abs(gg.graph_v(G, X) - slopes).max() < 1e-12


def domain_points(G, count, seed):
    """`count` points of G's domain, uniform in the cube [-0.9, 0.9]^n."""
    rng = substream(24, seed)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-0.9, 0.9, G.n)
        if G.contains(x):
            pts.append(x)
    return pts


def chart_frames_second_form(J, Hf):
    """The base-plane lambdas and h read from the whole (n+m) x (n+m) row stack of chart_frames(Df^T)."""
    n = J.shape[1]
    rows, scale, lambdas = gr.chart_frames(J.T)
    coords = np.ascontiguousarray(rows[:n, :n])
    D2 = np.einsum("bkl,ik,jl->bij", Hf, coords, coords)
    h_raw = np.einsum("ab,bij->aij", rows[n:, n:], D2)
    h_raw *= scale[n:, None, None]
    h_raw *= scale[None, :n, None]
    h_raw *= scale[None, None, :n]
    return lambdas, 0.5 * (h_raw + h_raw.transpose(0, 2, 1))


BUILTINS = ["affine", "holomorphic_pair", "lawson_osserman"]


def random_spec(rng):
    """A seeded polynomial spec: n <= 5, 1 <= m <= n, one to four monomials per component, each of
    degree at most 4 (a repeated axis raises its exponent, degree 0 a constant term)."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, n + 1))
    components = []
    for _ in range(m):
        monomials = []
        for _ in range(int(rng.integers(1, 5))):
            exponents = np.bincount(rng.integers(0, n, int(rng.integers(0, 5))), minlength=n)
            monomials.append({"exponents": exponents.tolist(), "coeff": float(rng.uniform(-2.0, 2.0))})
        components.append({"monomials": monomials})
    return {"n": n, "m": m, "components": components}


def assert_derivatives_match_differences(G, points, h=1e-5):
    """jac and hess of G at each point against central differences of f and jac: within 1e-7 of
    the largest entry of what they approximate, or of 1.  At step 1e-5 the truncation error is
    of order 1e-10 |D^3 f| and the rounding about 1e-11 |f|, far below; a wrong multiplier or
    sign is of the order of the entry itself."""
    steps = h * np.eye(G.n)
    for x in points:
        J, Hf = G.jac(x), G.hess(x)
        dj = (G.f(x + steps) - G.f(x - steps)) / (2 * h)          # (n, m): row i is d/dx_i
        dh = (G.jac(x + steps) - G.jac(x - steps)) / (2 * h)      # (n, m, n)
        assert np.abs(dj - J.T).max() <= 1e-7 * max(1.0, np.abs(J).max()), (G.name, x)
        assert np.abs(dh - np.moveaxis(Hf, -1, 0)).max() <= 1e-7 * max(1.0, np.abs(Hf).max()), (G.name, x)


class TestDerivatives:
    # building a graph checks nothing numerically, so these tests are what shows that jac and hess
    # differentiate f: for the builtins, written out by hand, and for specs, through `_derivative`
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin(self, name):
        G = gg.builtin(name)
        assert_derivatives_match_differences(G, domain_points(G, 40, 30 + len(name)))

    def test_poly_spec(self):
        G = gg.graph_from_spec(POLY_SPEC)
        assert_derivatives_match_differences(G, domain_points(G, 40, 30))

    @pytest.mark.parametrize("k", range(24))
    def test_random_spec(self, k):
        G = gg.graph_from_spec(random_spec(substream(28, k)))
        assert_derivatives_match_differences(G, substream(29, k).uniform(-1.0, 1.0, (8, G.n)))


class TestPointGeometry:
    @pytest.mark.parametrize("name", ["affine", "holomorphic_pair", "lawson_osserman"])
    def test_gauss_is_the_qr_frame(self, name):
        G = gg.builtin(name)
        for x in substream(21, 5).uniform(0.2, 0.9, (10, G.n)):
            eager = gr._orthonormalize_rows(np.hstack([np.eye(G.n), G.jac(x).T]))
            assert gg.point_geometry(G, x).gauss.frame.tobytes() == eager.tobytes()

    def test_qr_only_when_gauss_is_read(self, monkeypatch):
        # guards the lazy Gauss plane: the per-point path orthonormalizes nothing
        calls = [0]
        qr = gr._orthonormalize_rows

        def counted(rows):
            calls[0] += 1
            return qr(rows)

        monkeypatch.setattr(gr, "_orthonormalize_rows", counted)
        G = gg.builtin("lawson_osserman")
        x = np.array([0.5, -0.3, 0.4, 0.6])
        pg = gg.point_geometry(G, x)
        gg.laplacian_v_closed_form(G, x)
        gg.laplacian_v_finite_difference(G, x)
        assert calls[0] == 0
        frame = pg.gauss.frame
        assert calls[0] == 1
        assert pg.gauss.frame is frame
        assert calls[0] == 1

    @pytest.mark.parametrize("name", BUILTINS)
    def test_base_plane_frames_are_the_chart_frames_rows(self, name):
        # the SVD factors give bitwise the lambdas and h of the whole row stack
        G = gg.builtin(name)
        for x in domain_points(G, 300, len(name)):
            J, Hf = G.jac(x), G.hess(x)
            lams, h = gg._adapted_second_form(J, Hf)
            old_lams, old_h = chart_frames_second_form(J, Hf)
            assert lams.tobytes() == old_lams.tobytes() and h.tobytes() == old_h.tobytes()

    @pytest.mark.parametrize("name", BUILTINS)
    def test_slope_is_the_volume_element(self, name):
        # det(I + Df^T Df) = prod(1 + s^2) over the singular values s of Df
        G = gg.builtin(name)
        for x in domain_points(G, 300, 10 + len(name)):
            pg = gg.point_geometry(G, x)
            vol = math.sqrt(np.linalg.det(gg._metric(pg.jac)))
            assert abs(pg.slope - vol) <= 1e-14 * vol

    def test_mean_curvature_only_when_read(self):
        G = gg.builtin("lawson_osserman")
        pg = gg.point_geometry(G, np.array([0.5, -0.3, 0.4, 0.6]))
        assert "mean_h" not in vars(pg)
        mean_h = pg.mean_h
        assert "mean_h" in vars(pg) and pg.mean_h is mean_h
        assert mean_h.tobytes() == np.einsum("aii->a", pg.h).tobytes()

    def test_affine_flat(self):
        A = np.array([[0.5, -0.25, 0.0], [0.1, 0.3, -0.2]])
        G = gg.affine_graph(A)
        pg = gg.point_geometry(G, np.array([0.2, -0.1, 0.4]))
        assert pg.norm_b2 == 0.0
        assert np.abs(np.sort(pg.lambdas) - np.sort(np.linalg.svd(A, compute_uv=False))).max() < 1e-12

    def test_metric_identity(self):
        G = gg.builtin("holomorphic_pair")
        rng = substream(21, 0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            J = G.jac(x)
            assert np.abs(gg._metric(gg.point_geometry(G, x).jac) - np.eye(3) - J.T @ J).max() < 1e-12

    def test_slope_equals_v_of_gauss(self):
        G = gg.builtin("holomorphic_pair")
        P0 = gr.standard_plane(3, 2)
        rng = substream(21, 1)
        for _ in range(50):
            pg = gg.point_geometry(G, rng.uniform(-1, 1, 3))
            assert pg.slope == pytest.approx(gr.v_value(pg.gauss, P0), rel=1e-9)
            assert pg.slope == pytest.approx(
                float(np.prod(np.sqrt(1 + pg.lambdas**2))), rel=1e-12
            )

    def test_norm_b2_frame_free(self):
        rng = substream(21, 2)
        for name in ("holomorphic_pair", "lawson_osserman"):
            G = gg.builtin(name)
            for _ in range(10):
                x = rng.uniform(0.4, 1.0, G.n)
                pg = gg.point_geometry(G, x)
                assert pg.norm_b2 == pytest.approx(coordinate_norm_b2(G, x), rel=1e-8)
                # h is the (m, n, n) array, exactly symmetric, whose squares sum to |B|^2
                assert pg.h.shape == (G.m, G.n, G.n) and np.array_equal(pg.h, pg.h.transpose(0, 2, 1))
                assert pg.norm_b2 == float(np.sum(pg.h**2))

    def test_cone_slope_direction_independent(self):
        G = gg.builtin("lawson_osserman")
        rng = substream(21, 3)
        dirs = rng.standard_normal((1000, 4))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        slopes = np.array([gg.point_geometry(G, d).slope for d in dirs])
        assert slopes.std() < 1e-8
        # derived regression value: singular values (sqrt5, sqrt5, sqrt5/2) give v = 9
        assert slopes.mean() == pytest.approx(9.0, abs=1e-9)
        assert slopes.mean() > 3.0

    def test_cone_scale_invariance(self):
        G = gg.builtin("lawson_osserman")
        rng = substream(21, 4)
        d = rng.standard_normal(4)
        d /= np.linalg.norm(d)
        a, b = gg.point_geometry(G, d), gg.point_geometry(G, 2.0 * d)
        assert np.abs(a.lambdas - b.lambdas).max() < 1e-10
        assert a.slope == pytest.approx(b.slope, abs=1e-10)

    def test_cone_homogeneous_up_to_the_bound(self):
        # |B|^2 scales as 1/t^2 along rays, and the slope is 9, at every radius the domain keeps
        G = gg.builtin("lawson_osserman")
        x = np.array([0.5, -0.3, 0.4, 0.6])
        norm_b2 = gg.point_geometry(G, x).norm_b2
        top = 0.999 * gg._LAWSON_MAX_RADIUS / np.linalg.norm(x)
        for t in (1e-5, 1e-3, 1e5, 1e20, 1e40, 1e55, 1e59, top):
            pg = gg.point_geometry(G, t * x)
            assert abs(pg.norm_b2 * t * t - norm_b2) <= 1e-14 * norm_b2, t
            assert pg.slope == pytest.approx(9.0, abs=1e-14)

    @pytest.mark.parametrize("x", [[1.001e60, 0.0, 0.0, 0.0], [1e62, 0.0, 0.0, 0.0],
                                   [0.0, 1e80, 0.0, 0.0], [0.0, 0.0, 1e103, -1e103]])
    def test_cone_refuses_points_past_the_bound(self, x):
        # past the bound hess's r**5 overflows (near 1e62), |B|^2 turns NaN (1e80) and the SVD
        # fails (1e103): each is refused first, with no RuntimeWarning
        G = gg.builtin("lawson_osserman")
        assert G.contains(x) is False
        with pytest.raises(OutOfDomain):
            gg.point_geometry(G, x)


class TestClosedForm:
    def test_affine_zero(self):
        G = gg.builtin("affine")
        assert gg.laplacian_v_closed_form(G, np.array([0.1, 0.2, 0.3])) == 0.0

    def test_holomorphic_strong_subharmonicity(self):
        # Delta v >= K0 |B|^2 wherever the slope stays below 2.9
        G = gg.builtin("holomorphic_pair")
        cert = ct.compute_K0(3, 2, (2.9,), audit_samples=2_000, seed=7)[0]
        rng = substream(22, 0)
        count = 0
        while count < 200:
            x = rng.uniform(-0.7, 0.7, 3)
            pg = gg.point_geometry(G, x)
            if pg.slope > 2.9:
                continue
            count += 1
            dv = gg.laplacian_v_closed_form(G, x)
            assert dv >= -1e-12
            assert dv >= cert.k0 * pg.norm_b2 - 1e-9

    def test_cone_constant_v_annihilates(self):
        # slope is constant on the cone, so the closed form must cancel exactly
        G = gg.builtin("lawson_osserman")
        rng = substream(22, 1)
        for _ in range(10):
            x = rng.standard_normal(4)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            pg = gg.point_geometry(G, x)
            assert pg.norm_b2 > 0.1
            assert abs(gg.laplacian_v_closed_form(G, x)) < 1e-10 * pg.slope * pg.norm_b2

    @pytest.mark.parametrize("name", ["affine", "holomorphic_pair", "lawson_osserman"])
    def test_base_plane_through_the_chart(self, name):
        # the coordinate plane as an explicit P0 takes its chart from chart_stack
        G = gg.builtin(name)
        P0 = gr.standard_plane(G.n, G.m)
        rng = substream(22, 2)
        for _ in range(20):
            x = rng.uniform(-0.8, 0.8, G.n)
            pg = gg.point_geometry(G, x)
            cf = gg.laplacian_v_closed_form(G, x)
            fd = gg.laplacian_v_finite_difference(G, x, step=1e-3)
            scale = max(abs(cf), abs(fd), pg.slope * pg.norm_b2, 1e-6)
            assert abs(gg.laplacian_v_closed_form(G, x, P0) - cf) <= 1e-13 * scale

    def test_reversed_reference_plane_out_of_chart(self):
        G = gg.builtin("holomorphic_pair")
        frame = gr.standard_plane(3, 2).frame.copy()
        frame[0] *= -1.0
        with pytest.raises(OutOfChart):
            gg.laplacian_v_closed_form(G, np.array([0.3, 0.2, 0.7]), gr.GrassmannPoint(frame))


def two_batch_fd(G, x, P0, step):
    """The divergence-form FD Laplacian with the stencil values and the fluxes from two Jacobian batches."""
    x = G.require(x, margin=2.0 * step)
    n = G.n
    offsets, (a, b, c, d), diag, _ = gg._fd_stencil(n)
    J = G.jac(G.require(x + step * offsets))
    vol = np.sqrt(np.linalg.det(np.eye(n) + np.swapaxes(J, -1, -2) @ J))
    if P0 is None:
        u = vol
    else:
        rows = np.concatenate([np.broadcast_to(np.eye(n), J.shape[:-2] + (n, n)), np.swapaxes(J, -1, -2)], axis=-1)
        u = 1.0 / gr.chart_stack(rows, P0, vol)[1]
    first = u[a] - u[b]
    grad = np.where(diag, first / step, (first + u[c] - u[d]) / (4.0 * step))
    half = (0.5 * step) * np.concatenate([np.eye(n), -np.eye(n)])
    Jh = G.jac(x + np.vstack([half, np.zeros(n)]))
    g = np.eye(n) + np.swapaxes(Jh, -1, -2) @ Jh
    coeff = (np.sqrt(np.linalg.det(g[:-1]))[..., None, None] * np.linalg.inv(g[:-1])).reshape(2, n, n, n)
    rows = coeff[:, np.arange(n), np.arange(n)]
    flux = (rows[..., None, :] @ grad[..., :, None])[..., 0, 0]
    total = np.sum((flux[0] - flux[1]) / step)
    return float(total / np.sqrt(np.linalg.det(g[-1])))


class TestFiniteDifference:
    @pytest.mark.parametrize("name", ["affine", "holomorphic_pair", "lawson_osserman"])
    def test_one_batch_matches_two_batches(self, name):
        G = gg.builtin(name)
        P0 = gr.from_chart(np.full((G.n, G.m), 0.05), gr.standard_plane(G.n, G.m))
        for x in substream(23, 3).uniform(0.2, 0.9, (20, G.n)):
            for Q in (None, P0):
                one = gg.laplacian_v_finite_difference(G, x, Q, step=1e-3)
                assert np.float64(one).tobytes() == np.float64(two_batch_fd(G, x, Q, 1e-3)).tobytes()

    def test_affine_vanishes(self):
        G = gg.builtin("affine")
        assert abs(gg.laplacian_v_finite_difference(G, np.array([0.1, -0.2, 0.3]))) < 1e-10

    def test_holomorphic_agreement(self):
        G = gg.builtin("holomorphic_pair")
        rng = substream(23, 0)
        checked = 0
        while checked < 60:
            x = rng.uniform(-0.8, 0.8, 3)
            pg = gg.point_geometry(G, x)
            if pg.norm_b2 <= 0.1:
                continue
            checked += 1
            cf = gg.laplacian_v_closed_form(G, x)
            fd = gg.laplacian_v_finite_difference(G, x, step=1e-3)
            assert abs(cf - fd) / abs(cf) < 1e-4

    def test_cone_agreement_scaled(self):
        G = gg.builtin("lawson_osserman")
        rng = substream(23, 1)
        for _ in range(60):
            x = rng.standard_normal(4)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            pg = gg.point_geometry(G, x)
            cf = gg.laplacian_v_closed_form(G, x)
            fd = gg.laplacian_v_finite_difference(G, x, step=1e-3)
            scale = max(abs(cf), abs(fd), pg.slope * pg.norm_b2)
            assert abs(cf - fd) / scale < 1e-3

    def test_generic_center_agreement_and_order(self):
        # a rotated reference plane leaves genuine truncation error to measure
        G = gg.builtin("holomorphic_pair")
        P0 = gr.from_chart(np.full((3, 2), 0.07), gr.standard_plane(3, 2))
        x = np.array([0.3, 0.2, 0.7])
        cf = gg.laplacian_v_closed_form(G, x, P0)
        e1 = abs(gg.laplacian_v_finite_difference(G, x, P0, step=2e-3) - cf)
        e2 = abs(gg.laplacian_v_finite_difference(G, x, P0, step=1e-3) - cf)
        assert e2 / abs(cf) < 1e-4
        assert 1.5 < math.log2(e1 / e2) < 2.5

    def test_cone_generic_center(self):
        G = gg.builtin("lawson_osserman")
        P0 = gr.from_chart(np.full((4, 3), 0.05), gr.standard_plane(4, 3))
        x = np.array([1.0, -0.2, 0.4, 0.3])
        x /= np.linalg.norm(x)
        cf = gg.laplacian_v_closed_form(G, x, P0)
        fd = gg.laplacian_v_finite_difference(G, x, P0, step=1e-3)
        assert abs(cf - fd) / abs(cf) < 1e-3

    def test_jacobian_calls_independent_of_n(self):
        # the stencil and the flux coefficients share one batched Jacobian
        calls = []
        for G in (gg.builtin("holomorphic_pair"), gg.builtin("lawson_osserman"),
                  gg.affine_graph(substream(23, 2).uniform(-1, 1, (3, 6)))):
            count = [0]

            def jac(x, G=G, count=count):
                count[0] += 1
                return G.jac(x)

            W = gg.GraphImmersion(G.n, G.m, G.f, jac, G.hess, excluded=G.excluded, name=G.name)
            x = np.full(G.n, 0.45)
            assert gg.laplacian_v_finite_difference(W, x) == gg.laplacian_v_finite_difference(G, x)
            calls.append(count[0])
        assert calls == [1, 1, 1]

    def test_domain_margin(self):
        G = gg.builtin("lawson_osserman")
        with pytest.raises(OutOfDomain):
            gg.laplacian_v_finite_difference(G, np.array([1e-4, 0, 0, 0]), step=1e-3)

    def test_stencil_is_not_checked_against_excluded(self):
        # the FD checks x at margin 2 step and its stencil only for finiteness: an `excluded` that
        # keeps the margin contract refuses x, one that ignores margin lets the FD evaluate Delta v
        # at excluded stencil points, unrefused
        pair = gg.builtin("holomorphic_pair")
        broken = gg.GraphImmersion(3, 2, pair.f, pair.jac, pair.hess, name="broken_half_pair",
                                   excluded=lambda x, margin: x[..., 0] < 0.0)
        x, step = np.array([1e-4, 0.3, 0.2]), 1e-3
        with pytest.raises(OutOfDomain):
            gg.laplacian_v_finite_difference(HALF_PAIR, x, step=step)
        assert not broken.contains(x + step * gg._fd_stencil(3)[0]).all()
        fd = gg.laplacian_v_finite_difference(broken, x, step=step)
        assert fd == gg.laplacian_v_finite_difference(pair, x, step=step)

    @pytest.mark.parametrize("name", ["affine", "holomorphic_pair"])
    @pytest.mark.parametrize("x0,step", [(1.7e308, 1e307), (-1.7e308, 1e307), (0.5, math.inf)])
    def test_overflowing_stencil_is_out_of_domain(self, name, x0, step):
        # x is finite and passes its margin check, but its stencil is not finite: refused, with no
        # RuntimeWarning (an error under this suite's warning filter) on the way
        G = gg.builtin(name)
        x = np.array([x0, 0.1, 0.2])
        for Q in (None, gr.standard_plane(3, 2)):
            with pytest.raises(OutOfDomain, match="finite range"):
                gg.laplacian_v_finite_difference(G, x, Q, step=step)

    @pytest.mark.parametrize("step", [1e80, 1e150])
    def test_overflowing_metric_is_out_of_domain(self, step):
        # the stencil is finite but det g of its far points overflows (the affine metric never
        # does): refused on the base-plane path, which read NaN, and on the P0 path, which read
        # the infinite volumes as planes outside the chart, with no RuntimeWarning on the way
        G = gg.builtin("holomorphic_pair")
        x = np.array([0.4, 0.4, 0.4])
        P = gr.standard_plane(3, 2)
        for Q in (None, P, gr.from_chart(np.full((3, 2), 0.05), P)):
            with pytest.raises(OutOfDomain, match="finite range"):
                gg.laplacian_v_finite_difference(G, x, Q, step=step)


# holomorphic_pair on the half space x_0 >= margin and on the ball of radius 0.05 - margin about
# (0.45, 0.45, 0.45), as test_rng and test_cli build them
_PAIR = gg.builtin("holomorphic_pair")
HALF_PAIR = gg.GraphImmersion(_PAIR.n, _PAIR.m, _PAIR.f, _PAIR.jac, _PAIR.hess,
                              excluded=lambda x, margin: x[..., 0] < margin, name="half_pair")
BALL_PAIR = gg.GraphImmersion(_PAIR.n, _PAIR.m, _PAIR.f, _PAIR.jac, _PAIR.hess, name="ball_pair",
                              excluded=lambda x, margin: np.linalg.norm(x - 0.45, axis=-1) > 0.05 - margin)


def unit(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def lawson_ends(rng):
    return unit(rng, 4) * rng.uniform(0.5, 2.0), np.zeros(4)


def lawson_outer_ends(rng):
    u = unit(rng, 4)
    return u * rng.uniform(0.5e60, 0.9e60), u * rng.uniform(1.1e60, 2e60)


def half_ends(rng):
    c, o = rng.uniform(-1.0, 1.0, (2, 3))
    c[0], o[0] = rng.uniform(0.5, 1.0), rng.uniform(-1.0, -0.5)
    return c, o


def ball_ends(rng):
    return 0.45 + 0.005 * unit(rng, 3), 0.45 + 0.2 * unit(rng, 3)


# each boundary of an excluded set: its immersion, a seeded draw of (a point inside at every
# margin up to 0.04 scale, a point outside at margin 0), and the length scale of its margins,
# which at the cone's outer radius must exceed the rounding of order eps 1e60
_LAWSON = gg.builtin("lawson_osserman")
EXCLUDING = {
    "lawson_osserman": (_LAWSON, lawson_ends, 1.0),
    "lawson_osserman_outer": (_LAWSON, lawson_outer_ends, 1e58),
    "half_pair": (HALF_PAIR, half_ends, 1.0),
    "ball_pair": (BALL_PAIR, ball_ends, 1.0),
}


def margin_boundary(G, c, o, r):
    """The last point of the segment from c (contained at margin r) to o (not) that G contains
    at margin r, by bisection."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return c + lo * (o - c)
        if G.contains(c + mid * (o - c), r):
            lo = mid
        else:
            hi = mid


class TestMarginContract:
    @pytest.mark.parametrize("name", sorted(EXCLUDING))
    def test_excluded_keeps_the_margin_contract(self, name):
        # x contained at margin r: every point within distance r of x is contained at margin 0.
        # Points sit on the margin, between a seeded inside and outside point, and are tried at
        # distance up to r - 1e-12 (|x| + r) toward the outside point and in seeded directions,
        # rounding being of order eps (|x| + r)
        G, ends, scale = EXCLUDING[name]
        rng = substream(27, len(name))
        for r in (1e-7 * scale, 1e-3 * scale, 2e-3 * scale, 0.01 * scale, 0.04 * scale):
            for _ in range(40):
                c, o = ends(rng)
                assert G.contains(c, r) and not G.contains(o)
                x = margin_boundary(G, c, o, r)
                assert G.contains(x, r)
                dist = r - 1e-12 * (np.linalg.norm(x) + r)
                u = unit(rng, G.n)
                for y in (x + dist * (o - c) / np.linalg.norm(o - c), x + dist * u,
                          x + (dist * rng.uniform()) * u):
                    assert np.linalg.norm(y - x) <= r
                    assert G.contains(y), (x, y, r)
                    assert G.contains(y[None])[0]


class TestEllipticity:
    def test_flat_graph(self):
        G = gg.affine_graph(np.zeros((2, 3)))
        lo, hi = gg.ellipticity_check(G, np.zeros(3), 1.0, samples=64)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_holomorphic_window(self):
        G = gg.builtin("holomorphic_pair")
        lo, hi = gg.ellipticity_check(G, np.zeros(3), 0.5, samples=512)
        beta0 = 1.0 + 4 * 0.25  # sup slope on the ball
        assert lo >= 1.0 / beta0 - 1e-9
        assert hi <= beta0 + 1e-9

    def test_universal_window_for_slope_three(self):
        G = gg.builtin("holomorphic_pair")
        # slope <= 3 on |x| <= sqrt(0.5) since slope = 1 + 4 r^2
        lo, hi = gg.ellipticity_check(G, np.zeros(3), math.sqrt(0.5), samples=512)
        assert lo >= 1.0 / 3.0 - 1e-9
        assert hi <= 3.0 + 1e-9


class TestMeanGaussImage:
    def test_affine_exact(self):
        G = gg.builtin("affine")
        mean = gg.mean_gauss_image(G, np.zeros(3), 0.5)
        assert gr.distance(mean, gg.point_geometry(G, np.zeros(3)).gauss) < 1e-10

    def test_convexity_bound(self):
        G = gg.builtin("holomorphic_pair")
        P0 = gr.standard_plane(3, 2)
        rng = substream(24, 0)
        for _ in range(20):
            center = rng.uniform(-0.4, 0.4, 3)
            radius = float(rng.uniform(0.05, 0.3))
            mean = gg.mean_gauss_image(G, center, radius, order=6)
            # sup of v over the closed ball: slope = 1 + 4 r^2 is radial
            sup_v = 1.0 + 4.0 * (np.linalg.norm(center[:2]) + radius) ** 2
            assert gr.v_value(mean, P0) <= sup_v + 1e-9

    @pytest.mark.parametrize("make", [
        lambda: gg.builtin("affine"),
        lambda: gg.builtin("holomorphic_pair"),
        lambda: gg.builtin("lawson_osserman"),
        lambda: gg.graph_from_spec(POLY_SPEC),
    ])
    def test_base_plane_chart_is_the_transposed_jacobian(self, make):
        # mean_gauss_image takes the chart around the base plane as Df^T and w = 1 / vol without
        # solving: pinned to chart_stack bitwise, at ball nodes and at points with zero coordinates,
        # save that the solve turns a -0.0 of Df into +0.0 (adding 0.0 does the same); the mean's
        # rows P0.frame + Zbar N0 drop the sign of every zero again
        G = make()
        nodes = gg._cube_rule(G.n, 4)[0]
        pts = np.concatenate([0.3 * nodes + 0.9, substream(27, G.n).uniform(0.3, 1.2, (40, G.n))])
        pts[-20:, : G.n - 1] = 0.0
        pts = pts[G.contains(pts)]
        J = G.jac(pts)
        vol = np.sqrt(np.linalg.det(gg._metric(J)))
        Z, w = gr.chart_stack(gg._tangent_rows(J), gr.standard_plane(G.n, G.m), vol)
        assert Z.tobytes() == (np.swapaxes(J, -1, -2) + 0.0).tobytes()
        assert w.tobytes() == (1.0 / vol).tobytes()

    def test_steep_graph_is_out_of_chart(self):
        # |Df| = 1e13 gives w = 1e-13 <= CHART_TOL: refused as chart_stack refuses it
        G = gg.affine_graph(np.array([[1e13, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(OutOfChart, match="outside the chart"):
            gg.mean_gauss_image(G, np.zeros(3), 0.1, order=2)

    def test_shrinks_to_center(self):
        # the deviation is O(R^2): quartering under halving, below 1e-4 by R = 5e-3
        G = gg.builtin("holomorphic_pair")
        center = np.array([0.25, -0.15, 0.3])
        gauss0 = gg.point_geometry(G, center).gauss
        d_coarse = gr.distance(gg.mean_gauss_image(G, center, 1e-2, order=4), gauss0)
        d_fine = gr.distance(gg.mean_gauss_image(G, center, 5e-3, order=4), gauss0)
        assert d_fine < 1e-4
        assert d_coarse / d_fine == pytest.approx(4.0, rel=0.2)


class TestPolynomialGraphs:
    def test_json_roundtrip_matches_builtin(self):
        spec = {
            "n": 3,
            "m": 2,
            "components": [
                {"monomials": [
                    {"exponents": [2, 0, 0], "coeff": 1.0},
                    {"exponents": [0, 2, 0], "coeff": -1.0},
                ]},
                {"monomials": [{"exponents": [1, 1, 0], "coeff": 2.0}]},
            ],
        }
        G = gg.graph_from_spec(spec)
        H = gg.builtin("holomorphic_pair")
        rng = substream(25, 0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            assert np.abs(G.f(x) - H.f(x)).max() < 1e-12
            assert np.abs(G.jac(x) - H.jac(x)).max() < 1e-12
            assert np.abs(G.hess(x) - H.hess(x)).max() < 1e-12

    def test_named_spec(self):
        G = gg.graph_from_spec({"name": "lawson_osserman"})
        assert G.name == "lawson_osserman"

    def test_building_evaluates_nothing(self, monkeypatch):
        # the tables are exact by construction: a spec is built without evaluating f, Df or D^2 f
        def evaluate(*args):
            raise AssertionError("a table was evaluated")

        monkeypatch.setattr(gg, "_evaluate", evaluate)
        G = gg.graph_from_spec(POLY_SPEC)
        with pytest.raises(AssertionError, match="evaluated"):
            G.f(np.zeros(3))

    @pytest.mark.parametrize("spec", [None, 5, "abc", [1, 2], {"n": "x", "m": 1, "components": []}])
    def test_malformed_spec(self, spec):
        with pytest.raises(DimensionMismatch):
            gg.graph_from_spec(spec)

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_malformed(self, coeff):
        # a non-finite coefficient gives a graph whose geometry fails in linalg
        comps = [[(1.0, (2, 0)), (coeff, (0, 2))]]
        with pytest.raises(DimensionMismatch, match="malformed graph spec"):
            gg.polynomial_graph(2, 1, comps)

    @pytest.mark.parametrize("exps", [(2.5, 0), (1, 0.5), (math.nan, 0), (math.inf, 0), (-1, 2)])
    def test_non_integer_or_negative_exponent_is_malformed(self, exps):
        with pytest.raises(DimensionMismatch, match="malformed graph spec"):
            gg.polynomial_graph(2, 1, [[(1.0, exps)]])

    @pytest.mark.parametrize("coeff,exps", [("abc", (2, 0)), (None, (2, 0)), ([1.0], (2, 0)),
                                            (10**400, (2, 0)), (1.0, ("a", 0)), (1.0, 5)])
    def test_non_numeric_monomial_is_malformed(self, coeff, exps):
        # JSON gives strings, null, lists and big integers as readily as numbers
        with pytest.raises(DimensionMismatch, match="malformed graph spec"):
            gg.polynomial_graph(2, 1, [[(coeff, exps)]])

    def test_integral_float_exponent_is_kept(self):
        # 2.0 is the integer 2, as JSON writers may emit it
        G = gg.polynomial_graph(2, 1, [[(1.0, (2.0, 0.0))]])
        assert G.f(np.array([0.5, 0.3]))[0] == 0.25

    def test_derivatives_keep_an_integer_multiplier(self):
        # d/dx then d/dy of 0.1 x^3 y is (0.1, 3, x^2): the coefficient is rounded once, as 0.1 * 3
        rows = [(0.1, 1, (3, 1)), (2.0, 1, (0, 2))]
        assert gg._derivative(rows, 0) == [(0.1, 3, (2, 1))]
        assert gg._derivative(gg._derivative(rows, 0), 1) == [(0.1, 3, (2, 0))]
        assert gg._derivative(gg._derivative(rows, 1), 1) == [(2.0, 2, (0, 0))]
        G = gg.polynomial_graph(2, 1, [[(0.1, (3, 1)), (2.0, (0, 2))]])
        x = np.array([0.7, -0.3])
        assert G.hess(x)[0, 0, 1] == G.hess(x)[0, 1, 0] == 0.1 * 3 * 0.7**2
        assert G.hess(x)[0, 1, 1] == 4.0


# a (3, 2) spec with quadratic, cubic and linear terms, not minimal
KERNEL_SPEC = {
    "n": 3,
    "m": 2,
    "components": [
        {"monomials": [
            {"exponents": [2, 0, 0], "coeff": 1.0},
            {"exponents": [0, 2, 0], "coeff": -1.0},
            {"exponents": [1, 0, 2], "coeff": 0.3},
        ]},
        {"monomials": [
            {"exponents": [1, 1, 0], "coeff": 2.0},
            {"exponents": [0, 3, 0], "coeff": -0.2},
            {"exponents": [0, 0, 1], "coeff": 0.5},
        ]},
    ],
}


def kernel_points(G, rng, count):
    if G.name == "lawson_osserman":
        x = rng.standard_normal((count, 4))
        return x * (rng.uniform(0.5, 2.0, count) / np.linalg.norm(x, axis=1))[:, None]
    return rng.uniform(-0.8, 0.8, (count, G.n))


def kernel_digest(count=50):
    """sha256 over seeded points of each builtin and KERNEL_SPEC: jac and hess of one point and
    of the stack, every `point_geometry` field, `graph_v`, both Laplacians at the base plane
    and at a tilted P0, and the FD at two steps."""
    digest = hashlib.sha256()

    def put(*values):
        for value in values:
            digest.update(np.ascontiguousarray(value, dtype=float).tobytes())

    graphs = [gg.builtin(name) for name in BUILTINS] + [gg.graph_from_spec(KERNEL_SPEC)]
    for k, G in enumerate(graphs):
        P0 = gr.from_chart(np.full((G.n, G.m), 0.07), gr.standard_plane(G.n, G.m))
        put(P0.frame, P0.normal_frame)
        pts = kernel_points(G, substream(26, k), count)
        put(G.jac(pts), G.hess(pts), gg.graph_v(G, pts), gg.graph_v(G, pts, P0))
        for x in pts:
            pg = gg.point_geometry(G, x)
            put(G.jac(x), G.hess(x), pg.slope, pg.jac, pg.lambdas, pg.h, pg.norm_b2, pg.mean_h,
                gg._metric(pg.jac), pg.gauss.frame)
            for Q in (None, P0):
                put(gg.laplacian_v_closed_form(G, x, Q))
                for step in (1e-3, 2e-3):
                    put(gg.laplacian_v_finite_difference(G, x, Q, step=step))
    return digest.hexdigest()


class TestKernelBits:
    def test_kernel_digest(self):
        # taken before the per-call trims of the kernels: any moved bit of their outputs fails here
        assert kernel_digest() == "3c97d49d742df05cb70c75b5af3226102f4dc4576d74fc6ee4e84bb9f1caa811"
