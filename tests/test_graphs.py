import math

import numpy as np
import pytest

from gbl import certifier as ct
from gbl import graphs as gg
from gbl import grassmann as gr
from gbl.errors import OutOfDomain, UnknownName
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
        G = gg.builtin("affine", A=np.zeros((2, 3)), b=np.array([1.0, -2.0]))
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
        for x in X[1:]:
            assert G.contains(x) is False
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


class TestPointGeometry:
    def test_affine_flat(self):
        A = np.array([[0.5, -0.25, 0.0], [0.1, 0.3, -0.2]])
        G = gg.builtin("affine", A=A)
        pg = gg.point_geometry(G, np.array([0.2, -0.1, 0.4]))
        assert pg.norm_b2 == 0.0
        assert np.abs(np.sort(pg.lambdas) - np.sort(np.linalg.svd(A, compute_uv=False))).max() < 1e-12

    def test_metric_identity(self):
        G = gg.builtin("holomorphic_pair")
        rng = substream(21, 0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            J = G.jac(x)
            assert np.abs(gg.point_geometry(G, x).g - np.eye(3) - J.T @ J).max() < 1e-12

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


class TestClosedForm:
    def test_affine_zero(self):
        G = gg.builtin("affine")
        assert gg.laplacian_v_closed_form(G, np.array([0.1, 0.2, 0.3])) == 0.0

    def test_holomorphic_strong_subharmonicity(self):
        # Delta v >= K0 |B|^2 wherever the slope stays below 2.9
        G = gg.builtin("holomorphic_pair")
        cert = ct.compute_K0(3, 2, 2.9, audit_samples=2_000, seed=7)
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


class TestFiniteDifference:
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
        # the stencil and the flux coefficients each take one batched Jacobian
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
        assert calls == [2, 2, 2]

    def test_domain_margin(self):
        G = gg.builtin("lawson_osserman")
        with pytest.raises(OutOfDomain):
            gg.laplacian_v_finite_difference(G, np.array([1e-4, 0, 0, 0]), step=1e-3)


class TestEllipticity:
    def test_flat_graph(self):
        G = gg.builtin("affine", A=np.zeros((2, 3)))
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
