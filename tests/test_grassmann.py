import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbl import grassmann as gr
from gbl.errors import CutLocus, DimensionMismatch, InversionFailure, OutOfChart, RankDeficient
from gbl.rng import substream


def finite_matrix(n, m, lo=-2.0, hi=2.0):
    return arrays(np.float64, (n, m), elements=st.floats(lo, hi, allow_nan=False))


def random_angle_point(P0, thetas, rng):
    """Plane whose principal angles to P0 are exactly `thetas`."""
    n, m = P0.n, P0.m
    p = len(thetas)
    O1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    O2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Z = O1[:, :p] @ np.diag(np.tan(thetas)) @ O2[:p, :].T if p < m else O1[:, :m] @ np.diag(np.tan(thetas)) @ O2.T
    return gr.from_chart(Z, P0)


class TestMakePoint:
    def test_identity_block_is_fixed(self):
        P = gr.make_point(np.hstack([np.eye(3), np.zeros((3, 2))]))
        assert np.abs(P.frame - np.hstack([np.eye(3), np.zeros((3, 2))])).max() < 1e-14

    def test_scaling_invariance(self):
        rng = substream(0, 0)
        rows = rng.standard_normal((3, 5))
        P1 = gr.make_point(rows)
        P2 = gr.make_point(2.0 * rows)
        assert np.abs(P1.frame - P2.frame).max() < 1e-10

    def test_duplicated_row_rank_deficient(self):
        rows = np.array([[1.0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 0, 0, 0]])
        with pytest.raises(RankDeficient):
            gr.make_point(rows)

    @settings(max_examples=40, derandomize=True)
    @given(finite_matrix(3, 5))
    def test_orthonormal_when_full_rank(self, rows):
        svals = np.linalg.svd(rows, compute_uv=False)
        if svals[-1] < 1e-6:
            return
        P = gr.make_point(rows)
        assert np.abs(P.frame @ P.frame.T - np.eye(3)).max() < 1e-10


class TestPairing:
    def test_self_pairing_is_one(self):
        rng = substream(1, 0)
        P = gr.random_point(3, 2, rng)
        assert gr.w_pairing(P, P) == pytest.approx(1.0, abs=1e-12)

    def test_single_rotation_gives_cosine(self):
        # x-y plane vs the plane rotated by theta in the (x, z) coordinate plane:
        # the 2x2 pairing matrix is diag(cos theta, 1), determinant cos theta
        theta = 0.7
        P = gr.make_point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        Q = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1.0, 0]]))
        assert gr.w_pairing(P, Q) == pytest.approx(math.cos(theta), abs=1e-14)

    def test_symmetry(self):
        rng = substream(1, 1)
        for _ in range(25):
            P, Q = gr.random_point(3, 2, rng), gr.random_point(3, 2, rng)
            assert gr.w_pairing(P, Q) == pytest.approx(gr.w_pairing(Q, P), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gr.w_pairing(gr.standard_plane(2, 2), gr.standard_plane(3, 2))


class TestJordan:
    def test_equal_planes_zero_angles(self):
        P = gr.random_point(4, 3, substream(2, 0))
        dec = gr.jordan_decompose(P, P)
        assert np.abs(dec.thetas).max() == 0.0

    def test_single_rotation_block(self):
        theta = 0.9
        P = gr.make_point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        Q = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1.0, 0]]))
        dec = gr.jordan_decompose(P, Q)
        assert dec.thetas[0] == pytest.approx(theta, abs=1e-12)
        assert dec.pair_angles[1:] == pytest.approx(0.0, abs=1e-7)

    def test_determinant_reconstruction(self):
        rng = substream(2, 1)
        for _ in range(50):
            P, Q = gr.random_point(3, 3, rng), gr.random_point(3, 3, rng)
            W = P.frame @ Q.frame.T
            dec = gr.jordan_decompose(P, Q)
            recon = dec.orientation * np.prod(np.cos(dec.pair_angles))
            assert abs(np.linalg.det(W) - recon) < 1e-10

    def test_aligned_bases(self):
        rng = substream(2, 2)
        P, Q = gr.random_point(4, 2, rng), gr.random_point(4, 2, rng)
        dec = gr.jordan_decompose(P, Q)
        overlap = dec.left_basis @ dec.right_basis.T
        assert np.abs(overlap - np.diag(np.cos(dec.pair_angles))).max() < 1e-10
        # the left basis is a positively oriented frame of P
        assert np.linalg.det(dec.left_basis @ P.frame.T) > 0


class TestDistance:
    def test_zero_on_diagonal(self):
        P = gr.random_point(3, 2, substream(3, 0))
        assert gr.distance(P, P) == 0.0

    def test_single_rotation_value(self):
        theta = 0.4
        P = gr.make_point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        Q = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1.0, 0]]))
        assert gr.distance(P, Q) == pytest.approx(theta, abs=1e-7)

    def test_triangle_inequality_sampled(self):
        rng = substream(3, 1)
        worst = math.inf
        for _ in range(10_000):
            P, Q, R = (gr.random_point(2, 2, rng) for _ in range(3))
            worst = min(worst, gr.distance(P, R) + gr.distance(R, Q) - gr.distance(P, Q))
        assert worst >= -1e-9


class TestV:
    def test_center_value(self):
        P0 = gr.standard_plane(3, 2)
        assert gr.v_value(P0, P0) == pytest.approx(1.0, abs=1e-14)

    def test_two_unit_slopes(self):
        # lambda = (1, 1) means v = sqrt(2) * sqrt(2) = 2
        P0 = gr.standard_plane(2, 2)
        P = gr.from_chart(np.eye(2), P0)
        assert gr.v_value(P, P0) == pytest.approx(2.0, abs=1e-12)

    def test_reciprocal_identity_sampled(self):
        rng = substream(4, 0)
        Zs = rng.uniform(-2, 2, size=(10_000, 2, 2))
        vs = gr.chart_v(Zs)
        P0 = gr.standard_plane(2, 2)
        for Z, v in zip(Zs[:200], vs[:200]):
            P = gr.from_chart(Z, P0)
            assert gr.v_value(P, P0) * gr.w_pairing(P, P0) == pytest.approx(1.0, abs=1e-10)
            assert gr.v_value(P, P0) == pytest.approx(v, abs=1e-9 * v)

    def test_product_of_secants(self):
        rng = substream(4, 1)
        P0 = gr.standard_plane(3, 2)
        P = gr.from_chart(rng.uniform(-1, 1, (3, 2)), P0)
        dec = gr.jordan_decompose(P, P0)
        assert gr.v_value(P, P0) == pytest.approx(float(np.prod(1.0 / dec.mus)), rel=1e-10)

    def test_out_of_chart(self):
        P0 = gr.standard_plane(1, 1)
        flipped = gr.GrassmannPoint(np.array([[-1.0, 0.0]]))
        with pytest.raises(OutOfChart):
            gr.v_value(flipped, P0)


class TestChart:
    def test_zero_matrix_is_center(self):
        P0 = gr.standard_plane(3, 2)
        P = gr.from_chart(np.zeros((3, 2)), P0)
        assert gr.distance(P, P0) < 1e-12

    @settings(max_examples=50, derandomize=True)
    @given(finite_matrix(3, 2))
    def test_round_trip(self, Z):
        P0 = gr.standard_plane(3, 2)
        assert np.abs(gr.to_chart(gr.from_chart(Z, P0), P0) - Z).max() < 1e-9

    def test_round_trip_generic_center(self):
        rng = substream(5, 0)
        P0 = gr.random_point(3, 3, rng)
        for _ in range(20):
            Z = rng.uniform(-2, 2, (3, 3))
            assert np.abs(gr.to_chart(gr.from_chart(Z, P0), P0) - Z).max() < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3)])
    def test_chart_stack_matches_to_chart(self, n, m):
        rng = substream(5, 3 + n)
        P0 = gr.random_point(n, m, rng)
        planes = [gr.from_chart(Z, P0) for Z in rng.uniform(-2, 2, (12, n, m))]
        R = np.stack([P.frame for P in planes])
        Zs, w = gr.chart_stack(R, P0, 1.0)
        assert Zs.tobytes() == np.stack([gr.to_chart(P, P0) for P in planes]).tobytes()
        assert w.tobytes() == np.array([gr.w_pairing(P, P0) for P in planes]).tobytes()
        # reversing one row reverses the orientation, so w < 0 for two members
        R[[3, 7], 0] *= -1.0
        with pytest.raises(OutOfChart, match=r"^2 plane\(s\) outside"):
            gr.chart_stack(R, P0, 1.0)
        with pytest.raises(OutOfChart, match=r"^1 plane\(s\) outside"):
            gr.to_chart(gr.GrassmannPoint(R[3]), P0)

    def test_singular_values_are_tangents(self):
        rng = substream(5, 1)
        P0 = gr.standard_plane(4, 2)
        Z = rng.uniform(-2, 2, (4, 2))
        dec = gr.jordan_decompose(gr.from_chart(Z, P0), P0)
        svals = np.sort(np.linalg.svd(Z, compute_uv=False))[::-1]
        assert np.abs(np.tan(dec.thetas) - svals).max() < 1e-10

    def test_chart_v_formula(self):
        rng = substream(5, 2)
        P0 = gr.standard_plane(3, 2)
        Z = rng.uniform(-2, 2, (3, 2))
        expected = math.sqrt(np.linalg.det(np.eye(3) + Z @ Z.T))
        assert gr.v_value(gr.from_chart(Z, P0), P0) == pytest.approx(expected, rel=1e-11)


class TestGeodesic:
    def setup_method(self):
        self.rng = substream(6, 0)

    def pair(self, n=3, m=2):
        # P1 from a chart of Q: all mutual angles below pi/2, orientations agree
        P0 = gr.standard_plane(n, m)
        Q = gr.from_chart(self.rng.uniform(-1.5, 1.5, (n, m)), P0)
        P1 = gr.from_chart(self.rng.uniform(-1.5, 1.5, (n, m)), Q)
        return Q, P1

    def test_endpoints(self):
        Q, P1 = self.pair()
        L = gr.distance(Q, P1)
        assert gr.distance(gr.geodesic(Q, P1, 0.0), Q) < 1e-9
        assert gr.distance(gr.geodesic(Q, P1, L), P1) < 1e-9

    def test_single_rotation_midpoint(self):
        theta = 1.0
        Q = gr.make_point(np.array([[1.0, 0, 0], [0, 1, 0]]))
        P1 = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1, 0]]))
        mid = gr.geodesic(Q, P1, theta / 2)
        assert gr.distance(mid, Q) == pytest.approx(theta / 2, abs=1e-9)
        assert gr.distance(mid, P1) == pytest.approx(theta / 2, abs=1e-9)

    def test_isometric_parametrisation(self):
        for _ in range(40):
            Q, P1 = self.pair()
            L = gr.distance(Q, P1)
            t = float(self.rng.uniform(0, L))
            G = gr.geodesic(Q, P1, t)
            assert gr.distance(Q, G) == pytest.approx(t, abs=1e-9)
            assert gr.distance(G, P1) == pytest.approx(L - t, abs=1e-9)

    def test_v_profile_along_geodesic(self):
        Q, P1 = self.pair()
        dec = gr.jordan_decompose(Q, P1)
        L = float(np.linalg.norm(dec.pair_angles))
        t = 0.37 * L
        expected = float(np.prod(1.0 / np.cos(dec.pair_angles * (t / L))))
        assert gr.v_value(Q, gr.geodesic(Q, P1, t)) == pytest.approx(expected, rel=1e-9)

    def test_cut_locus_rejection(self):
        Q = gr.make_point(np.array([[1.0, 0, 0], [0, 1, 0]]))
        P1 = gr.make_point(np.array([[0.0, 0, 1.0], [0, 1, 0]]))  # angle pi/2
        with pytest.raises(CutLocus):
            gr.geodesic(Q, P1, 0.1)

    def test_orientation_reversal_rejected(self):
        Q = gr.standard_plane(1, 1)
        flipped = gr.GrassmannPoint(np.array([[-1.0, 0.0]]))
        with pytest.raises(CutLocus):
            gr.geodesic(Q, flipped, 0.1)


class TestHessian:
    def test_center_structure(self):
        # at the center all couplings vanish and the matrix is the identity
        P0 = gr.standard_plane(3, 2)
        M = gr.hessian_v(P0, P0)
        assert np.abs(M - np.eye(6)).max() < 1e-12

    def test_geodesic_second_difference(self):
        rng = substream(7, 0)
        P0 = gr.standard_plane(3, 2)
        worst = 0.0
        for _ in range(20):
            P = random_angle_point(P0, rng.uniform(0, 1.2, 2), rng)
            P1 = gr.from_chart(rng.uniform(-1.0, 1.0, (3, 2)), P)
            frames = gr.adapted_frames(P, P0)
            X = gr.geodesic_velocity(P, P1, frames)
            assert X.norm == pytest.approx(1.0, abs=1e-12)
            quad = X.coeffs.ravel() @ gr.hessian_v(P, P0) @ X.coeffs.ravel()
            h = 1e-3
            vals = [gr.v_value(gr.geodesic(P, P1, t), P0) for t in (-2 * h, -h, 0.0, h, 2 * h)]
            fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
            worst = max(worst, abs(fd - quad) / abs(quad))
        assert worst < 1e-5

    @pytest.mark.parametrize("beta0", [0.5, 1.0, 1.4])
    def test_eigenvalue_lower_bound(self, beta0):
        rng = substream(7, int(beta0 * 10))
        P0 = gr.standard_plane(3, 2)
        for _ in range(100):
            P = random_angle_point(P0, rng.uniform(0, beta0 / 2, 2), rng)
            v = gr.v_value(P, P0)
            low = np.linalg.eigvalsh(gr.hessian_v(P, P0))[0]
            assert low >= math.cos(beta0) * v - 1e-9


class TestBjx:
    def test_center(self):
        P0 = gr.standard_plane(3, 2)
        assert gr.in_bjx(P0, P0)

    def test_sum_exceeding(self):
        rng = substream(8, 0)
        P0 = gr.standard_plane(2, 2)
        P = random_angle_point(P0, np.array([math.pi / 3, math.pi / 3]), rng)
        assert not gr.in_bjx(P, P0)

    def test_sublevel_two_inside(self):
        # every plane with v < 2 keeps pairwise angle sums below pi/2
        rng = substream(8, 1)
        for (n, m) in ((2, 2), (3, 2)):
            Zs = gr.sample_chart_sublevel(n, m, 2.0, 50_000, rng)
            thetas = gr.chart_thetas(Zs[gr.chart_v(Zs) < 2.0])
            assert thetas.shape[0] > 40_000
            assert np.max(thetas[:, 0] + thetas[:, 1]) < math.pi / 2


class TestTEmbedding:
    def test_zero(self):
        assert np.abs(gr.t_embedding(np.zeros((2, 2)))).max() == 0.0
        assert np.abs(gr.t_embedding_inverse(np.zeros(4), 2, 2)).max() == 0.0

    def test_norm_identity_sampled(self):
        rng = substream(9, 0)
        for _ in range(200):
            Z = rng.uniform(-2, 2, (3, 2))
            v = float(gr.chart_v(Z[None])[0])
            assert abs(np.linalg.norm(gr.t_embedding(Z)) - (v - 1.0)) < 1e-10

    def test_small_radius_keeps_relative_accuracy(self):
        # sqrt(det(I + Z Z^T)) - 1 rounds to 0 here; the log-volume form keeps 5e-19
        Z = np.diag([1e-9, 0.0])
        y = gr.t_embedding(Z)
        assert abs(np.linalg.norm(y) - 5e-19) <= 1e-12 * 5e-19
        assert np.abs(gr.t_embedding_inverse(y, 2, 2) - Z).max() <= 1e-12 * 1e-9

    @settings(max_examples=50, derandomize=True)
    @given(finite_matrix(2, 2, -3.0, 3.0))
    def test_round_trip(self, Z):
        back = gr.t_embedding_inverse(gr.t_embedding(Z), 2, 2)
        assert np.abs(back - Z).max() < 1e-8

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3)])
    def test_stack_maps_as_its_items(self, n, m):
        Zs = substream(9, 1).uniform(-2, 2, (300, n, m))
        Zs[0] = 0.0
        stacked = gr.t_embedding(Zs)
        assert stacked.shape == (300, n * m)
        assert stacked.tobytes() == np.stack([gr.t_embedding(Z) for Z in Zs]).tobytes()

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3), (3, 1), (1, 3)])
    def test_stacked_inverse_round_trip(self, n, m):
        Zs = substream(9, 2).uniform(-2, 2, (300, n, m))
        Zs[::50] = 0.0
        back = gr.t_embedding_inverse(gr.t_embedding(Zs), n, m)
        assert back.shape == (300, n, m)
        assert np.abs(back - Zs).max() < 1e-12
        assert np.all(back[::50] == 0.0)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3), (3, 1), (1, 3)])
    def test_inverse_stack_maps_as_its_items(self, n, m):
        ys = gr.t_embedding(substream(9, 3).uniform(-2, 2, (200, n, m)))
        ys[7] = 0.0
        items = np.stack([gr.t_embedding_inverse(y, n, m) for y in ys])
        assert items.shape == (200, n, m)
        assert gr.t_embedding_inverse(ys, n, m).tobytes() == items.tobytes()
        blocks = gr.t_embedding_inverse(ys.reshape(20, 10, n * m), n, m)
        assert blocks.tobytes() == items.tobytes()

    def test_inverse_shapes(self):
        assert gr.t_embedding_inverse(np.ones(6), 3, 2).shape == (3, 2)
        with pytest.raises(DimensionMismatch):
            gr.t_embedding_inverse(np.ones(5), 3, 2)
        with pytest.raises(DimensionMismatch):
            gr.t_embedding_inverse(np.ones((3, 2)), 3, 2)

    def test_inverse_cap(self, monkeypatch):
        monkeypatch.setattr(gr, "_NEWTON_CAP", 2)
        with pytest.raises(InversionFailure):
            gr.t_embedding_inverse(np.full(4, 2.0), 2, 2)
        assert np.all(gr.t_embedding_inverse(np.zeros(4), 2, 2) == 0.0)


def chart_v_only_sampler(n, m, v_bound, count, rng):
    """sample_chart_sublevel without the norm pre-filter: the same draws and batch sizing."""
    half = math.sqrt(v_bound * v_bound - 1.0)
    out, filled, rate = [], 0, 0.25
    while filled < count:
        draw = int(min(2_000_000, max(1024, 1.2 * (count - filled) / rate)))
        Zs = rng.uniform(-half, half, size=(draw, n, m))
        keep = Zs[gr.chart_v(Zs) <= v_bound]
        rate = max(keep.shape[0] / draw, 1e-3)
        take = min(count - filled, keep.shape[0])
        out.append(keep[:take])
        filled += take
    return np.concatenate(out)


class TestChartSampler:
    @pytest.mark.parametrize("n,m,count", [(2, 2, 5_000), (3, 2, 2_000), (4, 3, 5)])
    def test_norm_prefilter_keeps_the_accepted_set(self, n, m, count):
        # 1 + |Z|_F^2 <= det(I + Z Z^T) makes the pre-filter a necessary condition
        got = gr.sample_chart_sublevel(n, m, 2.9, count, substream(10, n))
        ref = chart_v_only_sampler(n, m, 2.9, count, substream(10, n))
        assert got.tobytes() == ref.tobytes()
