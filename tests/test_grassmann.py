import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize
from scipy.stats import ks_2samp

from gbl import grassmann as gr
from gbl.errors import (CutLocus, DimensionMismatch, InversionFailure, OutOfChart, PreconditionViolated,
                        RankDeficient)
from gbl.rng import substream


def finite_matrix(n, m, lo=-2.0, hi=2.0):
    return arrays(np.float64, (n, m), elements=st.floats(lo, hi, allow_nan=False))


def chart_thetas(Zs):
    """Principal angles of chart matrices (..., n, m) to the chart center: arctan of their singular values."""
    return np.arctan(np.linalg.svd(Zs, compute_uv=False))


def random_angle_point(P0, thetas, rng):
    """Plane whose principal angles to P0 are exactly `thetas`."""
    n, m = P0.n, P0.m
    p = len(thetas)
    O1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    O2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    Z = O1[:, :p] @ np.diag(np.tan(thetas)) @ O2[:p, :].T if p < m else O1[:, :m] @ np.diag(np.tan(thetas)) @ O2.T
    return gr.from_chart(Z, P0)


def in_bjx(P, P0):
    """True iff every pairwise sum of principal angles to P0 is below pi/2."""
    thetas = gr.jordan_decompose(P, P0).pair_angles[: min(P.n, P.m)]
    return bool(thetas[:2].sum() < np.pi / 2)


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
        P = gr.make_point(rng.standard_normal((3, 5)))
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
            P, Q = gr.make_point(rng.standard_normal((3, 5))), gr.make_point(rng.standard_normal((3, 5)))
            assert gr.w_pairing(P, Q) == pytest.approx(gr.w_pairing(Q, P), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gr.w_pairing(gr.standard_plane(2, 2), gr.standard_plane(3, 2))


class TestJordan:
    def test_equal_planes_zero_angles(self):
        P = gr.make_point(substream(2, 0).standard_normal((4, 7)))
        dec = gr.jordan_decompose(P, P)
        assert np.abs(dec.pair_angles).max() == 0.0

    def test_single_rotation_block(self):
        theta = 0.9
        P = gr.make_point(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        Q = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1.0, 0]]))
        dec = gr.jordan_decompose(P, Q)
        assert dec.pair_angles[0] == pytest.approx(theta, abs=1e-12)
        assert dec.pair_angles[1:] == pytest.approx(0.0, abs=1e-7)

    def test_determinant_reconstruction(self):
        rng = substream(2, 1)
        for _ in range(50):
            P, Q = gr.make_point(rng.standard_normal((3, 6))), gr.make_point(rng.standard_normal((3, 6)))
            W = P.frame @ Q.frame.T
            dec = gr.jordan_decompose(P, Q)
            recon = dec.orientation * np.prod(np.cos(dec.pair_angles))
            assert abs(np.linalg.det(W) - recon) < 1e-10

    def test_aligned_bases(self):
        rng = substream(2, 2)
        P, Q = gr.make_point(rng.standard_normal((4, 6))), gr.make_point(rng.standard_normal((4, 6)))
        dec = gr.jordan_decompose(P, Q)
        overlap = dec.left_basis @ dec.right_basis.T
        assert np.abs(overlap - np.diag(np.cos(dec.pair_angles))).max() < 1e-10
        # the left basis is a positively oriented frame of P
        assert np.linalg.det(dec.left_basis @ P.frame.T) > 0


class TestDistance:
    def test_zero_on_diagonal(self):
        P = gr.make_point(substream(3, 0).standard_normal((3, 5)))
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
            P, Q, R = (gr.make_point(rng.standard_normal((2, 4))) for _ in range(3))
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
        assert gr.v_value(P, P0) == pytest.approx(float(np.prod(1.0 / np.cos(dec.pair_angles))), rel=1e-10)

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
        P0 = gr.make_point(rng.standard_normal((3, 6)))
        for _ in range(20):
            Z = rng.uniform(-2, 2, (3, 3))
            assert np.abs(gr.to_chart(gr.from_chart(Z, P0), P0) - Z).max() < 1e-9

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 3)])
    def test_chart_stack_matches_to_chart(self, n, m):
        rng = substream(5, 3 + n)
        P0 = gr.make_point(rng.standard_normal((n, n + m)))
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
        assert np.abs(np.tan(dec.pair_angles[:2]) - svals).max() < 1e-10

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


class TestAdaptedFrames:
    @pytest.mark.parametrize("n, m", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("theta", [1e-7, 1e-12, 0.7])
    def test_tan_angles_orthonormal_and_paired(self, n, m, theta):
        rng = substream(9, n)
        P0 = gr.make_point(rng.standard_normal((n, n + m)))
        thetas = np.array([theta, 0.5 * theta])
        O1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        O2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        P = gr.from_chart(O1[:, :2] @ np.diag(np.tan(thetas)) @ O2[:, :2].T, P0)
        frames = gr.adapted_frames(P, P0)
        expected = np.zeros(m)
        expected[:2] = np.tan(thetas)
        assert np.abs(frames.lambdas - expected).max() <= 1e-15
        rows = np.vstack([frames.tangent, frames.normal])
        assert np.abs(rows @ rows.T - np.eye(n + m)).max() <= 1e-14
        assert np.abs(frames.tangent @ P.normal_frame.T).max() <= 1e-14
        # cos(theta_c) tangent[c] - sin(theta_c) normal[c] lies in P0
        lam = frames.lambdas[:2, None]
        in_p0 = (frames.tangent[:2] - lam * frames.normal[:2]) / np.sqrt(1.0 + lam**2)
        assert np.abs(in_p0 @ P0.normal_frame.T).max() <= 1e-14
        # the one unpaired row lies in P0 (a tangent) or is normal to it
        if n > m:
            assert np.abs(frames.tangent[2:] @ P0.normal_frame.T).max() <= 1e-14
        else:
            assert np.abs(frames.normal[2:] @ P0.frame.T).max() <= 1e-14


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
            assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
            quad = X.ravel() @ gr.hessian_v(P, P0) @ X.ravel()
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
        assert in_bjx(P0, P0)

    def test_sum_exceeding(self):
        rng = substream(8, 0)
        P0 = gr.standard_plane(2, 2)
        P = random_angle_point(P0, np.array([math.pi / 3, math.pi / 3]), rng)
        assert not in_bjx(P, P0)

    def test_sublevel_two_inside(self):
        # every plane with v < 2 keeps pairwise angle sums below pi/2
        rng = substream(8, 1)
        for (n, m) in ((2, 2), (3, 2)):
            Zs = gr.sample_chart_sublevel(n, m, 2.0, 50_000, rng)
            thetas = chart_thetas(Zs[gr.chart_v(Zs) < 2.0])
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
    """Uniform chart matrices with v(Z) <= v_bound by rejection from the box |Z_ij| <= sqrt(v_bound^2 - 1)."""
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


def slsqp_max_log_density(p, excess, r2, rng, starts=20):
    """Largest SLSQP maximum of `log_ball_density` over the simplex sum u <= r2, u >= 0."""
    best = -math.inf
    for _ in range(starts):
        res = minimize(lambda u: -gr.log_ball_density(np.maximum(u, 1e-300), excess),
                       rng.dirichlet(np.ones(p)) * r2 * 0.99, method="SLSQP", bounds=[(1e-12, r2)] * p,
                       constraints=[{"type": "ineq", "fun": lambda u: r2 - np.sum(u)}])
        if res.success:
            best = max(best, -res.fun)
    return best


class TestChartSampler:
    @pytest.mark.parametrize("n,m,v_bound,count", [(2, 2, 2.9, 5_000), (3, 2, 2.9, 2_000), (2, 3, 2.9, 2_000),
                                                   (4, 3, 1.2, 150)])
    def test_matches_the_box_sampler(self, n, m, v_bound, count):
        # the box draw is uniform on the sublevel set by construction; at (4, 3) it accepts
        # about 3e-4 of its draws, so the bound and count keep it under a second
        got = gr.sample_chart_sublevel(n, m, v_bound, 5_000, substream(10, 10 * n + m))
        ref = chart_v_only_sampler(n, m, v_bound, count, substream(11, 10 * n + m))
        for stat in (gr.chart_v, lambda Zs: chart_thetas(Zs)[:, 0], lambda Zs: chart_thetas(Zs)[:, -1],
                     lambda Zs: Zs[:, 0, 0]):
            assert ks_2samp(stat(got), stat(ref)).pvalue > 0.01

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (4, 3), (4, 4), (6, 4)])
    def test_every_row_lies_in_the_sublevel_set(self, n, m):
        Zs = gr.sample_chart_sublevel(n, m, 2.9, 3_000, substream(12, 10 * n + m))
        assert Zs.shape == (3_000, n, m)
        assert np.all(gr.chart_v(Zs) <= 2.9)
        assert np.unique(Zs[:, 0, 0]).size == 3_000

    def test_bound_below_one_is_a_precondition_error(self):
        # the CLI turns a GBLError into exit code 2; a bare ValueError would escape it
        with pytest.raises(PreconditionViolated):
            gr.sample_chart_sublevel(2, 2, 0.5, 10, substream(12, 0))

    @pytest.mark.parametrize("p,excess", [(1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 2), (6, 0)])
    @pytest.mark.parametrize("v_bound", [1.1, 2.9, 20.0])
    def test_envelope_bounds_the_density(self, p, excess, v_bound):
        r2 = 2.0 * math.log(v_bound)
        envelope = gr.log_ball_envelope(p, excess, r2)
        rng = substream(13, 10 * p + excess)
        # 1e5 proposals, uniform on the ball orthant |w|^2 <= r2
        x = rng.standard_normal((100_000, p + 2))
        u = r2 * x[:, :p] ** 2 / np.sum(x**2, axis=1)[:, None]
        assert np.max(gr.log_ball_density(u.T, excess)) <= envelope
        assert slsqp_max_log_density(p, excess, r2, rng) <= envelope

    @pytest.mark.parametrize("p,excess", [(1, 0), (1, 1), (1, 3), (2, 0)])
    def test_envelope_is_the_maximum_up_to_two_angles(self, p, excess):
        # one angle has no Vandermonde factor; with two and n = m, t_1 - t_2 <= t_1 is tight
        # at t_2 = 0, where the maximum lies
        r2 = 2.0 * math.log(2.9)
        best = slsqp_max_log_density(p, excess, r2, substream(14, p))
        assert abs(gr.log_ball_envelope(p, excess, r2) - best) < 1e-6

    def test_ball_coordinates_round_trip(self):
        s = substream(15, 0).uniform(0.0, 3.0, (100, 4))
        w = gr.to_ball(s)
        assert np.abs(gr.from_ball(w) - s).max() < 1e-13
        assert np.abs(0.5 * np.sum(w**2, axis=1) - gr.log_volume(s**2)).max() < 1e-13
