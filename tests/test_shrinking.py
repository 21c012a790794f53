import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gbl import grassmann as gr
from gbl import shrinking as sh
from gbl.errors import InversionFailure, OutOfChart, PreconditionViolated, Stalled
from gbl.rng import substream


def point_at_v(P1, target_v, rng):
    """Random plane with v(., P1) equal to target_v."""
    Z0 = rng.standard_normal((P1.n, P1.m))
    scale = brentq(lambda t: float(gr.chart_v(t * Z0)) - target_v, 0.0, 100.0)
    return gr.from_chart(scale * Z0, P1)


class TestParameters:
    def test_cosine_sum_identity(self):
        p = sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9)
        # c = sec(alpha - beta) with alpha = arccos(1/a) and beta = arccos(1/b)
        direct = 1.0 / math.cos(math.acos(1.0 / p.a) - math.acos(1.0 / p.b))
        assert p.c == pytest.approx(direct, abs=1e-12)

    def test_threshold_at_three(self):
        assert abs(sh.threshold(3.0) - math.sqrt(6.0) / 2.0) < 1e-12

    def test_ordering_validation(self):
        with pytest.raises(PreconditionViolated):
            sh.ShrinkParameters(a=3.0, b=2.95, beta0=2.9)
        with pytest.raises(PreconditionViolated):
            sh.ShrinkParameters(a=1.0, b=1.0, beta0=1.0)


class TestShrinkCenter:
    def test_identical_witness(self):
        P1 = gr.standard_plane(2, 2)
        res = sh.shrink_center(P1, P1, sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9))
        assert res.case in ("TrivialCenter", "CaseI")
        assert res.new_bound_on_q == 1.0

    def test_below_threshold_is_trivial(self):
        # b = 1.2 < sqrt(6)/2 ~ 1.2247
        rng = substream(30, 0)
        P1 = gr.standard_plane(2, 2)
        Q = point_at_v(P1, 1.15, rng)
        res = sh.shrink_center(P1, Q, sh.ShrinkParameters(a=3.0, b=1.2, beta0=2.9))
        assert res.case == "TrivialCenter"
        assert gr.distance(res.p2, Q) < 1e-12

    def test_case_two_lands_on_c(self):
        rng = substream(30, 1)
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9)
        for _ in range(10):
            Q = point_at_v(P1, 2.8, rng)
            res = sh.shrink_center(P1, Q, params)
            assert res.case == "CaseII"
            assert gr.v_value(res.p2, P1) == pytest.approx(params.c, abs=1e-9)
            assert gr.v_value(Q, res.p2) == pytest.approx(res.new_bound_on_q, abs=1e-9)

    def test_precondition(self):
        rng = substream(30, 2)
        P1 = gr.standard_plane(2, 2)
        Q = point_at_v(P1, 2.85, rng)
        with pytest.raises(PreconditionViolated):
            sh.shrink_center(P1, Q, sh.ShrinkParameters(a=3.0, b=2.0, beta0=2.9))

    def test_monotone_profile_function(self):
        # t -> prod sec(theta (1 - t/L)) strictly decreases on [0, L]
        rng = substream(30, 3)
        thetas = rng.uniform(0.1, 1.1, 3)
        L = float(np.linalg.norm(thetas))
        ts = np.linspace(0.0, L, 200)
        vals = [float(np.prod(1.0 / np.cos(thetas * (1 - t / L)))) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 100_000))
    def test_monotone_profile_property(self, seed):
        rng = substream(31, seed)
        m = int(rng.integers(1, 5))
        thetas = rng.uniform(0.05, 1.2, m)
        L = float(np.linalg.norm(thetas))
        t1, t2 = sorted(rng.uniform(0.0, L, 2))
        if t2 - t1 < 1e-9:
            return
        v1 = float(np.prod(1.0 / np.cos(thetas * (1 - t1 / L))))
        v2 = float(np.prod(1.0 / np.cos(thetas * (1 - t2 / L))))
        assert v1 > v2


class TestContainment:
    def test_degenerate_center(self):
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.0, beta0=2.9)
        margin = sh.containment_check(P1, P1, params, samples=2_000, seed=0)
        # the infimum over the full sublevel set is a - b; samples approach it from above
        assert params.a - params.b - 1e-12 <= margin <= params.a - params.b + 0.01

    def test_sample_reaches_the_sublevel_boundary(self):
        # with P2 = P1 the margin is a - max v over the sample, so it reads how close the sample
        # comes to v = b: 2.6e-4 above a - b at this size, where a sample of {v <= 0.999 b}
        # could come no closer than 2.8e-3
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9)
        margin = sh.containment_check(P1, P1, params, samples=2_000, seed=0)
        assert params.a - params.b - 1e-12 <= margin <= params.a - params.b + 1e-3

    def test_case_two_containment(self):
        rng = substream(32, 0)
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9)
        Q = point_at_v(P1, 2.8, rng)
        res = sh.shrink_center(P1, Q, params)
        assert sh.containment_check(P1, res.p2, params, samples=10_000, seed=1) >= -1e-9

    def test_margin_shrinks_towards_a(self):
        # one witness direction scaled to each b isolates the b-dependence
        rng = substream(32, 1)
        P1 = gr.standard_plane(2, 2)
        Z0 = rng.standard_normal((2, 2))
        margins = []
        for b in (2.0, 2.5, 2.9):
            params = sh.ShrinkParameters(a=3.0, b=b, beta0=2.9)
            scale = brentq(lambda t: float(gr.chart_v(t * Z0)) - b, 0.0, 100.0)
            Q = gr.from_chart(scale * Z0, P1)
            res = sh.shrink_center(P1, Q, params)
            margins.append(sh.containment_check(P1, res.p2, params, samples=20_000, seed=2))
        assert margins[0] > margins[1] > margins[2] >= -1e-9

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_refused(self, samples):
        # an empty sample has no worst margin: refused instead of np.min of nothing
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.8, beta0=2.9)
        with pytest.raises(PreconditionViolated):
            sh.containment_check(P1, P1, params, samples=samples)


class TestEpsilon1:
    def test_first_branch_at_three(self):
        res = sh.compute_epsilon1(3.0, 2.9, m=2)
        assert res.first_branch == pytest.approx(math.sqrt(6.0) / 2.0 - 1.0, abs=1e-12)

    def test_degenerate_slice(self):
        thr = sh.threshold(3.0)
        res = sh.compute_epsilon1(3.0, thr, m=2)
        assert res.epsilon1 > 0.0

    def test_below_threshold_only_first_branch(self):
        res = sh.compute_epsilon1(3.0, 1.1, m=2)
        assert res.epsilon1 == res.first_branch
        assert res.epsilon2 == math.inf

    # eps1 at a = 3, beta0 = 2.9: F on the equal-angle face, theta_i = arccos(2.9^(-1/m))
    PINS = {1: 0.0931428896, 2: 0.0676472800, 3: 0.0612990840, 4: 0.0584507447, 6: 0.0557997092, 16: 0.0527424139}

    def test_regression_baselines(self):
        for m, pin in self.PINS.items():
            res = sh.compute_epsilon1(3.0, 2.9, m=m)
            assert res.epsilon1 == pytest.approx(pin, abs=1e-9)
            assert res.argmin_b == 2.9
            assert np.allclose(res.argmin_thetas, math.acos(2.9 ** (-1.0 / m)), rtol=0, atol=1e-15)

    def test_builds_no_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("eps1 built a grid")

        monkeypatch.setattr(sh.np, "meshgrid", no_grid)
        assert sh.compute_epsilon1(3.0, 2.9, 16).epsilon1 == pytest.approx(self.PINS[16], abs=1e-9)

    def test_needs_m_at_least_one(self):
        with pytest.raises(PreconditionViolated):
            sh.compute_epsilon1(3.0, 2.9, 0)

    @pytest.mark.parametrize("a,beta0", [(3.0, 2.9), (5.0, 4.5), (1.5, 1.4), (10.0, 9.0)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_face_audit(self, a, beta0, m):
        # F sampled on the face prod sec(theta) = b and inside c < prod sec(theta) < b,
        # for 41 values of b in [threshold, beta0], never falls below eps1: the smaller of
        # the equal-angle witness at b = beta0 and threshold - 1, which F takes at b = threshold
        rng = substream(39, m)
        eps = sh.compute_epsilon1(a, beta0, m)
        worst = math.inf
        for b in np.linspace(sh.threshold(a), beta0, 41):
            c = sh.ShrinkParameters(a, b, beta0).c
            face = np.arccos(np.exp(-rng.dirichlet(np.ones(m), 200) * math.log(b)))
            for thetas in (face, feasible_profiles(b, c, m, 200, rng)):
                worst = min(worst, float(np.min(b - sh._case_two(thetas, c)[1])))
        assert worst >= eps.epsilon1 - 1e-12

    def test_sampled_decrement_respects_epsilon1(self):
        rng = substream(33, 0)
        P1 = gr.standard_plane(2, 2)
        eps = sh.compute_epsilon1(3.0, 2.9, m=2)
        for b in (1.5, 2.0, 2.5, 2.8, 2.9):
            params = sh.ShrinkParameters(a=3.0, b=b, beta0=2.9)
            for _ in range(25):
                Q = point_at_v(P1, float(rng.uniform(1.0 + 1e-6, b)), rng)
                res = sh.shrink_center(P1, Q, params)
                assert res.new_bound_on_q <= max(b - eps.epsilon1, 1.0 + 1e-9)


class TestSphericalLaw:
    def test_triangle_inequality_along_geodesics(self):
        rng = substream(34, 0)
        P0 = gr.standard_plane(2, 2)
        for _ in range(50):
            Q = gr.from_chart(rng.uniform(-1.0, 1.0, (2, 2)), P0)
            P1 = gr.from_chart(rng.uniform(-1.0, 1.0, (2, 2)), Q)
            dec = gr.jordan_decompose(Q, P1)
            L = float(np.linalg.norm(dec.pair_angles))
            if L < 1e-6:
                continue
            t = float(rng.uniform(0.1, 0.9)) * L
            G = gr.geodesic(Q, P1, t)
            r = lambda A, B: math.acos(min(1.0, gr.w_pairing(A, B)))
            assert r(Q, G) + r(G, P1) >= r(Q, P1) - 1e-9

    def test_equality_for_single_angle_pairs(self):
        # with one active principal angle the geodesic is an ambient great circle
        theta = 1.1
        Q = gr.make_point(np.array([[1.0, 0, 0], [0, 1, 0]]))
        P1 = gr.make_point(np.array([[math.cos(theta), 0, math.sin(theta)], [0, 1, 0]]))
        t = 0.4 * theta
        G = gr.geodesic(Q, P1, t)
        r = lambda A, B: math.acos(min(1.0, gr.w_pairing(A, B)))
        assert r(Q, G) + r(G, P1) == pytest.approx(r(Q, P1), abs=1e-9)


class TestIterate:
    def make_cloud(self, bound, count, seed, n=2, m=2):
        Zs = gr.sample_chart_sublevel(n, m, bound, count, substream(35, seed))
        P0 = gr.standard_plane(n, m)
        return [gr.from_chart(Z, P0) for Z in Zs]

    def test_zero_iterations_below_threshold(self):
        cloud = self.make_cloud(1.2, 16, 0)
        params = sh.ShrinkParameters(a=3.0, b=1.2, beta0=1.2)
        trace = sh.iterate(cloud, 1.2, params, epsilon1=0.2)
        assert trace.k_actual == 0
        assert trace.bounds == [1.2]

    def test_concentrated_cloud_jumps_to_one(self):
        # cloud sits near the old center while the certified bound is loose:
        # the witness lands inside the case-I radius, so the new center is the
        # cloud point itself and the bound collapses to 1
        rng = substream(35, 7)
        P0 = gr.standard_plane(2, 2)
        pt = point_at_v(P0, 1.01, rng)
        params = sh.ShrinkParameters(a=3.0, b=2.0, beta0=2.0)
        trace = sh.iterate([pt] * 8, 2.0, params, epsilon1=0.1)
        assert trace.k_actual == 1
        assert trace.cases == ["CaseI"]
        assert trace.bounds[-1] <= 1.0 + 1e-9

    def test_iteration_count_within_plan(self):
        eps = sh.compute_epsilon1(3.0, 2.9, m=2)
        cloud = self.make_cloud(2.9, 48, 1)
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        trace = sh.iterate(cloud, 2.9, params, epsilon1=eps.epsilon1)
        k_formula = int((3.0 - math.sqrt(6.0) / 2.0) / eps.epsilon1) + 1
        assert trace.k_planned == k_formula
        assert 1 <= trace.k_actual <= trace.k_planned
        assert trace.bounds[-1] < sh.threshold(3.0)

    def test_bounds_decrease_by_epsilon1(self):
        eps = sh.compute_epsilon1(3.0, 2.9, m=2)
        cloud = self.make_cloud(2.9, 32, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        trace = sh.iterate(cloud, 2.9, params, epsilon1=eps.epsilon1)
        for prev, new in zip(trace.bounds, trace.bounds[1:]):
            assert new <= max(prev - eps.epsilon1, 1.0 + 1e-9) + 1e-12

    def test_cloud_exceeding_bound_rejected(self):
        cloud = self.make_cloud(2.9, 16, 3)
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        with pytest.raises(PreconditionViolated):
            sh.iterate(cloud, 1.5, params, epsilon1=0.1)


def brentq_inverse(y, n, m):
    """t_embedding_inverse of one vector by a scalar brentq on the radius."""
    y = np.asarray(y, dtype=float).ravel()
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return np.zeros((n, m))
    direction = y.reshape(n, m) / ny
    target = 1.0 + ny

    def grow(t):
        return float(np.sqrt(np.linalg.det(np.eye(n) + (t * t) * (direction @ direction.T)))) - target

    hi = math.sqrt(min(n, m)) * math.sqrt(target * target - 1.0) + 1.0
    return brentq(grow, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200) * direction


def per_point_iterate(cloud, q0_bound, params, epsilon1, contraction=0.5):
    """`iterate` with every cloud point re-charted, inverted and orthonormalised on its own."""
    P = gr.standard_plane(cloud[0].n, cloud[0].m)
    n, m = P.n, P.m

    def embed(points, center):
        return gr.t_embedding(np.stack([gr.to_chart(pt, center) for pt in points]))

    trace = sh.IterationTrace(epsilon1=epsilon1, k_planned=int((params.a - params.threshold) / epsilon1) + 1)
    bj = q0_bound
    trace.bounds.append(bj)
    while bj >= params.threshold and trace.k_actual < trace.k_planned + 5:
        q = gr.from_chart(brentq_inverse(embed(cloud, P).mean(axis=0), n, m), P)
        res = sh.shrink_center(P, q, dataclasses.replace(params, b=bj))
        target = max(bj - epsilon1, 1.0 + 1e-9)
        rho = contraction
        for _ in range(60):
            yq = embed([q], res.p2)[0]
            new_cloud = [gr.from_chart(brentq_inverse(yq + rho * (y - yq), n, m), res.p2)
                         for y in embed(cloud, res.p2)]
            bn = max(gr.v_value(pt, res.p2) for pt in new_cloud)
            if bn <= target:
                break
            rho *= 0.5
        if bn > max(bj - 0.5 * epsilon1, 1.0 + 1e-9):
            raise Stalled("no eps1/2 decrement")
        cloud, P, bj = new_cloud, res.p2, bn
        trace.bounds.append(bj)
        trace.cases.append(res.case)
        trace.k_actual += 1
    return trace


class TestIterateOracle:
    """The stacked iteration against the per-point one it replaced."""

    @pytest.mark.parametrize("n,m,count,eps1", [(2, 2, 60, 0.06819684), (3, 2, 60, 0.06819684),
                                                (4, 3, 6, 0.06141896)])
    def test_matches_per_point_iteration(self, n, m, count, eps1):
        P0 = gr.standard_plane(n, m)
        Zs = gr.sample_chart_sublevel(n, m, 2.9, count, substream(36, n))
        cloud = [gr.from_chart(Z, P0) for Z in Zs]
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        got = sh.iterate(cloud, 2.9, params, epsilon1=eps1)
        ref = per_point_iterate(cloud, 2.9, params, eps1)
        assert got.k_actual == ref.k_actual >= 1
        assert got.cases == ref.cases
        assert np.abs(np.subtract(got.bounds, ref.bounds)).max() < 1e-12
        assert got.bounds[-1] < sh.threshold(3.0)

    def test_point_outside_initial_chart(self):
        cloud = TestIterate().make_cloud(2.0, 8, 4)
        # spans the normal directions of the standard plane: w = 0
        cloud.append(gr.GrassmannPoint(np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])))
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        with pytest.raises(OutOfChart):
            sh.iterate(cloud, 2.9, params, epsilon1=0.1)


def bisection_decrement(b, c, thetas):
    """F = b - v(Q, gamma(t0)) with t0 by a 60-step batched bisection of -sum log cos."""
    logc = math.log(c)
    lo = np.zeros(thetas.shape[0])
    hi = np.ones(thetas.shape[0])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = -np.sum(np.log(np.cos(thetas * (1.0 - mid)[:, None])), axis=1) > logc
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    s0 = 0.5 * (lo + hi)
    return b - np.exp(-np.sum(np.log(np.cos(thetas * s0[:, None])), axis=1))


def bisection_shrink_center(P1, Q, params):
    """(case, t0, new bound) of `shrink_center` with t0 by a 64-step scalar bisection."""
    if params.b < params.threshold:
        return "TrivialCenter", None, 1.0
    c = params.c
    if gr.v_value(Q, P1) < c:
        return "CaseI", None, 1.0
    angles = gr.jordan_decompose(Q, P1).pair_angles
    L = float(np.linalg.norm(angles))

    def excess(t):
        return -float(np.sum(np.log(np.cos(angles * (1.0 - t / L))))) - math.log(c)

    lo, hi = 0.0, L
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t0 = 0.5 * (lo + hi)
    return "CaseII", t0, float(np.exp(-np.sum(np.log(np.cos(angles * (t0 / L))))))


def feasible_profiles(b, c, m, count, rng):
    """Angle profiles with prod sec(theta) strictly inside (c, b), in closed form."""
    logv = math.log(c) + rng.uniform(0.01, 0.99, count) * (math.log(b) - math.log(c))
    shares = rng.dirichlet(np.ones(m), count)
    return np.arccos(np.exp(-shares * logv[:, None]))


class TestCaseTwoRoot:
    """The Newton fraction of the log-sec profile against the bisections it replaced."""

    B_VALUES = (sh.threshold(3.0) + 1e-6, 1.5, 2.2, 2.9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_decrement_matches_bisection(self, m):
        rng = substream(37, m)
        for b in self.B_VALUES:
            c = sh.ShrinkParameters(a=3.0, b=b, beta0=2.9).c
            thetas = feasible_profiles(b, c, m, 2000, rng)
            sec = np.prod(1.0 / np.cos(thetas), axis=1)
            assert np.all((sec > c) & (sec < b))
            assert np.abs(b - sh._case_two(thetas, c)[1] - bisection_decrement(b, c, thetas)).max() < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 3), (4, 4)])
    def test_shrink_center_matches_bisection(self, n, m):
        rng = substream(38, m)
        P1 = gr.standard_plane(n, m)
        cases = set()
        for b in self.B_VALUES:
            params = sh.ShrinkParameters(a=3.0, b=b, beta0=2.9)
            for lo in (1.0 + 1e-6, params.c):
                for _ in range(5):
                    Q = point_at_v(P1, float(rng.uniform(lo, b)), rng)
                    res = sh.shrink_center(P1, Q, params)
                    case, t0, bound = bisection_shrink_center(P1, Q, params)
                    cases.add(case)
                    assert res.case == case
                    if case == "CaseII":
                        assert abs(res.t0 - t0) <= 1e-12 * gr.distance(Q, P1)
                        assert abs(res.new_bound_on_q - bound) < 1e-12
        assert cases == {"CaseI", "CaseII"}

    def test_newton_cap(self, monkeypatch):
        P1 = gr.standard_plane(2, 2)
        params = sh.ShrinkParameters(a=3.0, b=2.9, beta0=2.9)
        Q = point_at_v(P1, 2.9, substream(38, 9))
        monkeypatch.setattr(gr, "_NEWTON_CAP", 2)
        with pytest.raises(InversionFailure):
            sh.shrink_center(P1, Q, params)
