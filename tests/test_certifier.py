import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gbl import certifier as ct
from gbl import graphs as gg
from gbl import grassmann as gr
from gbl.errors import DimensionMismatch, PreconditionViolated
from gbl.rng import substream


def v_of(lams):
    """v = prod sqrt(1 + lambda^2) of one profile."""
    return float(np.prod(np.sqrt(1.0 + lams**2)))


def random_h(n, m, rng):
    """A standard normal (m, n, n) tensor, symmetrised in (i, j)."""
    h = rng.standard_normal((m, n, n))
    return 0.5 * (h + h.transpose(0, 2, 1))


def unflatten_h(u, n, m):
    """Inverse of `flatten_h` for one vector."""
    pairs, _, weights = ct._pair_table(n)
    u = np.asarray(u, dtype=float).reshape(m, len(pairs)) / weights
    h = np.zeros((m, n, n))
    for k, (i, j) in enumerate(pairs):
        h[:, i, j] = u[:, k]
        h[:, j, i] = u[:, k]
    return h


class TestLaplacian:
    def test_flat_profile_gives_norm(self):
        rng = substream(10, 0)
        h = random_h(3, 2, rng)
        assert ct.laplacian_v_batch(np.zeros(2), h) == pytest.approx(np.sum(h**2), rel=1e-13)

    def test_zero_tensor(self):
        assert ct.laplacian_v_batch(np.array([0.5, 0.3]), np.zeros((2, 3, 3))) == 0.0

    def test_grouped_sum_oracle(self):
        rng = substream(10, 1)
        for _ in range(50):
            lams = rng.uniform(0, 1.3, 3)
            h = random_h(3, 3, rng)
            dv = ct.laplacian_v_batch(lams, h)
            assert ct.decompose_terms(lams, h).total() * v_of(lams) == pytest.approx(
                dv, rel=1e-10, abs=1e-10
            )

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            ct.laplacian_v_batch(np.zeros(2), np.zeros((3, 3, 3)))
        with pytest.raises(DimensionMismatch):
            ct.laplacian_v_batch(np.zeros((4, 2)), np.zeros((4, 3, 3, 3)))
        with pytest.raises(DimensionMismatch):
            ct.laplacian_v_batch(np.zeros((4, 3)), np.zeros((5, 3, 3, 3)))
        with pytest.raises(DimensionMismatch):
            ct.decompose_terms(np.zeros(2), np.zeros((3, 3, 3)))
        with pytest.raises(DimensionMismatch):
            ct.decompose_terms(np.zeros(3), np.zeros((3, 3, 4)))

    @pytest.mark.parametrize("name", ["affine", "holomorphic_pair", "lawson_osserman"])
    def test_one_profile_is_row_zero_of_its_stack(self, name):
        # the per-point closed form passes one (m,) profile: bitwise the K = 1 stack
        G = gg.builtin(name)
        rng = substream(10, 20 + len(name))
        tilted = gr.from_chart(np.full((G.n, G.m), 0.05), gr.standard_plane(G.n, G.m))
        checked = 0
        while checked < 10:
            x = rng.uniform(-0.8, 0.8, G.n)
            if not G.contains(x):
                continue
            checked += 1
            for P0 in (None, tilted):
                lams, h = gg._adapted_second_form(G.jac(x), G.hess(x), P0)
                one = ct.laplacian_v_batch(lams, h)
                assert np.shape(one) == ()
                assert one.tobytes() == ct.laplacian_v_batch(lams[None], h[None])[0].tobytes()
                assert gg.laplacian_v_closed_form(G, x, P0) == one

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 3)])
    def test_hessian_contraction(self, n, m):
        # sum_j X_j^T Hess v X_j with (X_j)_{i,a} = h_{a,ij} is Delta v at the plane's adapted lambdas
        rng = substream(10, 10 * n + m)
        P0 = gr.random_point(n, m, rng)
        for _ in range(20):
            P = gr.from_chart(rng.uniform(-1.0, 1.0, (n, m)), P0)
            h = random_h(n, m, rng)
            X = h.transpose(2, 1, 0).reshape(n, n * m)
            quad = np.einsum("jp,pq,jq->", X, gr.hessian_v(P, P0), X)
            lams = gr.adapted_frames(P, P0).lambdas
            assert quad == pytest.approx(ct.laplacian_v_batch(lams, h), rel=1e-13)


class TestQuadraticForm:
    def test_flat_profile_identity(self):
        D = ct.form_dimension(4, 2)
        assert np.abs(ct.quadratic_form_batch(4, 2, np.zeros((1, 2)))[0] - np.eye(D)).max() == 0.0

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 4)])
    def test_form_matches_evaluation(self, n, m):
        rng = substream(11, n * 10 + m)
        lams = ct.sample_admissible_lambdas(m, 3.0, 200, rng)
        hs = rng.standard_normal((200, m, n, n))
        hs = 0.5 * (hs + hs.transpose(0, 1, 3, 2))
        dv = ct.laplacian_v_batch(lams, hs)
        us = ct.flatten_h(hs)
        Ms = ct.quadratic_form_batch(n, m, lams)
        quad = np.einsum("ki,kij,kj->k", us, Ms, us)
        assert np.abs(quad - dv).max() / np.abs(dv).max() < 1e-12

    def test_flatten_preserves_norm(self):
        rng = substream(11, 99)
        h = random_h(4, 3, rng)
        u = ct.flatten_h(h)
        assert u @ u == pytest.approx(np.sum(h**2), rel=1e-13)
        assert np.abs(unflatten_h(u, 4, 3) - h).max() < 1e-13

    def test_critical_slope_boundary(self):
        # v = 3 at lambda = (sqrt(2), sqrt(2), 0): the form degenerates but stays PSD
        lams = np.array([[math.sqrt(2), math.sqrt(2), 0.0]])
        eig = np.linalg.eigvalsh(ct.quadratic_form_batch(4, 3, lams)[0])[0]
        assert eig >= -1e-9
        assert eig < 1e-6


class TestDecomposition:
    def test_codimension_one_empty_groups(self):
        rng = substream(12, 0)
        lams = np.array([0.8])
        h = random_h(3, 1, rng)
        td = ct.decompose_terms(lams, h)
        assert td.II_terms.size == 0
        assert td.III_terms.size == 0
        assert td.IV_terms.shape == (1,)
        assert td.total() * v_of(lams) == pytest.approx(ct.laplacian_v_batch(lams, h), rel=1e-12)

    def test_high_index_group_bound(self):
        # I_j - 2 sum_a h_{a,aj}^2 is a perfect square plus positive terms
        rng = substream(12, 1)
        lams = ct.sample_admissible_lambdas(3, 3.0, 100_000, rng)
        hs = rng.standard_normal((100_000, 3))
        s = np.einsum("ka,ka->k", lams, hs)
        vals = s**2 + np.einsum("ka,ka->k", lams**2, hs**2)
        assert float(vals.min()) >= -1e-12

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_grouping_identity_property(self, seed):
        rng = substream(12, 2 + seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        m = min(m, n)
        lams = rng.uniform(0, 1.5, m)
        h = random_h(n, m, rng)
        dv = ct.laplacian_v_batch(lams, h)
        assert ct.decompose_terms(lams, h).total() * v_of(lams) == pytest.approx(
            dv, rel=1e-10, abs=1e-10
        )


def exhaustive_form_eigenvalues(n, m, lams):
    """Per-profile smallest form eigenvalue: v times lambda_min over every distinct block."""
    low = np.concatenate(ct._block_min_eigs(ct._distinct_stacks(n, m), lams), axis=1).min(axis=1)
    return np.prod(np.sqrt(1.0 + lams**2), axis=-1) * low


def batch_minimum(values):
    """The (first argmin, min) that `min_form_eigenvalue` returns."""
    return int(np.argmin(values)), float(values.min())


class TestBlockCatalogue:
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (3, 3), (4, 3), (4, 4), (6, 4)])
    def test_blockwise_matches_dense(self, n, m):
        lams = ct.sample_admissible_lambdas(m, 3.0, 500, substream(17, n * 10 + m))
        dense = np.linalg.eigvalsh(ct.quadratic_form_batch(n, m, lams))[:, 0]
        exhaustive = exhaustive_form_eigenvalues(n, m, lams)
        assert np.abs(exhaustive - dense).max() < 1e-12
        assert ct.min_form_eigenvalue(n, m, lams) == batch_minimum(exhaustive)

    @pytest.mark.parametrize("m", [2, 3])
    def test_independent_of_n(self, m):
        lams = ct.sample_admissible_lambdas(m, 3.0, 2_000, substream(17, 100 + m))
        assert np.array_equal(exhaustive_form_eigenvalues(m + 1, m, lams), exhaustive_form_eigenvalues(m + 4, m, lams))
        assert ct.min_form_eigenvalue(m + 1, m, lams) == ct.min_form_eigenvalue(m + 4, m, lams)

    def test_chunks_do_not_change_values(self):
        lams = ct.sample_admissible_lambdas(3, 3.0, ct.CHUNK + 7, substream(17, 200))
        half = lams.shape[0] // 2
        whole = exhaustive_form_eigenvalues(4, 3, lams)
        parts = np.concatenate([exhaustive_form_eigenvalues(4, 3, lams[:half]),
                                exhaustive_form_eigenvalues(4, 3, lams[half:])])
        assert whole.tobytes() == parts.tobytes()
        (i, low_i), (j, low_j) = ct.min_form_eigenvalue(4, 3, lams[:half]), ct.min_form_eigenvalue(4, 3, lams[half:])
        split = (i, low_i) if low_i <= low_j else (half + j, low_j)
        assert ct.min_form_eigenvalue(4, 3, lams) == split == batch_minimum(whole)

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (6, 4)])
    @pytest.mark.parametrize("beta0", [1.5, 2.5, 2.9])
    def test_k0_closed_form(self, n, m, beta0):
        # the II block v (1 - lambda_a lambda_b / 2) with lambda_a lambda_b <= v - 1
        cert = ct.compute_K0(n, m, beta0, audit_samples=2_000, seed=8)
        assert cert.k0 == pytest.approx(min(1.0, beta0 * (3.0 - beta0) / 2.0), abs=1e-6)

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 3)])
    def test_report_closed_form_gap(self, n, m):
        cert = ct.compute_K0(n, m, 2.9, audit_samples=2_000, seed=8)
        assert cert.k0_closed_form == ct.k0_closed_form(n, m, 2.9)
        assert cert.closed_form_gap == cert.k0 - cert.k0_closed_form
        assert abs(cert.closed_form_gap) <= 1e-6

    @pytest.mark.parametrize("beta0", [1.0, 1.5, 2.5, 2.9, 2.99])
    def test_closed_form_absent_at_two_two(self, beta0):
        # n = m = 2 has only the two IV blocks: neither II nor III gives the pair value
        assert [blk.kind for blk in ct.block_catalogue(2, 2)] == ["IV", "IV"]
        assert ct.k0_closed_form(2, 2, beta0) is None

    def test_report_without_closed_form(self):
        cert = ct.compute_K0(2, 2, 2.9, audit_samples=2_000, seed=8)
        assert cert.k0_closed_form is None and cert.closed_form_gap is None
        # the searched k0 lies 0.028 above the pair value the other shapes reach
        assert cert.k0 > ct.k0_closed_form(3, 2, 2.9) + 0.02

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 4), (1, 1), (3, 1), (6, 1)])
    @pytest.mark.parametrize("beta0", [1.0, 1.5, 2.5, 2.9, 2.99])
    def test_closed_form_kept_elsewhere(self, n, m, beta0):
        expected = 1.0 if m == 1 else min(1.0, beta0 * (3.0 - beta0) / 2.0)
        assert ct.k0_closed_form(n, m, beta0) == expected


def probe_profiles(n, m):
    """Sampled, zero, tied-lambda and pair-face profiles of the pruning tests."""
    sampled = ct.sample_admissible_lambdas(m, 3.0, 300, substream(19, 10 * n + m))
    tied = np.sqrt(np.expm1(np.log(np.array([1.5, 2.5, 2.9, 3.0]) ** 2) / m))[:, None] * np.ones(m)
    faces = np.zeros((4, m))
    if m >= 2:
        faces[:, :2] = np.sqrt(np.array([1.5, 2.5, 2.9, 3.0]) - 1.0)[:, None]
    return np.vstack([sampled, np.zeros((1, m)), tied, faces])


class TestPrunedMinimum:
    """The Gershgorin and LDL^T pruning of `_batch_minimum` and the premises they rest on."""

    def test_off_diagonal_coefficients_nonnegative(self):
        # with lambda >= 0 every feature is >= 0, so B(lambda) has no negative off-diagonal entry
        for m in range(1, 9):
            for n in range(m, 17):
                for blk in ct.block_catalogue(n, m):
                    off = ~np.eye(len(blk.slots), dtype=bool)
                    assert np.all(blk.coeffs[:, off] >= 0.0), (n, m, blk.kind, blk.key)

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3), (6, 4), (9, 8)])
    def test_bound_is_below_lambda_min(self, n, m):
        features = ct._features(probe_profiles(n, m))
        for stack, G in ct._pruning_stacks(n, m):
            bound = np.tensordot(features, G, axes=1).min(axis=-1)
            assert np.all(bound <= np.linalg.eigvalsh(np.tensordot(features, stack, axes=1))[..., 0] + 1e-12)

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3), (6, 4), (9, 8)])
    def test_batch_minimum_is_exhaustive(self, monkeypatch, n, m):
        # a small CHUNK puts the ties of the batch in different chunks
        monkeypatch.setattr(ct, "CHUNK", 64)
        sampled = ct.sample_admissible_lambdas(m, 3.0, 150, substream(19, 100 + 10 * n + m))
        worst = sampled[np.argmin(exhaustive_form_eigenvalues(n, m, sampled))]
        zeros = np.zeros((70, m))
        for lams in (
            np.vstack([zeros, sampled[:40], worst, sampled[40:], worst, zeros]),
            np.vstack([sampled[:60], np.repeat(worst[None], 10, axis=0), sampled[60:], zeros]),
            np.zeros((150, m)),
        ):
            exhaustive = exhaustive_form_eigenvalues(n, m, lams)
            assert np.count_nonzero(exhaustive == exhaustive.min()) >= 2
            assert ct.min_form_eigenvalue(n, m, lams) == batch_minimum(exhaustive)

    def test_negative_or_empty_batch_rejected(self):
        # the bound assumes lambda >= 0
        with pytest.raises(PreconditionViolated):
            ct.min_form_eigenvalue(4, 3, np.array([[0.5, 0.0, 0.0], [0.5, -0.1, 0.0]]))
        with pytest.raises(PreconditionViolated):
            ct.min_form_eigenvalue(4, 3, np.zeros((0, 3)))

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3), (6, 4), (9, 8)])
    def test_threshold_test_clears_only_blocks_above_the_cut(self, n, m):
        # a cleared block has lambda_min > shift - s^2 u |B|, far inside PRUNE_SLACK; at a shift of
        # exactly lambda_min rounding decides, so the test starts 1e-12 above it
        features = ct._features(probe_profiles(n, m))
        for stack, _ in ct._pruning_stacks(n, m):
            s = stack.shape[-1]
            B = ct._contract(features, stack).reshape(-1, s, s)
            low = np.linalg.eigvalsh(B)[:, 0]
            for above in (1e-12, ct.PRUNE_SLACK, 1.0):
                assert not ct._clears(B, low + above).any(), (s, above)
            assert ct._clears(B, low - 1e-10).all(), s

    def test_repeated_rows_are_skipped_only_with_equal_weights(self, monkeypatch):
        rows = []
        features = ct._features

        def counting(lams):
            rows.append(len(lams))
            return features(lams)

        monkeypatch.setattr(ct, "_features", counting)
        stacks = ct._pruning_stacks(4, 3)
        lams = np.repeat(np.array([[0.9, 0.4, 0.1]]), 4, axis=0)
        assert ct._batch_minimum(stacks, lams, np.full(4, 2.0))[0] == 0
        assert rows == [1]
        rows.clear()
        assert ct._batch_minimum(stacks, lams, np.array([3.0, 2.0, 2.0, 1.0]))[0] == 3
        assert rows == [3]

    def test_k0_search_prunes_half_the_eigensolves(self, monkeypatch):
        handed = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            handed.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ct.compute_K0(4, 3, 2.9, audit_samples=2_000, seed=8)
        assert 0 < sum(handed) <= 3_000
        handed.clear()
        # the beta0 = 1 mesh and audit are one zero profile each, 9 distinct blocks
        ct.compute_K0(4, 3, 1.0, audit_samples=2_000, seed=8)
        assert sum(handed) == 18


class TestK0Search:
    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 3), (6, 4), (3, 3), (4, 4)])
    @pytest.mark.parametrize("beta0", [2.5, 2.9, 2.99])
    def test_closed_form_oracle(self, n, m, beta0):
        # the pair profile (sqrt(beta0 - 1), sqrt(beta0 - 1), 0, ...) attains the closed form
        cert = ct.compute_K0(n, m, beta0, audit_samples=2_000, seed=8)
        assert abs(cert.closed_form_gap) <= 1e-14

    @pytest.mark.parametrize("beta0,recorded", [(2.5, 0.668483167922971), (2.9, 0.172955418985063)])
    def test_no_closed_form_at_two_two(self, beta0, recorded):
        # n = m = 2 has no II block; recorded from the mesh plus Nelder-Mead search
        k0 = ct.compute_K0(2, 2, beta0, audit_samples=2_000, seed=8).k0
        assert abs(k0 - recorded) <= 1e-9
        assert k0 <= recorded + 1e-12

    @pytest.mark.parametrize("n,m,moves", [(2, 2, True), (4, 3, False), (5, 3, False), (6, 4, False)])
    def test_where_the_face_search_works(self, n, m, moves):
        # trace[0] is the mesh-plus-pair minimum; at (2, 2) the face search lowers it
        # from 0.32145 to 0.17296, elsewhere no search follows the batch
        cert = ct.compute_K0(n, m, 2.9, audit_samples=0)
        drop = cert.min_eigenvalue_trace[0]["value"] - cert.k0
        if moves:
            assert drop > 0.1 and len(cert.min_eigenvalue_trace) == 2
        else:
            assert drop == 0.0 and len(cert.min_eigenvalue_trace) == 1

    @pytest.mark.parametrize("beta0", [1.5, 2.0, 2.09, 2.1, 2.19, 2.195, 2.5, 2.9, 2.99, 3.0])
    def test_two_two_is_below_a_dense_oracle(self, beta0):
        # every point of a 401^2 grid in u = log1p(lambda^2) over the admissible triangle and
        # of a 20,001-point line on its face u_1 + u_2 = 2 log beta0; a search that stays at
        # lambda = 0 reports k0 = 1 at 2.09-2.195, up to 7.7 % above this minimum
        cap = 2.0 * math.log(beta0)
        axis = np.linspace(0.0, cap, 401)
        U1, U2 = np.meshgrid(axis, axis, indexing="ij")
        inside = U1 + U2 <= cap
        face = np.linspace(0.0, cap, 20_001)
        u = np.vstack([np.column_stack([U1[inside], U2[inside]]), np.column_stack([face, cap - face])])
        _, oracle = ct.min_form_eigenvalue(2, 2, np.sqrt(np.expm1(u)))
        cert = ct.compute_K0(2, 2, beta0, audit_samples=0)
        assert cert.k0 <= oracle + 1e-12
        assert not cert.budget_exhausted
        assert v_of(np.array(cert.argmin_lambda)) <= beta0 * (1.0 + 1e-12)

    def test_face_search_counts_its_evaluations(self):
        # the 83 mesh rows at beta0 = 2.9, then one row per face evaluation
        cert = ct.compute_K0(2, 2, 2.9, audit_samples=0)
        assert cert.min_eigenvalue_trace[0]["evaluations"] == 83
        assert cert.evaluations == cert.min_eigenvalue_trace[1]["evaluations"]
        assert 83 < cert.evaluations <= 83 + 40

    def test_iteration_cap_exhausts_the_budget(self, monkeypatch):
        # the face search stopped by scipy's iteration cap says so; its best point still counts
        minimize_scalar = ct.minimize_scalar

        def capped(*args, **kwargs):
            return minimize_scalar(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 2}})

        monkeypatch.setattr(ct, "minimize_scalar", capped)
        cert = ct.compute_K0(2, 2, 2.9, audit_samples=0)
        assert cert.budget_exhausted
        assert cert.k0 < cert.min_eigenvalue_trace[0]["value"]
        assert not ct.compute_K0(4, 3, 2.9, audit_samples=0).budget_exhausted

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_form_is_symmetric_in_lambda(self, m):
        # what lets the search visit non-increasing profiles only
        lams = ct.sample_admissible_lambdas(m, 3.0, 300, substream(18, m))
        base = exhaustive_form_eigenvalues(m + 2, m, lams)
        _, low = ct.min_form_eigenvalue(m + 2, m, lams)
        for perm in itertools.permutations(range(m)):
            assert np.abs(exhaustive_form_eigenvalues(m + 2, m, lams[:, perm]) - base).max() <= 1e-13
            assert abs(ct.min_form_eigenvalue(m + 2, m, lams[:, perm])[1] - low) <= 1e-13

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("beta0", [1.0, 1.5, 2.0, 2.2, 2.5, 2.9, 2.99])
    def test_mesh_is_the_filtered_sorted_mesh(self, m, beta0):
        # every sorted row over the 17 axis values, then the admissibility filter: the
        # same rows, bitwise and in the same order
        lam_max = math.sqrt(beta0 * beta0 - 1.0)
        bound2 = beta0 * beta0 * (1.0 + 1e-12)
        g = ct.MESH_AXIS if lam_max > 0.0 else 1
        index = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(g), m))
        full = np.linspace(0.0, lam_max, g)[::-1][np.fromiter(index, dtype=np.intp).reshape(-1, m)]
        expected = full[np.prod(1.0 + full**2, axis=1) <= bound2]
        mesh = ct._admissible_mesh(m, lam_max, bound2)
        assert mesh.shape == expected.shape and mesh.tobytes() == expected.tobytes()

    def test_mesh_at_m_eight_builds_admissible_rows_only(self):
        # the full sorted mesh is C(24, 8) = 735,471 rows of 8 floats (47 MB), of which
        # 2,506 are admissible at beta0 = 2.9
        tracemalloc.start()
        mesh = ct._admissible_mesh(8, math.sqrt(2.9**2 - 1.0), 2.9**2 * (1.0 + 1e-12))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert mesh.shape == (2_506, 8)
        assert peak < 2_000_000

    def test_mesh_past_its_row_cap_is_refused(self):
        # within 1e-13 of beta0 = 1 the 1e-12 slack of the admissibility test admits
        # nearly all C(24, 8) = 735,471 sorted rows at m = 8
        with pytest.raises(PreconditionViolated):
            ct.compute_K0(8, 8, 1.0 + 1e-14, audit_samples=0)

    def test_k0_refuses_m_past_sixteen_before_building(self, monkeypatch):
        def no_mesh(*args):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(ct, "_admissible_mesh", no_mesh)
        with pytest.raises(PreconditionViolated):
            ct.compute_K0(17, 17, 2.9, audit_samples=0)


def worst_pair_margin(v_bound, samples, m=2, seed=0):
    """Worst II `block_margin` over sampled admissible profiles plus the tight pair
    lambda_a = lambda_b = sqrt(v_bound - 1), where the margin is ~0."""
    lams = ct.sample_admissible_lambdas(m, v_bound, samples, substream(seed, 0))
    tight = np.zeros((1, m))
    tight[0, :2] = math.sqrt(v_bound - 1.0)
    lams = np.vstack([lams, tight])
    return float(np.min(ct.block_margin("II", lams, np.prod(np.sqrt(1.0 + lams**2), axis=1))))


class TestPairBound:
    def test_worst_margin_nonnegative(self):
        assert worst_pair_margin(3.0, 100_000) >= -1e-12

    def test_degenerate_bound(self):
        assert worst_pair_margin(1.0, 1000) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("v_bound,expected", [(3.0, 2.0), (2.0, 1.0)])
    def test_max_product_by_optimization(self, v_bound, expected):
        # maximise lambda_1 lambda_2 on the boundary prod(1+lambda^2) = v_bound^2
        def neg_product(x):
            inner = v_bound**2 / (1.0 + x * x) - 1.0
            if inner <= 0:
                return 0.0
            return -x * math.sqrt(inner)

        res = minimize_scalar(
            neg_product, bounds=(0.0, math.sqrt(v_bound**2 - 1.0)), method="bounded",
            options={"xatol": 1e-12},
        )
        assert -res.fun == pytest.approx(expected, abs=1e-6)
        assert res.x == pytest.approx(math.sqrt(v_bound - 1.0), abs=1e-5)


class TestTripleBlock:
    def test_flat_profile_zero_eigenvalue(self):
        assert ct.block_margin("III", np.zeros((1, 3)), np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_boundary_profile(self):
        lams = np.array([[math.sqrt(2), math.sqrt(2), 0.0]])
        assert ct.block_margin("III", lams, np.array([3.0]))[0] >= -1e-9

    def test_sampled_admissible(self):
        rng = substream(13, 0)
        lams = ct.sample_admissible_lambdas(3, 3.0, 200_000, rng)
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        assert float(ct.block_margin("III", lams, vs).min()) >= -1e-9

    def test_pair_block_with_sampled_h(self):
        # 2 h1^2 + 2 h2^2 + 2 l1 l2 h1 h2 >= (3 - v)(h1^2 + h2^2) for v <= 3
        rng = substream(13, 1)
        lams = ct.sample_admissible_lambdas(2, 3.0, 200_000, rng)
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        hs = rng.standard_normal((200_000, 2))
        block = (
            2.0 * hs[:, 0] ** 2
            + 2.0 * hs[:, 1] ** 2
            + 2.0 * lams[:, 0] * lams[:, 1] * hs[:, 0] * hs[:, 1]
        )
        margin = block - (3.0 - vs) * (hs[:, 0] ** 2 + hs[:, 1] ** 2)
        assert float(margin.min()) >= -1e-9


class TestBlockMargin:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_I_block_closed_form(self, m):
        # B_I - I = (diag(lambda^2) + lambda lambda^T) / 2, PSD at every lambda:
        # the es1 lemma holds off the admissible set too
        lams = substream(14, 2).uniform(0.0, 2.0, (50, m))
        blocks = ct._contract(ct._features(lams), ct._kind_stacks(m + 1, m)["I"][1])[:, 0]
        closed = (np.einsum("ka,ab->kab", lams**2, np.eye(m)) + lams[:, :, None] * lams[:, None, :]) / 2.0
        assert np.abs(blocks - np.eye(m) - closed).max() <= 1e-15

    @pytest.mark.parametrize("m", range(1, 9))
    def test_I_block_coefficients_closed_form(self, m):
        # B_I - I = Lambda M Lambda with Lambda = diag(lambda) and M = (I + 1 1^T) / 2, read
        # off the coefficients: lambda_a^2 carries M_aa at (a, a), lambda_a lambda_b carries
        # M_ab at (a, b) and (b, a); M > 0, so B_I - I is PSD at every lambda (the es1 lemma)
        coeffs = ct._kind_stacks(m + 1, m)["I"][1][:, 0]
        M = (np.eye(m) + np.ones((m, m))) / 2.0
        expected = np.zeros_like(coeffs)
        expected[0] = np.eye(m)
        for a in range(m):
            expected[1 + a, a, a] = M[a, a]
        for f, (a, b) in enumerate(itertools.combinations(range(m), 2), start=1 + m):
            expected[f, a, b] = expected[f, b, a] = M[a, b]
        assert np.array_equal(coeffs, expected)
        assert np.linalg.eigvalsh(M)[0] >= 0.5 - 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_I_margin_vanishes_at_flat_profile(self, m):
        assert np.array_equal(ct.block_margin("I", np.zeros((2, m)), np.ones(2)), np.zeros(2))

    @pytest.mark.parametrize("v", [1.0, 1.5, 2.0, 2.5, 2.9, 3.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_II_margin_vanishes_on_pair_boundary(self, v, m):
        lams = np.zeros((1, m))
        lams[0, :2] = math.sqrt(v - 1.0)
        assert abs(float(ct.block_margin("II", lams, np.array([v]))[0])) <= 1e-15

    def test_II_margin_is_pair_product_bound(self):
        lams = ct.sample_admissible_lambdas(3, 3.0, 20_000, substream(14, 0))
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        pair = np.min([vs - 1.0 - lams[:, a] * lams[:, b] for a, b in ((0, 1), (0, 2), (1, 2))], axis=0)
        assert np.abs(ct.block_margin("II", lams, vs) - pair).max() <= 1e-14

    def test_III_margin_is_triple_block(self):
        # the (4, 3) stacks carry the same triple block as the (3, 3) ones
        lams = ct.sample_admissible_lambdas(3, 3.0, 20_000, substream(14, 1))
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        low = np.linalg.eigvalsh(ct._contract(ct._features(lams), ct._kind_stacks(3, 3)["III"][1]))[:, 0, 0]
        margin = ct.block_margin("III", lams, vs)
        assert np.array_equal(margin, 2.0 * low - (3.0 - vs))


class TestOmegaSup:
    def test_at_three_nine(self):
        sup = ct.verify_omega_sup(3.0, 9.0)
        assert sup <= 1.0 + 1e-8
        # boundary reduction: the corner (1, 1, C) realises the sup
        assert sup == pytest.approx(2.0 / 2.0 + 1.0 / (3.0 - 9.0), abs=1e-9)

    def test_empty_domain_sentinel(self):
        assert ct.verify_omega_sup(2.0, 1.0) == -math.inf

    def test_bound_holds_generically(self):
        rng = substream(14, 0)
        for _ in range(25):
            v = float(rng.uniform(1.2, 3.0))
            C = float(rng.uniform(v * 1.01, v * v))
            assert ct.verify_omega_sup(v, C) <= 2.0 / (v - 1.0) + 1e-8

    @pytest.mark.parametrize("v,C", [(1.2, 1.3), (1.2, 1.44), (1.5, 2.0), (2.0, 3.9), (2.5, 6.25), (3.0, 9.0)])
    def test_closed_form_is_the_max_of_a_dense_grid(self, v, C):
        # f = a + b + c on a 1001^2 grid of (x, y) in [1, v), kept where z = C / (xy) > v.
        # The corner (1, 1, C) gives the closed form's bits.  No point exceeds it by more
        # than 4 eps S, S = |a| + |b| + |c| (1 + z / (z - v)): each term carries a few
        # roundings, and c also the relative 2 eps of z, amplified by z / (z - v).  At
        # C = v^2 the whole edge x = 1 attains the sup, and rounding lifts f above it there
        # by up to 0.6 eps S.
        axis = np.linspace(1.0, v, 1002)[:-1]
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        Z = C / (X * Y)
        feasible = Z > v
        X, Y, Z = X[feasible], Y[feasible], Z[feasible]
        a, b, c = 1.0 / (v - X), 1.0 / (v - Y), 1.0 / (v - Z)
        f = a + b + c
        sup = ct.verify_omega_sup(v, C)
        assert (X[0], Y[0]) == (1.0, 1.0) and f[0] == sup
        S = np.abs(a) + np.abs(b) + np.abs(c) * (1.0 + Z / (Z - v))
        assert np.all(f <= sup + 4.0 * np.finfo(float).eps * S)


class TestDiagonalBlock:
    def test_flat_profile_spectrum(self):
        assert ct.iv_eps0_bound(np.zeros((1, 3)))[0] == pytest.approx(1.0, abs=1e-13)

    def test_sampled_psd_with_small_eps(self):
        rng = substream(15, 0)
        lams = ct.sample_admissible_lambdas(3, 3.0, 200_000, rng)
        assert float((ct.iv_eps0_bound(lams) - 1e-3).min()) >= -1e-9

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_find_eps0_positive(self, m):
        res = ct.find_eps0(m, samples=50_000, seed=0)
        assert res.eps0 > 1e-3
        assert res.verified_margin >= -1e-9

    def test_eps0_is_min_sample_bound(self):
        # eps0 is the smallest per-sample bound over the sample it draws
        res = ct.find_eps0(3, samples=2_000, seed=7)
        lams = ct.sample_admissible_lambdas(3, 3.0, 2_000, substream(7, 2))
        assert res.eps0 == float(ct.iv_eps0_bound(lams).min())
        assert res.verified_margin == 0.0

    def test_eps0_regression_baselines(self):
        # values recorded from this tool at samples=1e6, seed=0
        expected = {2: 0.00715866, 3: 0.00932702, 4: 0.01227844}
        for m, value in expected.items():
            res = ct.find_eps0(m, samples=100_000, seed=0)
            # smaller sample runs may sit slightly above the 1e6 baseline
            assert res.eps0 >= value - 1e-6
            assert res.eps0 < 0.1


class TestAuxiliaryExtrema:
    def test_closed_forms(self):
        records = {r.name: r for r in ct.auxiliary_extrema()}
        assert records["triple_overlap_ratio"].closed_form == pytest.approx(13.5)
        assert records["pair_overlap_ratio"].closed_form == pytest.approx(5 + 2 * math.sqrt(6))
        assert records["cubic_threshold"].closed_form == pytest.approx(
            (187 - 38 * math.sqrt(19)) / 27
        )
        for rec in records.values():
            assert rec.abs_diff < 1e-10

    def test_argmins(self):
        records = {r.name: r for r in ct.auxiliary_extrema()}
        assert records["triple_overlap_ratio"].argmin == pytest.approx(5.0, abs=1e-5)
        assert records["pair_overlap_ratio"].argmin == pytest.approx(2 + math.sqrt(6), abs=1e-5)
        assert records["cubic_threshold"].argmin == pytest.approx(
            (10 + math.sqrt(19)) / 3, abs=1e-5
        )


class TestComputeK0:
    def test_unit_bound_is_exact(self):
        cert = ct.compute_K0(3, 2, 1.0, audit_samples=100, seed=1)
        assert cert.k0 == 1.0

    def test_monotone_sweep(self):
        values = []
        for beta0 in (1.0, 1.5, 2.0, 2.5, 2.9, 2.99):
            cert = ct.compute_K0(4, 3, beta0, audit_samples=2_000, seed=2)
            values.append(cert.k0)
            assert cert.k0 > 0.0
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)
        assert values[-1] < 0.05

    def test_boundary_probe(self):
        cert = ct.compute_K0(4, 3, 3.0, audit_samples=2_000, seed=3)
        assert -1e-8 <= cert.k0 <= 1e-3

    def test_regression_value(self):
        # recorded baseline: the minimum sits on the two-equal-slope boundary,
        # k0(2.9) = 2.9 * (1 - 1.9/2) = 0.145
        cert = ct.compute_K0(4, 3, 2.9, audit_samples=5_000, seed=4)
        assert cert.k0 == pytest.approx(0.145, abs=2e-4)
        assert cert.worst_violation >= -1e-12
        assert cert.v_at_argmin <= 2.9 + 1e-9

    def test_audit_never_undercuts(self):
        cert = ct.compute_K0(3, 2, 2.5, audit_samples=20_000, seed=5)
        assert cert.worst_violation >= -1e-12
        assert cert.min_eigenvalue_trace

    def test_montecarlo_ratio_audit(self):
        # independent check: a million random (lambda, h) ratios stay above the
        # recorded k0(2.9) for (n, m) = (4, 3)
        cert = ct.compute_K0(4, 3, 2.9, audit_samples=2_000, seed=6)
        rng = substream(16, 0)
        worst = math.inf
        for chunk in range(5):
            lams = ct.sample_admissible_lambdas(3, 2.9, 200_000, substream(16, 1 + chunk))
            hs = rng.standard_normal((200_000, 3, 4, 4))
            hs = 0.5 * (hs + hs.transpose(0, 1, 3, 2))
            ratios = ct.laplacian_v_batch(lams, hs) / np.einsum("kaij,kaij->k", hs, hs)
            worst = min(worst, float(ratios.min()))
        assert worst >= cert.k0 - 1e-9
