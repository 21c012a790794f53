import itertools
import math
import tracemalloc
from functools import lru_cache

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


def grouped_total(terms):
    """The sum of every group value of `decompose_terms`, in catalogue order, as `gbl lemmas` sums it."""
    return sum(values.sum() for values in terms.values())


def unflatten_h(u, n, m):
    """Inverse of `flatten_h` for one vector."""
    pairs, _, weights = ct._pair_table(n)
    u = np.asarray(u, dtype=float).reshape(m, len(pairs)) / weights
    h = np.zeros((m, n, n))
    for k, (i, j) in enumerate(pairs):
        h[:, i, j] = u[:, k]
        h[:, j, i] = u[:, k]
    return h


def dense_laplacian_v(lams, hs):
    """v sum_j X_j^T (Hess v / v) X_j over a stack, from the dense `hessian_over_v`."""
    K, m, n = hs.shape[:3]
    X = hs.transpose(0, 3, 2, 1).reshape(K, n, n * m)
    H = gr.hessian_over_v(lams, n)
    return np.prod(np.sqrt(1.0 + lams**2), axis=-1) * np.einsum("kjp,kjp->k", X @ H, X)


def laplacian_stack(n, m, rows, seed):
    """Profiles with v <= 2.5, where the form is positive definite, and symmetric tensors."""
    rng = substream(12, seed)
    lams = rng.uniform(0.0, 1.0, (rows, m)) * math.sqrt(2.5 ** (2.0 / m) - 1.0)
    hs = rng.standard_normal((rows, m, n, n))
    return lams, 0.5 * (hs + hs.transpose(0, 1, 3, 2))


CLOSED_FORM_SHAPES = [(2, 2), (3, 1), (3, 2), (4, 3), (6, 4), (8, 8), (16, 16), (2, 3)]


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
            assert grouped_total(ct.decompose_terms(lams, h)) * v_of(lams) == pytest.approx(
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
        checked, profiles = 0, []
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
                profiles.append((lams, h, one))
        # and the ten points of each plane stacked: every row is its point's call
        for start in (0, 1):
            rows = profiles[start::2]
            stack = ct.laplacian_v_batch(np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]))
            assert stack.tobytes() == np.array([r[2] for r in rows]).tobytes()

    @pytest.mark.parametrize("n,m", CLOSED_FORM_SHAPES)
    def test_closed_form_matches_the_dense_hessian(self, n, m):
        lams, hs = laplacian_stack(n, m, 257, 10 * n + m)
        dense = dense_laplacian_v(lams, hs)
        assert np.all(np.abs(ct.laplacian_v_batch(lams, hs) - dense) <= 1e-14 * np.abs(dense))

    @pytest.mark.parametrize("n,m", CLOSED_FORM_SHAPES)
    def test_each_row_of_a_stack_is_its_profile_alone(self, n, m):
        lams, hs = laplacian_stack(n, m, 257, 200 + 10 * n + m)
        alone = np.array([ct.laplacian_v_batch(lams[k], hs[k]) for k in range(257)])
        # stacks of several sizes, and one read through a strided view
        for K in (2, 3, 17, 257):
            assert ct.laplacian_v_batch(lams[:K], hs[:K]).tobytes() == alone[:K].tobytes()
        assert ct.laplacian_v_batch(lams[::3], hs[::3]).tobytes() == alone[::3].tobytes()

    def test_no_dense_hessian_is_built(self, monkeypatch):
        # the dense (K, nm, nm) Hessians of 2,000 profiles at (8, 8) would take 65.5 MB, twice the bound
        def no_hessian(*args):
            raise AssertionError("hessian_over_v was called")

        monkeypatch.setattr(gr, "hessian_over_v", no_hessian)
        lams, hs = laplacian_stack(8, 8, 2_000, 300)
        tracemalloc.start()
        ct.laplacian_v_batch(lams, hs)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 32_000_000

    @pytest.mark.parametrize("m", range(1, 17))
    def test_fold_is_the_reduction(self, m):
        x = substream(12, 400 + m).uniform(0.0, 2.0, (7_000, m))
        assert np.array_equal(ct._fold_last(np.multiply, x), np.prod(x, axis=-1))
        assert np.array_equal(ct._fold_last(np.minimum, x), x.min(axis=-1))
        assert np.array_equal(ct._fold_last(np.minimum, x > 0.3), np.all(x > 0.3, axis=-1))

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 3), (4, 3)])
    def test_hessian_contraction(self, n, m):
        # sum_j X_j^T Hess v X_j with (X_j)_{i,a} = h_{a,ij} is Delta v at the plane's adapted lambdas
        rng = substream(10, 10 * n + m)
        P0 = gr.make_point(rng.standard_normal((n, n + m)))
        for _ in range(20):
            P = gr.from_chart(rng.uniform(-1.0, 1.0, (n, m)), P0)
            h = random_h(n, m, rng)
            X = h.transpose(2, 1, 0).reshape(n, n * m)
            quad = np.einsum("jp,pq,jq->", X, gr.hessian_v(P, P0), X)
            lams = gr.adapted_frames(P, P0).lambdas
            assert quad == pytest.approx(ct.laplacian_v_batch(lams, h), rel=1e-13)


class TestQuadraticForm:
    def test_flat_profile_identity(self):
        # the form has m n (n + 1) / 2 = 20 coordinates at (4, 2)
        assert np.abs(ct.quadratic_form_batch(4, 2, np.zeros((1, 2)))[0] - np.eye(20)).max() == 0.0

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
        # with one normal direction no II or III block exists, so neither kind has a key
        assert "II" not in td
        assert "III" not in td
        assert td["IV"].shape == (1,)
        assert grouped_total(td) * v_of(lams) == pytest.approx(ct.laplacian_v_batch(lams, h), rel=1e-12)

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 3), (4, 3)])
    def test_kinds_are_the_catalogue_kinds(self, n, m):
        # one group per kind the block catalogue names at (n, m), in its order, one value per block
        rng = substream(12, 10 + 4 * n + m)
        td = ct.decompose_terms(rng.uniform(0, 1.3, m), random_h(n, m, rng))
        stacks = ct._kind_stacks(n, m)
        assert list(td) == list(stacks)
        assert [values.shape for values in td.values()] == [(slots.shape[0],) for slots, _, _ in stacks.values()]

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
        assert grouped_total(ct.decompose_terms(lams, h)) * v_of(lams) == pytest.approx(
            dv, rel=1e-10, abs=1e-10
        )


def block_min_eigs(C, lams):
    """Exhaustive oracle: lambda_min of every block of a coefficient stack C (F, nb, s, s) at
    profiles (K, m), shape (K, nb)."""
    return np.linalg.eigvalsh(ct._contract(ct._features(lams), C))[..., 0]


def vs_of(lams):
    """v = prod sqrt(1 + lambda^2) of each profile of a batch (K, m)."""
    return np.prod(np.sqrt(1.0 + lams**2), axis=-1)


def exhaustive_form_eigenvalues(n, m, lams):
    """Per-profile smallest form eigenvalue: v times lambda_min over every distinct block."""
    low = np.concatenate([block_min_eigs(C, lams) for C, _ in ct._distinct_stacks(n, m)], axis=1).min(axis=1)
    return vs_of(lams) * low


def exhaustive_margins(kind, lams, vs):
    """Per-profile `block_margin`: c lambda_min - bound(v) over the blocks of one kind."""
    m = lams.shape[-1]
    low = block_min_eigs(ct._kind_stacks(m + 1, m)[kind][1], lams).min(axis=1)
    return low - 1.0 if kind == "I" else 2.0 * low - (3.0 - vs)


def batch_minimum(values):
    """The (first argmin, min) that `min_form_eigenvalue` and `block_margin` return."""
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

    def test_every_n_past_m_reuses_the_build_at_m_plus_one(self, monkeypatch):
        # min_form_eigenvalue reads the distinct stacks of (m + 1, m) at every n > m: bitwise a
        # fresh build at n, and a (5, 3) call after a (4, 3) call builds no block
        for m in range(1, 9):
            reused = ct._distinct_stacks(m + 1, m)
            for n in range(m + 2, 17):
                fresh = ct._distinct_stacks.__wrapped__(n, m)
                assert len(fresh) == len(reused), (n, m)
                for (C, G), (C_n, G_n) in zip(reused, fresh):
                    assert C.shape == C_n.shape and C.tobytes() == C_n.tobytes(), (n, m)
                    assert G.shape == G_n.shape and G.tobytes() == G_n.tobytes(), (n, m)
        lams = ct.sample_admissible_lambdas(3, 2.9, 200, substream(17, 103))
        ct._distinct_stacks.cache_clear()
        low = ct.min_form_eigenvalue(4, 3, lams)
        built = []
        catalogue = ct.block_catalogue

        def spy(n, m):
            built.append((n, m))
            return catalogue(n, m)

        monkeypatch.setattr(ct, "block_catalogue", spy)
        assert ct.min_form_eigenvalue(5, 3, lams) == low
        assert built == []

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
        cert = ct.compute_K0(n, m, (beta0,), audit_samples=2_000, seed=8)[0]
        assert cert.k0 == pytest.approx(min(1.0, beta0 * (3.0 - beta0) / 2.0), abs=1e-6)

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 3)])
    def test_report_closed_form_gap(self, n, m):
        cert = ct.compute_K0(n, m, (2.9,), audit_samples=2_000, seed=8)[0]
        assert cert.k0_closed_form == ct.k0_closed_form(n, m, 2.9)
        assert cert.closed_form_gap == cert.k0 - cert.k0_closed_form
        assert abs(cert.closed_form_gap) <= 1e-6

    @pytest.mark.parametrize("beta0", [1.0, 1.5, 2.5, 2.9, 2.99])
    def test_closed_form_absent_at_two_two(self, beta0):
        # n = m = 2 has only the two IV blocks: neither II nor III gives the pair value
        assert [blk.kind for blk in ct.block_catalogue(2, 2)] == ["IV", "IV"]
        assert ct.k0_closed_form(2, 2, beta0) is None

    def test_report_without_closed_form(self):
        cert = ct.compute_K0(2, 2, (2.9,), audit_samples=2_000, seed=8)[0]
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

    def test_each_block_entry_rounds_once(self):
        # one feature times a weight, or 1 plus lambda_a^2 times 1 or 2: B(lambda) has the same
        # bits in any summation order, so `_batch_minimum` may form only the blocks it keeps
        for m in range(1, 9):
            for n in (m, m + 1):
                for blk in ct.block_catalogue(n, m):
                    for entry in blk.coeffs.reshape(blk.coeffs.shape[0], -1).T:
                        terms = np.flatnonzero(entry)
                        assert len(terms) <= 1 or (
                            terms.tolist() == [0, terms[1]] and entry[0] == 1.0 and entry[terms[1]] in (1.0, 2.0)
                        ), (n, m, blk.kind, blk.key)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_psd_part_is_psd_and_leaves_nonnegative_couplings(self, m):
        for n in (m, m + 1):
            features = ct._features(probe_profiles(n, m))
            for blk in ct.block_catalogue(n, m):
                off = ~np.eye(len(blk.slots), dtype=bool)
                assert np.all((blk.coeffs - blk.psd)[:, off] >= 0.0), (n, m, blk.kind, blk.key)
                low = np.linalg.eigvalsh(ct._contract(features, blk.psd))[:, 0]
                assert low.min() >= -1e-12, (n, m, blk.kind, blk.key)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_psd_part_follows_the_kind_rules(self, m):
        # I: everything but the identity; IV_a: rho rho^T with rho = lambda_a on h_{a,aa} and
        # lambda_b / sqrt(2) on h_{b,ba}; zero for pure, II, III and every 1 x 1 block
        duos = list(itertools.combinations(range(m), 2))
        for n in (m, m + 1):
            _, slot, _ = ct._pair_table(n)
            T = n * (n + 1) // 2
            for blk in ct.block_catalogue(n, m):
                expected = np.zeros_like(blk.coeffs)
                if len(blk.slots) > 1 and blk.kind == "I":
                    expected[1:] = blk.coeffs[1:]
                elif len(blk.slots) > 1 and blk.kind == "IV":
                    (a,) = blk.key
                    z = {b: blk.slots.index(b * T + slot[(b, a)]) for b in range(m)}
                    assert z[a] == 0
                    for b in range(m):
                        expected[1 + b, z[b], z[b]] = 1.0 if b == a else 0.5
                    for k, (b, c) in enumerate(duos):
                        w = 1.0 / math.sqrt(2.0) if a in (b, c) else 0.5
                        expected[1 + m + k, z[b], z[c]] = expected[1 + m + k, z[c], z[b]] = w
                assert blk.psd.shape == blk.coeffs.shape
                assert np.array_equal(blk.psd, expected), (n, m, blk.kind, blk.key)

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3), (6, 4), (9, 8)])
    def test_bound_is_below_lambda_min(self, n, m):
        # the distinct stacks of the K0 search, and the kind stacks eps0 and the lemmas read
        features = ct._features(probe_profiles(n, m))
        kinds = [*ct._kind_stacks(n, m).values(), *ct._kind_stacks(m + 1, m).values()]
        for stack, G in [*ct._distinct_stacks(n, m), *((C, G) for _, C, G in kinds)]:
            bound = np.tensordot(features, G, axes=1).min(axis=-1)
            assert np.all(bound <= np.linalg.eigvalsh(np.tensordot(features, stack, axes=1))[..., 0] + 1e-12)

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3), (6, 4), (9, 8), ("I", 3), ("II", 2), ("III", 3)])
    def test_batch_minimum_is_exhaustive(self, monkeypatch, n, m):
        # n is the form's n or a block-lemma kind; a small CHUNK puts the ties of the batch in
        # different chunks
        monkeypatch.setattr(ct, "CHUNK", 64)
        if isinstance(n, str):
            pruned = lambda lams: ct.block_margin(n, lams, vs_of(lams))
            values = lambda lams: exhaustive_margins(n, lams, vs_of(lams))
            stream = 200 + 10 * len(n) + m
        else:
            pruned = lambda lams: ct.min_form_eigenvalue(n, m, lams)
            values = lambda lams: exhaustive_form_eigenvalues(n, m, lams)
            stream = 100 + 10 * n + m
        sampled = ct.sample_admissible_lambdas(m, 3.0, 150, substream(19, stream))
        worst = sampled[np.argmin(values(sampled))]
        zeros = np.zeros((70, m))
        for lams in (
            np.vstack([zeros, sampled[:40], worst, sampled[40:], worst, zeros]),
            np.vstack([sampled[:60], np.repeat(worst[None], 10, axis=0), sampled[60:], zeros]),
            np.zeros((150, m)),
        ):
            exhaustive = values(lams)
            assert np.count_nonzero(exhaustive == exhaustive.min()) >= 2
            assert pruned(lams) == batch_minimum(exhaustive)

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
        for stack, _ in ct._distinct_stacks(n, m):
            s = stack.shape[-1]
            B = ct._contract(features, stack).reshape(-1, s, s)
            low = np.linalg.eigvalsh(B)[:, 0]
            for above in (1e-12, ct.PRUNE_SLACK, 1.0):
                assert not ct._clears(B, low + above).any(), (s, above)
            assert ct._clears(B, low - 1e-10).all(), s

    def test_argmin_is_the_first_of_equal_rows(self):
        stacks = ct._distinct_stacks(4, 3)
        lams = np.repeat(np.array([[0.9, 0.4, 0.1]]), 4, axis=0)
        assert ct._batch_minimum(stacks, lams, np.full(4, 2.0), 0.0)[0] == 0
        assert ct._batch_minimum(stacks, lams, np.array([3.0, 2.0, 2.0, 1.0]), 0.0)[0] == 3
        # equal profiles and weights, but not offsets
        assert ct._batch_minimum(stacks, lams, 2.0, np.array([0.0, 0.0, 0.5, 1.0]))[0] == 3

    def test_k0_search_prunes_half_the_eigensolves(self, monkeypatch):
        handed = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            handed.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ct.compute_K0(4, 3, (2.9,), audit_samples=2_000, seed=8)
        assert 0 < sum(handed) <= 1_000
        handed.clear()
        # the beta0 = 1 search and audit are one zero profile each, 9 distinct blocks, 1 of them 1 x 1
        ct.compute_K0(4, 3, (1.0,), audit_samples=2_000, seed=8)
        assert sum(handed) == 16

    def test_k0_search_skips_the_work_that_cannot_change_the_minimum(self, monkeypatch):
        # a 1 x 1 block is its own bound, so it reaches neither the LDL^T test nor eigvalsh
        solved, tested = [], []
        eigvalsh, clears = np.linalg.eigvalsh, ct._clears

        def counting_eigvalsh(a):
            solved.append(np.shape(a)[-1])
            return eigvalsh(a)

        def counting_clears(B, shift):
            tested.append(B.shape[-1])
            return clears(B, shift)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(ct, "_clears", counting_clears)
        ct.compute_K0(4, 3, (2.9,), audit_samples=2_000, seed=8)
        assert [C.shape[-1] for C, _ in ct._distinct_stacks(4, 3)] == [1, 2, 3, 5]
        assert set(solved) == {2, 3} and set(tested) == {2, 3, 5}

    def test_psd_split_halves_the_ldlt_tests(self, monkeypatch):
        # Gershgorin on IV minus its rank-one part keeps about half the 5 x 5 blocks that
        # Gershgorin on IV kept (1,253), and eigensolves exactly the same blocks
        solved, tested = {}, {}
        eigvalsh, clears = np.linalg.eigvalsh, ct._clears

        def counting_eigvalsh(a):
            solved[np.shape(a)[-1]] = solved.get(np.shape(a)[-1], 0) + int(np.prod(np.shape(a)[:-2]))
            return eigvalsh(a)

        def counting_clears(B, shift):
            tested[B.shape[-1]] = tested.get(B.shape[-1], 0) + B.shape[0]
            return clears(B, shift)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(ct, "_clears", counting_clears)
        ct.compute_K0(4, 3, (2.9,), audit_samples=2_000, seed=8)
        assert tested[5] <= 700
        assert solved == {2: 474, 3: 2}

    def test_lemma_margin_prunes_its_eigensolves(self, monkeypatch):
        # the first chunk meets an infinite cut and eigensolves its CHUNK // 2 triple blocks;
        # the later chunks' blocks lie above the cut but for a few
        handed = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            handed.append(int(np.prod(np.shape(a)[:-2])))
            return eigvalsh(a)

        lams = ct.sample_admissible_lambdas(3, 3.0, 100_000, substream(19, 300))
        vs = vs_of(lams)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        ct.block_margin("III", lams, vs)
        assert 0 < sum(handed) <= ct.CHUNK // 2 + 100


def separate_minima(n, m, groups):
    """One `min_form_eigenvalue` call per group, its argmin a row of the whole batch."""
    out, start = [], 0
    for rows in groups:
        if len(rows):
            k, low = ct.min_form_eigenvalue(n, m, rows)
            out.append((start + k, low))
        else:
            out.append((-1, math.inf))
        start += len(rows)
    return out


def grouped_minima(n, m, groups):
    starts = np.cumsum([0] + [len(rows) for rows in groups[:-1]])
    return ct.min_form_eigenvalue(n, m, np.concatenate(groups), starts)


class TestGroupedMinimum:
    """One batch minimum over contiguous groups gives each group bitwise its own call's minimum."""

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (3, 3), (4, 3), (6, 4), (9, 8)])
    def test_repeated_row_is_kept_at_a_group_start(self, n, m):
        # beta0 = 1: the lambda = 0 search row, then an audit of equal rows; then a group whose
        # first row, the pair profile and so its minimum where K0 has a closed form at m >= 2,
        # repeats the last row of the group before it
        search = ct._search_rows(m, 2.9)
        audit = ct.sample_admissible_lambdas(m, 2.9, 300, substream(21, m))
        groups = [np.zeros((1, m)), np.zeros((2_000, m)), search, np.vstack([search[-1:], audit])]
        minima = grouped_minima(n, m, groups)
        assert minima == separate_minima(n, m, groups)
        assert minima[1] == (1, 1.0)
        if m >= 2 and ct.k0_closed_form(n, m, 2.9) is not None:
            assert minima[3][0] == 2_001 + len(search)

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (3, 3), (4, 3), (6, 4)])
    def test_group_straddling_the_first_chunk(self, n, m):
        # the 2.9 audit runs from just below the first chunk's end into the next chunk, where
        # its cut is its own and not that of the search rows beside it; the 2.5 groups start in
        # that chunk with no minimum yet, which at n = m, with no 1 x 1 block, is an infinite cut
        # beside the finite one of the 2.9 audit
        head = ct.CHUNK // 2
        groups = [ct._search_rows(m, 2.9), ct.sample_admissible_lambdas(m, 1.5, head - 10, substream(22, m)),
                  ct.sample_admissible_lambdas(m, 2.9, 3_000, substream(23, m)), ct._search_rows(m, 2.5),
                  ct.sample_admissible_lambdas(m, 2.5, 200, substream(24, m))]
        minima = grouped_minima(n, m, groups)
        assert minima == separate_minima(n, m, groups)
        assert minima[1][1] > minima[0][1] or m == 1

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3)])
    def test_empty_group(self, n, m):
        search = ct._search_rows(m, 2.9)
        groups = [search, np.zeros((0, m)), search, np.zeros((0, m))]
        minima = grouped_minima(n, m, groups)
        assert minima == separate_minima(n, m, groups)
        assert minima[1] == minima[3] == (-1, math.inf)
        assert all(cert.worst_violation == math.inf for cert in ct.compute_K0(n, m, (1.0, 2.9), audit_samples=0))

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (4, 3)])
    def test_reports_equal_one_call_per_beta0(self, n, m):
        grid = (1.0, 1.5, 2.0, 2.5, 2.9, 2.99)
        separate = [ct.compute_K0(n, m, (beta0,), audit_samples=500, seed=3)[0] for beta0 in grid]
        assert ct.compute_K0(n, m, grid, audit_samples=500, seed=3) == separate


class TestK0Search:
    @pytest.mark.parametrize("n,m", [(3, 2), (4, 3), (5, 3), (6, 4), (3, 3), (4, 4)])
    @pytest.mark.parametrize("beta0", [2.5, 2.9, 2.99])
    def test_closed_form_oracle(self, n, m, beta0):
        # the pair profile (sqrt(beta0 - 1), sqrt(beta0 - 1), 0, ...) attains the closed form
        cert = ct.compute_K0(n, m, (beta0,), audit_samples=2_000, seed=8)[0]
        assert abs(cert.closed_form_gap) <= 1e-14

    @pytest.mark.parametrize("beta0,recorded", [(2.5, 0.668483167922971), (2.9, 0.172955418985063)])
    def test_no_closed_form_at_two_two(self, beta0, recorded):
        # n = m = 2 has no II block; the recorded values are regression values of the face
        # search's minimum along the boundary face u_1 + u_2 = 2 log beta0
        k0 = ct.compute_K0(2, 2, (beta0,), audit_samples=2_000, seed=8)[0].k0
        assert abs(k0 - recorded) <= 1e-9
        assert k0 <= recorded + 1e-12

    @pytest.mark.parametrize("n,m,moves", [(2, 2, True), (4, 3, False), (5, 3, False), (6, 4, False)])
    def test_where_the_face_search_works(self, n, m, moves):
        # trace[0] is the minimum over the closed-form profiles; at (2, 2) the face search
        # lowers it from 0.61768 to 0.17296, elsewhere no search follows the batch
        cert = ct.compute_K0(n, m, (2.9,), audit_samples=0)[0]
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
        cert = ct.compute_K0(2, 2, (beta0,), audit_samples=0)[0]
        assert cert.k0 <= oracle + 1e-12
        assert not cert.budget_exhausted
        assert v_of(np.array(cert.argmin_lambda)) <= beta0 * (1.0 + 1e-12)

    def test_face_search_counts_its_evaluations(self):
        # the lambda = 0 and pair rows at beta0 = 2.9, then one row per face evaluation
        cert = ct.compute_K0(2, 2, (2.9,), audit_samples=0)[0]
        assert cert.min_eigenvalue_trace[0]["evaluations"] == 2
        assert cert.evaluations == cert.min_eigenvalue_trace[1]["evaluations"]
        assert 2 < cert.evaluations <= 2 + 40

    def test_iteration_cap_exhausts_the_budget(self, monkeypatch):
        # the face search stopped by scipy's iteration cap says so; its best point still counts
        minimize_scalar = ct.minimize_scalar

        def capped(*args, **kwargs):
            return minimize_scalar(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 2}})

        monkeypatch.setattr(ct, "minimize_scalar", capped)
        cert = ct.compute_K0(2, 2, (2.9,), audit_samples=0)[0]
        assert cert.budget_exhausted
        assert cert.k0 < cert.min_eigenvalue_trace[0]["value"]
        assert not ct.compute_K0(4, 3, (2.9,), audit_samples=0)[0].budget_exhausted

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_form_is_symmetric_in_lambda(self, m):
        # what lets the search visit non-increasing profiles only
        lams = ct.sample_admissible_lambdas(m, 3.0, 300, substream(18, m))
        base = exhaustive_form_eigenvalues(m + 2, m, lams)
        _, low = ct.min_form_eigenvalue(m + 2, m, lams)
        for perm in itertools.permutations(range(m)):
            assert np.abs(exhaustive_form_eigenvalues(m + 2, m, lams[:, perm]) - base).max() <= 1e-13
            assert abs(ct.min_form_eigenvalue(m + 2, m, lams[:, perm])[1] - low) <= 1e-13

    @pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (5, 5), (7, 7)])
    @pytest.mark.parametrize("beta0", [1.0, 1.5, 2.0, 2.1, 2.5, 2.9, 2.99, 3.0])
    def test_k0_is_below_the_sorted_mesh(self, n, m, beta0):
        # every admissible non-increasing profile over 17 even values on [0, sqrt(beta0^2 - 1)],
        # plus the pair profile: the search may not miss a lower row
        lam_max = math.sqrt(beta0 * beta0 - 1.0)
        axis = np.linspace(0.0, lam_max, 17 if lam_max > 0.0 else 1)
        mesh = axis[sorted_mesh_indices(axis.size, m)]
        mesh = mesh[np.prod(1.0 + mesh**2, axis=1) <= beta0 * beta0 * (1.0 + 1e-12)]
        if m >= 2:
            pair = np.zeros((1, m))
            pair[0, :2] = math.sqrt(beta0 - 1.0)
            mesh = np.vstack([mesh, pair])
        assert ct.compute_K0(n, m, (beta0,), audit_samples=0)[0].k0 <= ct.min_form_eigenvalue(n, m, mesh)[1]

    def test_k0_refuses_m_past_sixteen_before_building(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search batch ran")

        monkeypatch.setattr(ct, "min_form_eigenvalue", no_search)
        with pytest.raises(PreconditionViolated):
            ct.compute_K0(17, 17, (2.9,), audit_samples=0)


@lru_cache(maxsize=None)
def sorted_mesh_indices(g, m):
    """Index rows (C(g + m - 1, m), m) of every non-increasing profile over g axis values."""
    index = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(g), m))
    return np.fromiter(index, dtype=np.intp).reshape(-1, m)[:, ::-1]


def worst_pair_margin(v_bound, samples, m=2, seed=0):
    """Worst II `block_margin` over sampled admissible profiles plus the tight pair
    lambda_a = lambda_b = sqrt(v_bound - 1), where the margin is ~0."""
    lams = ct.sample_admissible_lambdas(m, v_bound, samples, substream(seed, 0))
    tight = np.zeros((1, m))
    tight[0, :2] = math.sqrt(v_bound - 1.0)
    lams = np.vstack([lams, tight])
    return ct.block_margin("II", lams, vs_of(lams))[1]


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
        assert ct.block_margin("III", np.zeros((1, 3)), np.array([1.0]))[1] == pytest.approx(0.0, abs=1e-14)

    def test_boundary_profile(self):
        lams = np.array([[math.sqrt(2), math.sqrt(2), 0.0]])
        assert ct.block_margin("III", lams, np.array([3.0]))[1] >= -1e-9

    def test_sampled_admissible(self):
        rng = substream(13, 0)
        lams = ct.sample_admissible_lambdas(3, 3.0, 200_000, rng)
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        assert ct.block_margin("III", lams, vs)[1] >= -1e-9

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
        lams, vs = np.zeros((2, m)), np.ones(2)
        assert np.array_equal(exhaustive_margins("I", lams, vs), np.zeros(2))
        assert ct.block_margin("I", lams, vs) == (0, 0.0)

    @pytest.mark.parametrize("v", [1.0, 1.5, 2.0, 2.5, 2.9, 3.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_II_margin_vanishes_on_pair_boundary(self, v, m):
        lams = np.zeros((1, m))
        lams[0, :2] = math.sqrt(v - 1.0)
        assert abs(ct.block_margin("II", lams, np.array([v]))[1]) <= 1e-15

    def test_II_margin_is_pair_product_bound(self):
        lams = ct.sample_admissible_lambdas(3, 3.0, 20_000, substream(14, 0))
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        pair = np.min([vs - 1.0 - lams[:, a] * lams[:, b] for a, b in ((0, 1), (0, 2), (1, 2))], axis=0)
        margins = exhaustive_margins("II", lams, vs)
        assert np.abs(margins - pair).max() <= 1e-14
        assert ct.block_margin("II", lams, vs) == batch_minimum(margins)

    def test_III_margin_is_triple_block(self):
        # the (4, 3) stacks carry the same triple block as the (3, 3) ones
        lams = ct.sample_admissible_lambdas(3, 3.0, 20_000, substream(14, 1))
        vs = np.prod(np.sqrt(1.0 + lams**2), axis=1)
        low = np.linalg.eigvalsh(ct._contract(ct._features(lams), ct._kind_stacks(3, 3)["III"][1]))[:, 0, 0]
        margins = exhaustive_margins("III", lams, vs)
        assert np.array_equal(margins, 2.0 * low - (3.0 - vs))
        assert ct.block_margin("III", lams, vs) == batch_minimum(margins)


def verify_omega_sup(v: float, C: float) -> float:
    """Sup of f = 1/(v-x) + 1/(v-y) + 1/(v-z) on the constrained slab, in closed form.

    Domain: 1 <= x, y < v, z > v, xyz = C.  Returns -inf when the domain is
    empty (C <= v forces z <= v).  The claimed bound is sup <= 2/(v-1).

    The sup is the corner value f(1, 1, C) = 2/(v-1) + 1/(v-C).  Along xy = P,
    1/(v - e^s) is convex in s = log x, so 1/(v-x) + 1/(v-y) is convex in
    log x and largest at an end, x = 1 or y = 1.  That leaves
    h(P) = 1/(v-1) + 1/(v-P) + 1/(v - C/P) on 1 <= P < C/v, where
    h'(P) = 1/(v-P)^2 - C/(vP - C)^2 <= 0, since C - vP <= sqrt(C)(v - P)
    reduces to -sqrt(C) <= P when C <= v^2.  So P = 1 attains the sup.
    """
    if v <= 1.0:
        raise PreconditionViolated("need v > 1")
    if not (1.0 <= C <= v * v * (1.0 + 1e-12)):
        raise PreconditionViolated("need 1 <= C <= v^2")
    if C <= v * (1.0 + 1e-15):
        return -np.inf
    return 2.0 / (v - 1.0) + 1.0 / (v - C)


class TestOmegaSup:
    def test_at_three_nine(self):
        sup = verify_omega_sup(3.0, 9.0)
        assert sup <= 1.0 + 1e-8
        # boundary reduction: the corner (1, 1, C) realises the sup
        assert sup == pytest.approx(2.0 / 2.0 + 1.0 / (3.0 - 9.0), abs=1e-9)

    def test_empty_domain_sentinel(self):
        assert verify_omega_sup(2.0, 1.0) == -math.inf

    def test_bound_holds_generically(self):
        rng = substream(14, 0)
        for _ in range(25):
            v = float(rng.uniform(1.2, 3.0))
            C = float(rng.uniform(v * 1.01, v * v))
            assert verify_omega_sup(v, C) <= 2.0 / (v - 1.0) + 1e-8

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
        sup = verify_omega_sup(v, C)
        assert (X[0], Y[0]) == (1.0, 1.0) and f[0] == sup
        S = np.abs(a) + np.abs(b) + np.abs(c) * (1.0 + Z / (Z - v))
        assert np.all(f <= sup + 4.0 * np.finfo(float).eps * S)


def iv_eps0_bounds(lams):
    """Per-sample lambda_min(B_IV,0), the bound whose minimum `find_eps0` returns."""
    m = lams.shape[-1]
    return block_min_eigs(ct._kind_stacks(m, m)["IV"][1][:, :1], lams)[:, 0]


class TestDiagonalBlock:
    def test_flat_profile_spectrum(self):
        assert iv_eps0_bounds(np.zeros((1, 3)))[0] == pytest.approx(1.0, abs=1e-13)

    def test_sampled_psd_with_small_eps(self):
        rng = substream(15, 0)
        lams = ct.sample_admissible_lambdas(3, 3.0, 200_000, rng)
        assert float((iv_eps0_bounds(lams) - 1e-3).min()) >= -1e-9

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_find_eps0_positive(self, m):
        res = ct.find_eps0(m, samples=50_000, seed=0)
        assert res.eps0 > 1e-3
        lams = ct.sample_admissible_lambdas(m, 3.0, 50_000, substream(0, 2))
        assert float((iv_eps0_bounds(lams) - res.eps0).min()) >= -1e-9

    def test_eps0_is_min_sample_bound(self):
        # eps0 is the smallest per-sample bound over the sample it draws, unclipped
        res = ct.find_eps0(3, samples=2_000, seed=7)
        lams = ct.sample_admissible_lambdas(3, 3.0, 2_000, substream(7, 2))
        assert res.eps0 == float(iv_eps0_bounds(lams).min())

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_eps0_is_the_batch_minimum(self, m):
        lams = ct.sample_admissible_lambdas(m, 3.0, 5_000, substream(3, 2))
        C, G = ct._kind_stacks(m, m)["IV"][1:]
        stack = [(C[:, :1], G[:, :1])]
        assert ct.find_eps0(m, samples=5_000, seed=3).eps0 == ct._batch_minimum(stack, lams, 1.0, 0.0)[1]

    @pytest.mark.parametrize("lam,eps0", [(0.0, 1.0), (3.0, -3.5)])
    def test_eps0_is_not_clipped(self, monkeypatch, lam, eps0):
        # at lambda = 0 the block is the identity; at lambda = 3 (v = 1000 > 3) it is not PSD
        monkeypatch.setattr(ct, "sample_admissible_lambdas", lambda m, v_bound, count, rng: np.full((count, m), lam))
        assert ct.find_eps0(3, samples=10).eps0 == pytest.approx(eps0, rel=1e-12)

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
        cert = ct.compute_K0(3, 2, (1.0,), audit_samples=100, seed=1)[0]
        assert cert.k0 == 1.0

    def test_unit_bound_audits_its_one_profile(self):
        # every admissible profile at beta0 = 1 is lambda = 0: the audit counts them all and
        # evaluates one, which ties the search
        cert = ct.compute_K0(4, 3, (1.0,), 2_000)[0]
        assert cert.worst_violation == 0.0
        assert cert.sample_count == 2_000 and cert.evaluations == 2_001
        assert ct.compute_K0(4, 3, (1.0,), audit_samples=0)[0].worst_violation == math.inf

    def test_unit_bound_builds_only_the_row_it_audits(self):
        # a million lambda = 0 audit rows at m = 3 would take 22.9 MiB; the audit keeps one
        tracemalloc.start()
        cert = ct.compute_K0(4, 3, (1.0,), 1_000_000)[0]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 2_000_000
        assert cert.sample_count == 1_000_000 and cert.evaluations == 1_000_001
        assert cert.worst_violation == 0.0

    def test_monotone_sweep(self):
        values = []
        for cert in ct.compute_K0(4, 3, (1.0, 1.5, 2.0, 2.5, 2.9, 2.99), audit_samples=2_000, seed=2):
            values.append(cert.k0)
            assert cert.k0 > 0.0
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)
        assert values[-1] < 0.05

    def test_boundary_probe(self):
        cert = ct.compute_K0(4, 3, (3.0,), audit_samples=2_000, seed=3)[0]
        assert -1e-8 <= cert.k0 <= 1e-3

    def test_regression_value(self):
        # recorded baseline: the minimum sits on the two-equal-slope boundary,
        # k0(2.9) = 2.9 * (1 - 1.9/2) = 0.145
        cert = ct.compute_K0(4, 3, (2.9,), audit_samples=5_000, seed=4)[0]
        assert cert.k0 == pytest.approx(0.145, abs=2e-4)
        assert cert.worst_violation >= -1e-12
        assert cert.v_at_argmin <= 2.9 + 1e-9

    def test_audit_never_undercuts(self):
        cert = ct.compute_K0(3, 2, (2.5,), audit_samples=20_000, seed=5)[0]
        assert cert.worst_violation >= -1e-12
        assert cert.min_eigenvalue_trace

    def test_montecarlo_ratio_audit(self):
        # independent check: a million random (lambda, h) ratios stay above the
        # recorded k0(2.9) for (n, m) = (4, 3)
        cert = ct.compute_K0(4, 3, (2.9,), audit_samples=2_000, seed=6)[0]
        rng = substream(16, 0)
        worst = math.inf
        for chunk in range(5):
            lams = ct.sample_admissible_lambdas(3, 2.9, 200_000, substream(16, 1 + chunk))
            hs = rng.standard_normal((200_000, 3, 4, 4))
            hs = 0.5 * (hs + hs.transpose(0, 1, 3, 2))
            ratios = ct.laplacian_v_batch(lams, hs) / np.einsum("kaij,kaij->k", hs, hs)
            worst = min(worst, float(ratios.min()))
        assert worst >= cert.k0 - 1e-9
