"""Positivity certificates for the Laplacian of the volume-distortion function.

For a graph with parallel mean curvature, singular-value profile lambda and
second fundamental form h, the Laplacian of v = prod sqrt(1 + lambda_a^2) is

    Delta v = sum_j Hess v(X_j, X_j),    (X_j)_{i,a} = h_{a,ij},

with Hess v / v from `grassmann.hessian_over_v`.  In the flattened
coordinates of h the form is block diagonal.  This module writes those
index-typed blocks once (`block_catalogue`), evaluates the term
decomposition, the block lemmas (`block_margin`) and eps0 from them, solves
the form blockwise, and estimates the strong-subharmonicity constant

    K0(beta0) = min { Delta v / |h|^2 : prod(1 + lambda^2) <= beta0^2 }

by one batch minimum of the smallest form eigenvalue over sorted profiles,
plus a line search on the boundary face at n = m = 2.

K0 and eps0 are batch minima: `_batch_minimum` skips a profile that repeats
the one before it, drops the blocks that a Gershgorin bound and then an
LDL^T threshold test place above the running minimum, eigensolves the rest,
and returns bitwise the argmin and minimum of the exhaustive per-profile
values.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# minimize is not called here: perfbench/tracing.py wraps certifier.minimize by name
from scipy.optimize import minimize, minimize_scalar  # noqa: F401

from . import grassmann
from .errors import DimensionMismatch, PreconditionViolated
from .rng import rejection_sample, substream

# single global slack absorbing eigensolver roundoff in PSD assertions
PSD_TOL = 1e-9
# profiles per batched eigensolve (CHUNK // (nm) per batch of nm x nm Hessians),
# which bounds the memory of one batch
CHUNK = 20_000
# a block whose Gershgorin bound exceeds the running minimum by more than this,
# or whose LDL^T test clears it by this, is not eigensolved; the slack absorbs
# the rounding of bound, LDL^T and eigensolve
PRUNE_SLACK = 1e-9

_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _pair_table(n: int):
    """Upper-triangle pair ordering, weights, and the (i, j) -> slot map."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    slot = {}
    for k, (i, j) in enumerate(pairs):
        slot[(i, j)] = k
        slot[(j, i)] = k
    weights = np.array([1.0 if i == j else _SQRT2 for (i, j) in pairs])
    return pairs, slot, weights


def form_dimension(n: int, m: int) -> int:
    return m * (n * (n + 1) // 2)


def flatten_h(h: np.ndarray) -> np.ndarray:
    """Batched symmetric flattening over (a, i <= j); h has shape (..., m, n, n).

    The sqrt(2) weight on off-diagonal pairs makes the flattened Euclidean
    norm equal sum_{a,i,j} h^2 over ordered index pairs, i.e. |B|^2 literally.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    pairs, _, weights = _pair_table(n)
    ii = [p[0] for p in pairs]
    jj = [p[1] for p in pairs]
    flat = h[..., :, ii, jj] * weights
    return flat.reshape(*h.shape[:-3], -1)


# ---------------------------------------------------------------------------
# direct evaluation

def laplacian_v_batch(lams: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Delta v = v sum_j X_j^T (Hess v / v) X_j of profiles lams (K, m) with symmetric hs (K, m, n, n).

    One profile is the stack lams (m,) with hs (m, n, n); it gives a scalar,
    bitwise row 0 of its K = 1 stack.  (X_j)_{i,a} = h_{a,ij} sits at slot
    i*m + a of `grassmann.hessian_over_v`.
    """
    lams = np.asarray(lams, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if lams.ndim not in (1, 2) or hs.shape[:-2] != lams.shape or hs.shape[-1] != hs.shape[-2]:
        raise DimensionMismatch(f"profiles {lams.shape} vs tensors {hs.shape}")
    if lams.ndim == 1:
        return laplacian_v_batch(lams[None], hs[None])[0]
    K, m, n = hs.shape[:3]
    X = hs.transpose(0, 3, 2, 1).reshape(K, n, n * m)
    quad = np.empty(K)
    rows = max(CHUNK // (n * m), 1)
    for start in range(0, K, rows):
        x = X[start : start + rows]
        H = grassmann.hessian_over_v(lams[start : start + rows], n)
        quad[start : start + rows] = np.einsum("kjp,kjp->k", x @ H, x)
    return np.prod(np.sqrt(1.0 + lams**2), axis=-1) * quad


# ---------------------------------------------------------------------------
# the typed-block catalogue of the form

# v^{-1} Delta v is block diagonal in the flattened coordinates of h.  Each
# block collects the h_{a,ij} of one index group, and its matrix is
#     B(lambda) = sum_f features(lambda)_f coeffs[f],
# with features (1; lambda_a^2; lambda_a lambda_b for a < b).  The sqrt(2)
# weights of `flatten_h` turn the h-coordinate couplings into 1/2 and 1/sqrt(2).
_SQRT_HALF = 1.0 / _SQRT2


@dataclass(frozen=True)
class FormBlock:
    """One index-typed block of the Delta-v form in flattened coordinates."""
    kind: str                # "pure", "I", "II", "III" or "IV"
    key: tuple               # (a, i, j), (j,), (j, a, b), (a, b, c) or (a,)
    slots: tuple             # positions in flatten_h coordinates
    coeffs: np.ndarray       # (F, s, s), one matrix per feature


@lru_cache(maxsize=None)
def _duo_indices(m: int) -> tuple:
    """The (a, b) index arrays of the pairs a < b, in `block_catalogue` feature order."""
    return np.triu_indices(m, 1)


def _features(lams: np.ndarray) -> np.ndarray:
    """(1, lambda_a^2, lambda_a lambda_b for a < b) of profiles (..., m); shape (..., F)."""
    lams = np.asarray(lams, dtype=float)
    a, b = _duo_indices(lams.shape[-1])
    ones = np.ones(lams.shape[:-1] + (1,))
    return np.concatenate([ones, lams**2, lams[..., a] * lams[..., b]], axis=-1)


@lru_cache(maxsize=None)
def block_catalogue(n: int, m: int) -> tuple[FormBlock, ...]:
    """Every block of the form, written from the index groups of h_{a,ij}.

    pure     h_{a,ij} with i <= j both beyond m
    I_j      h_{a,aj} for every a, j beyond m
    II_j,ab  h_{a,bj}, h_{b,aj} for a < b, j beyond m
    III_abc  h_{a,bc}, h_{b,ca}, h_{c,ab} for a < b < c
    IV_a     h_{a,aa}; h_{a,bb} for b != a; h_{b,ba} for b != a

    Within a kind the blocks follow the index order of `TermDecomposition`.
    """
    _, slot, _ = _pair_table(n)
    T = n * (n + 1) // 2
    duos = list(itertools.combinations(range(m), 2))
    pair_feature = {duo: 1 + m + k for k, duo in enumerate(duos)}
    high = range(m, n)

    def flat(a: int, i: int, j: int) -> int:
        return a * T + slot[(i, j)]

    def block(kind, key, slots, squares=(), couplings=()):
        """squares: (a, p, w) adds w lambda_a^2 at (p, p); couplings: (a, b, p, q, w)
        adds w lambda_a lambda_b at (p, q) and (q, p)."""
        C = np.zeros((1 + m + len(duos), len(slots), len(slots)))
        C[0] = np.eye(len(slots))
        for a, p, w in squares:
            C[1 + a, p, p] += w
        for a, b, p, q, w in couplings:
            f = pair_feature[(min(a, b), max(a, b))]
            C[f, p, q] += w
            C[f, q, p] += w
        C.flags.writeable = False
        return FormBlock(kind, key, tuple(slots), C)

    out = [
        block("pure", (a, i, j), [flat(a, i, j)])
        for a in range(m) for i in high for j in range(i, n)
    ]
    for j in high:
        out.append(block(
            "I", (j,), [flat(a, a, j) for a in range(m)],
            squares=[(a, a, 1.0) for a in range(m)],
            couplings=[(a, b, a, b, 0.5) for a, b in duos],
        ))
    for j in high:
        for a, b in duos:
            out.append(block("II", (j, a, b), [flat(a, b, j), flat(b, a, j)], couplings=[(a, b, 0, 1, 0.5)]))
    for a, b, c in itertools.combinations(range(m), 3):
        out.append(block(
            "III", (a, b, c), [flat(a, b, c), flat(b, c, a), flat(c, a, b)],
            couplings=[(a, b, 0, 1, 0.5), (b, c, 1, 2, 0.5), (c, a, 2, 0, 0.5)],
        ))
    for a in range(m):
        others = [b for b in range(m) if b != a]
        y = {b: 1 + k for k, b in enumerate(others)}      # h_{a,bb}
        z = {b: m + k for k, b in enumerate(others)}      # h_{b,ba}
        z[a] = 0                                          # h_{a,aa} closes the z family
        out.append(block(
            "IV", (a,),
            [flat(a, a, a)] + [flat(a, b, b) for b in others] + [flat(b, b, a) for b in others],
            squares=[(a, 0, 2.0)] + [(b, z[b], 1.0) for b in others],
            couplings=[(a, b, y[b], z[b], _SQRT_HALF) for b in others]
            + [(b, c, z[b], z[c], _SQRT_HALF if a in (b, c) else 0.5) for b, c in duos],
        ))
    return tuple(out)


def _stack(blocks) -> np.ndarray:
    """Coefficients of same-size blocks as one (F, nb, s, s) array."""
    return np.stack([blk.coeffs for blk in blocks], axis=1)


@lru_cache(maxsize=None)
def _kind_stacks(n: int, m: int) -> dict:
    """kind -> (slots (nb, s), coefficient stack) over every block of that kind."""
    kinds: dict = {}
    for blk in block_catalogue(n, m):
        kinds.setdefault(blk.kind, []).append(blk)
    return {kind: (np.array([blk.slots for blk in blks]), _stack(blks)) for kind, blks in kinds.items()}


@lru_cache(maxsize=None)
def _distinct_stacks(n: int, m: int) -> tuple:
    """Coefficient stacks of the distinct blocks, one per block size.

    I_j and II_{j,ab} repeat for every high index j and the pure blocks are
    all the identity, so the distinct blocks do not depend on n beyond n > m.
    """
    distinct = {(blk.coeffs.shape, blk.coeffs.tobytes()): blk for blk in block_catalogue(n, m)}
    sizes: dict = {}
    for blk in distinct.values():
        sizes.setdefault(len(blk.slots), []).append(blk)
    return tuple(_stack(blks) for _, blks in sorted(sizes.items()))


def _block_min_eigs(stacks, lams: np.ndarray) -> list[np.ndarray]:
    """lambda_min of every block of each coefficient stack (F, nb, s, s) at profiles (K, m):
    one (K, nb) array per stack.  The stacks share each CHUNK batch's features."""
    lams = np.asarray(lams, dtype=float)
    out = [np.empty((lams.shape[0], stack.shape[1])) for stack in stacks]
    for start in range(0, lams.shape[0], CHUNK):
        features = _features(lams[start : start + CHUNK])
        for low, stack in zip(out, stacks):
            low[start : start + CHUNK] = np.linalg.eigvalsh(_contract(features, stack))[..., 0]
    return out


def _with_gershgorin(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A coefficient stack (F, nb, s, s) and its rows G = 2 diag(C) - rowsum(C), shape (F, nb, s).

    No off-diagonal coefficient of the catalogue is negative, nor any feature at lambda >= 0, so
    row i of features . G is Gershgorin's bound B_ii - sum_{j != i} |B_ij| <= lambda_min(B).
    """
    return stack, 2.0 * np.diagonal(stack, axis1=-2, axis2=-1) - stack.sum(axis=-1)


@lru_cache(maxsize=None)
def _pruning_stacks(n: int, m: int) -> tuple:
    """`_with_gershgorin` of each of the `_distinct_stacks`, the blocks of `min_form_eigenvalue`."""
    return tuple(map(_with_gershgorin, _distinct_stacks(n, m)))


def _contract(features: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """B(lambda) = features (..., F) . coeffs (F, ...) of one block or a stack: the one `np.dot`
    that np.tensordot(features, coeffs, axes=1) makes, without its argument handling, which
    costs more than the product on the one-row batches of the K0 face search."""
    F = coeffs.shape[0]
    return np.dot(features.reshape(-1, F), coeffs.reshape(F, -1)).reshape(features.shape[:-1] + coeffs.shape[1:])


def _min_last(x: np.ndarray) -> np.ndarray:
    """x.min(axis=-1), or all(axis=-1) of booleans, as an in-place np.minimum fold: faster than the
    reduction over a short last axis."""
    out = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        np.minimum(out, x[..., i], out=out)
    return out


def _clears(B: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Which blocks B (N, s, s) keep every pivot of an LDL^T of B - shift I positive, shift (N,).
    The batch is the last axis, and a failed block divides by 1 from then on."""
    s = B.shape[-1]
    A = B.transpose(1, 2, 0).copy()
    A.reshape(s * s, -1)[:: s + 1] -= shift
    ok = np.ones(A.shape[-1], dtype=bool)
    for k in range(s):
        ok &= A[k, k] > 0.0
        col = A[k + 1 :, k] / np.where(ok, A[k, k], 1.0)
        A[k + 1 :, k + 1 :] -= col[:, None] * A[k, k + 1 :]
    return ok


def _batch_minimum(stacks, lams: np.ndarray, weights: np.ndarray) -> tuple[int, float]:
    """First argmin and minimum over profiles (K, m) of weights (K,) times lambda_min over the
    blocks of `_with_gershgorin` stacks, bitwise those of the exhaustive per-profile values.

    A row whose profile and weight equal the row before it ties with an earlier row and is
    skipped.  Per CHUNK rows and stack, in order, with cut = running minimum + PRUNE_SLACK, a
    block is dropped when its weighted bound min_i (features . G)_i exceeds the cut or, once the
    cut is finite (an infinite one clears nothing), when `_clears` finds B - (cut / w) I
    positive definite; the rest go to one `eigvalsh` call (none if none is left).  A floating
    LDL^T that completes is exact for a matrix within about s^2 u |B| of B (Higham, ch. 10; at
    most 4e-13 for the 15 x 15 blocks at m = 8, |B| <= 17), far inside the slack, so a dropped
    block can neither be nor tie the minimum.  Rounding is monotone and w > 0, so folding
    w lambda_min per block into the row minimum gives bitwise w times the block minimum.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0 or not np.all(lams >= 0.0):
        raise PreconditionViolated("need a nonempty batch of nonnegative profiles")
    weights = np.asarray(weights)
    fresh = np.flatnonzero(np.r_[True, ~(_min_last(lams[1:] == lams[:-1]) & (weights[1:] == weights[:-1]))])
    index, best = -1, math.inf
    for start in range(0, fresh.size, CHUNK):
        chunk = fresh[start : start + CHUNK]
        features, w = _features(lams[chunk]), weights[chunk]
        low = np.full(w.shape, math.inf)
        for stack, G in stacks:
            cut = min(best, low.min()) + PRUNE_SLACK
            rows, blocks = np.nonzero(w[:, None] * _min_last(_contract(features, G)) <= cut)
            B = _contract(features, stack)[rows, blocks]
            if math.isfinite(cut):
                hard = ~_clears(B, cut / w[rows])
                rows, B = rows[hard], B[hard]
            if rows.size:
                np.minimum.at(low, rows, w[rows] * np.linalg.eigvalsh(B)[:, 0])
        k = int(np.argmin(low))
        if low[k] < best:
            index, best = int(chunk[k]), float(low[k])
    return index, best


# ---------------------------------------------------------------------------
# grouped decomposition

@dataclass(frozen=True)
class TermDecomposition:
    """v^{-1} Delta v regrouped by the index types of the h coefficients."""
    pure_high: float                 # both tangent indices beyond m
    I_terms: np.ndarray              # (n - m,), one per high index j
    II_terms: np.ndarray             # (n - m, #pairs a<b)
    III_terms: np.ndarray            # (#triples a<b<c,)
    IV_terms: np.ndarray             # (m,)

    def total(self) -> float:
        return float(
            self.pure_high
            + self.I_terms.sum()
            + self.II_terms.sum()
            + self.III_terms.sum()
            + self.IV_terms.sum()
        )


def decompose_terms(lams: np.ndarray, h: np.ndarray) -> TermDecomposition:
    """Evaluate each named group at the profile lams (m,) and symmetric h (m, n, n) exactly
    as u_B^T B(lambda) u_B; their sum is v^{-1} Delta v."""
    lams = np.asarray(lams, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or lams.shape != h.shape[:1]:
        raise DimensionMismatch(f"profile {lams.shape} vs tensor {h.shape}")
    m, n = h.shape[:2]
    u = flatten_h(h)
    stacks = _kind_stacks(n, m)

    def values(kind: str) -> np.ndarray:
        if kind not in stacks:
            return np.zeros(0)
        slots, stack = stacks[kind]
        x = u[slots]
        return np.einsum("bi,bij,bj->b", x, _contract(_features(lams), stack), x)

    return TermDecomposition(
        float(values("pure").sum()),
        values("I"),
        values("II").reshape(n - m, m * (m - 1) // 2),
        values("III"),
        values("IV"),
    )


# ---------------------------------------------------------------------------
# the full quadratic form

def quadratic_form_batch(n: int, m: int, lams: np.ndarray) -> np.ndarray:
    """Dense form matrices (K, D, D), scattered from the block catalogue.

    This is the test oracle for the catalogue: no certificate is computed
    from the dense matrix.
    """
    lams = np.asarray(lams, dtype=float)
    D = form_dimension(n, m)
    M = np.zeros((lams.shape[0], D, D))
    for slots, stack in _kind_stacks(n, m).values():
        M[:, slots[:, :, None], slots[:, None, :]] = _contract(_features(lams), stack)
    v = np.prod(np.sqrt(1.0 + lams**2), axis=-1)
    return v[:, None, None] * M


def min_form_eigenvalue(n: int, m: int, lams: np.ndarray) -> tuple[int, float]:
    """First argmin and minimum over profiles (K, m) of the Delta-v form's smallest eigenvalue,
    v times the smallest eigenvalue over the distinct blocks (`_batch_minimum`)."""
    lams = np.asarray(lams, dtype=float)
    return _batch_minimum(_pruning_stacks(n, m), lams, np.prod(np.sqrt(1.0 + lams**2), axis=-1))


# ---------------------------------------------------------------------------
# sampling of admissible profiles

def sample_admissible_lambdas(
    m: int, v_bound: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sample of {lambda >= 0 : prod(1+lambda^2) <= v_bound^2}, by rejection from its bounding box."""
    if v_bound < 1.0:
        raise PreconditionViolated("v_bound must be >= 1")
    hi = math.sqrt(max(v_bound * v_bound - 1.0, 0.0))
    if hi == 0.0:
        return np.zeros((count, m))
    return rejection_sample(count, (m,), lambda rows: rng.uniform(0.0, hi, size=(rows, m)),
                            lambda lams: np.prod(1.0 + lams**2, axis=1) <= v_bound * v_bound)


# ---------------------------------------------------------------------------
# the block lemmas

def block_margin(kind: str, lams: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """c lambda_min(B_kind) - bound(v) of the worst block of one kind, at (K, m) profiles with their own v.

    The lemmas in h coordinates, with blocks from `_kind_stacks(m + 1, m)`,
    whose one high index carries I and II (I ignores vs):
      I    c = 1, bound 1      I_j >= 2 sum_a h_{a,aj}^2
      II   c = 2, bound 3 - v  lambda_a lambda_b <= v - 1
      III  c = 2, bound 3 - v  the triple block dominates (3 - v) I
    """
    lams = np.asarray(lams, dtype=float)
    m = lams.shape[-1]
    low = _block_min_eigs([_kind_stacks(m + 1, m)[kind][1]], lams)[0].min(axis=1)
    if kind == "I":
        return low - 1.0
    return 2.0 * low - (3.0 - np.asarray(vs, dtype=float))


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


# ---------------------------------------------------------------------------
# diagonal block (the 2m-1 dimensional reduced form)

def iv_eps0_bound(lams: np.ndarray) -> np.ndarray:
    """Per-sample supremum of feasible eps0: lambda_min(B_IV,0) at profiles (K, m).

    In h coordinates the subtracted term eps0 E weighs h_{a,aa} and h_{a,bb}
    by 1 and h_{b,ba} by 2, and A - eps E >= 0 iff eps <= lambda_min(E^{-1/2}
    A E^{-1/2}).  In flattened coordinates those weights are the identity, so
    the flattened block B_IV = E^{-1/2} A E^{-1/2} carries eps0 as a plain
    shift.  Sampling with exchangeable random profiles makes alpha = 0 fully
    general.
    """
    m = np.shape(lams)[-1]
    return _block_min_eigs([_kind_stacks(m, m)["IV"][1][:, :1]], lams)[0][:, 0]


@dataclass
class Eps0Result:
    """eps0 on a sample of `samples` profiles at this m, and min(bound) - eps0 over it."""
    m: int
    eps0: float
    verified_margin: float
    samples: int


def find_eps0(m: int, samples: int = 1_000_000, seed: int = 0) -> Eps0Result:
    """Largest eps0 keeping the diagonal block PSD on sampled admissible profiles (v <= 3).

    The minimum per-sample bound lambda_min(B_IV), clipped to [0, 1 - 1e-9].
    The margin is that minimum minus eps0: 0.0 unless eps0 was clipped, and
    negative exactly when the block is not PSD on the sample (eps0 = 0).
    """
    if m < 2:
        raise PreconditionViolated("need m >= 2")
    lams = sample_admissible_lambdas(m, 3.0, samples, substream(seed, 2))
    _, bound = _batch_minimum([_with_gershgorin(_kind_stacks(m, m)["IV"][1][:, :1])], lams, np.ones(samples))
    eps0 = min(max(bound, 0.0), 1.0 - 1e-9)
    return Eps0Result(m, eps0, bound - eps0, samples)


# ---------------------------------------------------------------------------
# scalar extrema backing the diagonal-block argument

@dataclass(frozen=True)
class ExtremumRecord:
    name: str
    computed_min: float
    argmin: float
    closed_form: float
    abs_diff: float


def auxiliary_extrema() -> list[ExtremumRecord]:
    """Minimise the three scalar obstruction functions and compare to closed forms.

    With C = 1 the minima are 27/2, 5 + 2 sqrt(6), and (187 - 38 sqrt(19))/27,
    attained at x = 5, x = 2 + sqrt(6), t = (10 + sqrt(19))/3.
    """
    C = 1.0
    records = []

    def run(name, fun, lo, hi, closed):
        res = minimize_scalar(fun, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
        records.append(
            ExtremumRecord(
                name=name,
                computed_min=float(res.fun),
                argmin=float(res.x),
                closed_form=closed,
                abs_diff=abs(float(res.fun) - closed),
            )
        )

    run(
        "triple_overlap_ratio",
        lambda x: (x + 1.0) * (x + 2.0 * C * C - C) ** 2 / (x - C) ** 2,
        C + 1e-9,
        1e3,
        (2.0 * C + 1.0) ** 3 / (C + 1.0),
    )
    run(
        "pair_overlap_ratio",
        lambda x: (x + 1.0) * (x + 2.0 * C * (C - 1.0)) / (x - 2.0 * C),
        2.0 * C + 1e-9,
        1e3,
        2.0 * C * C + 2.0 * C + 1.0 + 2.0 * C * math.sqrt(4.0 * C + 2.0),
    )
    run(
        "cubic_threshold",
        lambda t: t**3 - 10.0 * t**2 + 27.0 * t - 9.0,
        (3.0 + math.sqrt(5.0)) / 2.0 + 1e-9,
        50.0,
        (187.0 - 38.0 * math.sqrt(19.0)) / 27.0,
    )
    return records


# ---------------------------------------------------------------------------
# the subharmonicity constant

@dataclass
class CertificateReport:
    """Constrained-minimum estimate of K0 with its sampling audit and closed-form gap."""
    n: int
    m: int
    beta0: float
    k0: float
    k0_closed_form: float | None
    closed_form_gap: float | None
    argmin_lambda: list
    v_at_argmin: float
    min_eigenvalue_trace: list
    sample_count: int
    worst_violation: float
    budget_exhausted: bool
    evaluations: int


def k0_closed_form(n: int, m: int, beta0: float) -> float | None:
    """K0 in closed form: min(1, beta0 (3 - beta0) / 2) for m >= 2, 1 for m = 1, None at n = m = 2.

    For m >= 2 it is the II-block eigenvalue v (1 - lambda_a lambda_b / 2)
    at v = beta0 with the pair bound lambda_a lambda_b <= v - 1; at n = m >= 3
    the III block attains the same value.  With m = 1 there is no II block,
    and the search returns exactly 1 at every beta0.  At n = m = 2 the
    catalogue holds only the two IV blocks, whose minimum has no closed form
    here and lies above the pair value.  Reports carry it beside the searched
    k0 as information, not as a check.
    """
    if n == m == 2:
        return None
    return 1.0 if m == 1 else min(1.0, beta0 * (3.0 - beta0) / 2.0)


# axis values of the K0 mesh
MESH_AXIS = 17
# most rows the K0 mesh may keep: at most 298,775 at m <= 16 with beta0 >= 1 + 1e-10;
# nearer 1 the 1e-12 slack of the admissibility test admits up to C(16 + m, m) rows
# (735,471 at m = 8), and the search is refused
MESH_ROWS = 300_000


def _admissible_mesh(m: int, lam_max: float, bound2: float) -> np.ndarray:
    """Non-increasing profiles over MESH_AXIS even values on [0, lam_max] (only 0 when
    lam_max = 0) with prod(1 + lambda^2) <= bound2: bitwise, and in the same order, the
    admissible rows of the full `combinations_with_replacement` mesh, never built.

    Each level extends the kept index prefixes, in order, by each index from their last on
    and keeps those whose running product of 1 + lambda^2 stays <= bound2; the factors are
    >= 1, so the rounded product never falls along a row and no admissible row is cut.
    """
    g = MESH_AXIS if lam_max > 0.0 else 1
    axis = np.linspace(0.0, lam_max, g)[::-1]
    index, prod, last = np.zeros((1, 0), dtype=np.intp), np.ones(1), np.zeros(1, dtype=np.intp)
    for _ in range(m):
        counts = g - last
        parent = np.repeat(np.arange(last.size), counts)
        child = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts - last, counts)
        prod = prod[parent] * (1.0 + axis[child] ** 2)
        keep = prod <= bound2
        if np.count_nonzero(keep) > MESH_ROWS:
            raise PreconditionViolated(f"the K0 mesh at m = {m} passes {MESH_ROWS} rows: beta0 is too near 1")
        index, prod, last = np.column_stack([index[parent[keep]], child[keep]]), prod[keep], child[keep]
    mesh = axis[index]
    return mesh[np.prod(1.0 + mesh**2, axis=1) <= bound2]


def compute_K0(
    n: int,
    m: int,
    beta0: float,
    audit_samples: int = 100_000,
    seed: int = 0,
) -> CertificateReport:
    """Minimise the smallest form eigenvalue over admissible profiles.

    K0 = min over {lambda >= 0, prod(1+lambda^2) <= beta0^2} of the smallest
    eigenvalue of the Delta-v form; since the flattening is norm-preserving
    this bounds Delta v / |B|^2 from below.  beta0 = 3 is allowed as a
    degenerate boundary probe; m > 16 is refused (289,227 mesh rows at m = 16,
    beta0 = 1.001, 528,236 at m = 20), and so is a mesh of more than MESH_ROWS
    rows.  The form is symmetric in lambda, so the search visits sorted
    profiles: `_admissible_mesh` and, for m >= 2 and beta0 > 2, the
    closed-form pair profile in one batch minimum.

    At n = m = 2, where the catalogue holds only the two IV blocks and
    `k0_closed_form` is None, a bounded scalar search then minimises along
    the sorted face u_1 + u_2 = 2 log beta0, u = log1p(lambda^2), over
    u_1 in [log beta0, 2 log beta0].  `evaluations` counts the mesh rows, the
    face evaluations and the audit samples; `budget_exhausted` says the face
    search stopped at scipy's iteration cap.
    """
    if not (1.0 <= beta0 <= 3.0):
        raise PreconditionViolated("need 1 <= beta0 <= 3")
    if not (1 <= m <= min(n, 16)):
        raise PreconditionViolated("need 1 <= m <= n and m <= 16")
    bound2 = beta0 * beta0 * (1.0 + 1e-12)
    lam_max = math.sqrt(max(beta0 * beta0 - 1.0, 0.0))

    mesh = _admissible_mesh(m, lam_max, bound2)
    if m >= 2 and beta0 > 2.0:
        pair = np.zeros((1, m))
        pair[0, :2] = math.sqrt(beta0 - 1.0)
        mesh = np.vstack([mesh, pair])
    k, best_val = min_form_eigenvalue(n, m, mesh)
    best_lam = mesh[k]
    evaluations = mesh.shape[0]
    trace = [{"evaluations": evaluations, "lambda": best_lam.tolist(), "value": best_val}]

    budget_exhausted = False
    if n == m == 2 and beta0 > 1.0:
        log_b = math.log(beta0)

        def face(u1: float) -> np.ndarray:
            return np.sqrt(np.expm1(np.array([[u1, 2.0 * log_b - u1]])))

        res = minimize_scalar(lambda u1: min_form_eigenvalue(2, 2, face(u1))[1], bounds=(log_b, 2.0 * log_b),
                              method="bounded", options={"xatol": 1e-12})
        evaluations += res.nfev
        budget_exhausted = not res.success
        if res.fun < best_val:
            best_val, best_lam = float(res.fun), face(res.x)[0]
            trace.append({"evaluations": evaluations, "lambda": best_lam.tolist(), "value": best_val})

    worst_violation = float("inf")
    if audit_samples > 0:
        audit = sample_admissible_lambdas(m, beta0, audit_samples, substream(seed, 3))
        k, low = min_form_eigenvalue(n, m, audit)
        evaluations += audit.shape[0]
        if low < best_val:
            # keep the reported constant below every recorded sample
            best_val, best_lam = low, audit[k].copy()
            trace.append({"evaluations": evaluations, "lambda": best_lam.tolist(), "value": best_val})
        worst_violation = low - best_val

    closed = k0_closed_form(n, m, beta0)
    return CertificateReport(
        n=n,
        m=m,
        beta0=beta0,
        k0=best_val,
        k0_closed_form=closed,
        closed_form_gap=None if closed is None else best_val - closed,
        argmin_lambda=best_lam.tolist(),
        v_at_argmin=float(np.prod(np.sqrt(1.0 + best_lam**2))),
        min_eigenvalue_trace=trace,
        sample_count=audit_samples,
        worst_violation=worst_violation,
        budget_exhausted=budget_exhausted,
        evaluations=evaluations,
    )
