"""Positivity certificates for the Laplacian of the volume-distortion function.

For a graph with parallel mean curvature, singular-value profile lambda and
second fundamental form h, the Laplacian of v = prod sqrt(1 + lambda_a^2) is

    Delta v = sum_j Hess v(X_j, X_j),    (X_j)_{i,a} = h_{a,ij},

with Hess v / v the matrix `grassmann.hessian_over_v` defines, which
`laplacian_v_batch` sums in closed form without building it.  In the flattened
coordinates of h the form is block diagonal.  This module writes those
index-typed blocks once (`block_catalogue`), evaluates the term
decomposition, the block lemmas (`block_margin`) and eps0 from them, solves
the form blockwise, and estimates the strong-subharmonicity constant

    K0(beta0) = min { Delta v / |h|^2 : prod(1 + lambda^2) <= beta0^2 }

by the smallest form eigenvalue at the two profiles where K0 has a closed
form, lambda = 0 and the pair profile, plus a line search on the boundary
face at n = m = 2.

K0 comes from that search alone; a sampled audit of the same form reports
its minimum minus K0 and never lowers K0.  eps0 is the batch minimum of the
diagonal-block bound, unclipped, so a negative value shows on the report.

K0, eps0 and the block-lemma margins are batch minima.  `_batch_minimum`
takes one group of profiles or several contiguous ones (`compute_K0` puts
every beta0's search profiles and audit in one call, one group each),
reads a 1 x 1 block off its Gershgorin bound, drops the blocks that the
bound and then an LDL^T test place above their group's running minimum,
eigensolves the rest, and returns bitwise each group's argmin and minimum
of the exhaustive per-profile values.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# minimize is not called here: perfbench/tracing.py wraps certifier.minimize by name
from scipy.optimize import minimize, minimize_scalar  # noqa: F401

from .errors import DimensionMismatch, PreconditionViolated
from .rng import rejection_sample, substream

# single global slack absorbing eigensolver roundoff in PSD assertions
PSD_TOL = 1e-9
# profiles per chunk of a batch minimum, which bounds the memory of one chunk's blocks; a
# chunk of 20,000 (4, 3) profiles cost more per profile than two of 10,000 (2-core Xeon)
CHUNK = 10_000
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
    bitwise its row of any stack.  (X_j)_{i,a} = h_{a,ij} sits at slot
    i*m + a of `grassmann.hessian_over_v`, which is the identity plus, for
    indices below p = min(n, m), 2 lambda_c^2 on slot (c, c) and lambda_a lambda_b
    between slots (a, a)-(b, b) and (a, b)-(b, a), a != b.  So X_j^T (Hess v / v) X_j is

        sum_{i,a} h_{a,ij}^2 + 2 sum_c lambda_c^2 h_{c,cj}^2
          + sum_{a != b} lambda_a lambda_b (h_{a,aj} h_{b,bj} + h_{a,bj} h_{b,aj}),

    and the diagonal terms split evenly between two squares: summed over j,

        Delta v / v = |h|^2 + sum_j [ (sum_{c<p} lambda_c h_{c,cj})^2
                                      + sum_{a,b<p} lambda_a lambda_b h_{a,bj} h_{b,aj} ].

    Each sum is an `np.vecdot`, one BLAS dot per row, so that each row of a
    stack gives the bits it gives alone (an einsum or a reduction over a
    stack may order its sums by the stack's shape); no (nm) x (nm) matrix is
    built.
    """
    lams = np.asarray(lams, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if lams.ndim not in (1, 2) or hs.shape[:-2] != lams.shape or hs.shape[-1] != hs.shape[-2]:
        raise DimensionMismatch(f"profiles {lams.shape} vs tensors {hs.shape}")
    lead, m, n = lams.shape[:-1], hs.shape[-3], hs.shape[-1]
    p = min(n, m)
    lam = lams[..., :p]
    flat = hs.reshape(*lead, -1)
    trace = np.vecdot(np.diagonal(hs, axis1=-3, axis2=-2), lam[..., None, :])  # (..., n): sum_c lambda_c h_{c,cj}
    y = lam[..., :, None, None] * hs[..., :p, :p, :]                           # lambda_a h_{a,bj}
    cross = np.vecdot(y.reshape(*lead, -1), np.swapaxes(y, -3, -2).reshape(*lead, -1))
    quad = np.vecdot(flat, flat) + np.vecdot(trace, trace) + cross
    return profile_v(lams) * quad


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

    Within a kind the blocks run in lexicographic order of their subscripts as
    written above (a, i, j for pure); `decompose_terms` keeps this order.
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


def _stack(blocks) -> tuple:
    """(C, G): the coefficients of same-size blocks as one (F, nb, s, s) stack C and its rows
    G = 2 diag(C) - rowsum(C), shape (F, nb, s).

    No off-diagonal coefficient of the catalogue is negative, nor any feature at lambda >= 0, so
    row i of features . G is Gershgorin's bound B_ii - sum_{j != i} |B_ij| <= lambda_min(B).
    """
    C = np.stack([blk.coeffs for blk in blocks], axis=1)
    return C, 2.0 * np.diagonal(C, axis1=-2, axis2=-1) - C.sum(axis=-1)


@lru_cache(maxsize=None)
def _kind_stacks(n: int, m: int) -> dict:
    """kind -> (slots (nb, s), C, G): the slots and `_stack` of every block of that kind."""
    kinds: dict = {}
    for blk in block_catalogue(n, m):
        kinds.setdefault(blk.kind, []).append(blk)
    return {kind: (np.array([blk.slots for blk in blks]), *_stack(blks)) for kind, blks in kinds.items()}


@lru_cache(maxsize=None)
def _distinct_stacks(n: int, m: int) -> tuple:
    """`_stack`s of the distinct blocks, one per block size, ascending.

    I_j and II_{j,ab} repeat for every high index j and the pure blocks are
    all the identity, so the distinct blocks do not depend on n beyond n > m.
    """
    distinct = {(blk.coeffs.shape, blk.coeffs.tobytes()): blk for blk in block_catalogue(n, m)}
    sizes: dict = {}
    for blk in distinct.values():
        sizes.setdefault(len(blk.slots), []).append(blk)
    return tuple(_stack(blks) for _, blks in sorted(sizes.items()))


def _contract(features: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """B(lambda) = features (..., F) . coeffs (F, ...) of one block or a stack: the one `np.dot`
    that np.tensordot(features, coeffs, axes=1) makes, without its argument handling, which
    costs more than the product on the one-row batches of the K0 face search."""
    F = coeffs.shape[0]
    return np.dot(features.reshape(-1, F), coeffs.reshape(F, -1)).reshape(features.shape[:-1] + coeffs.shape[1:])


def _fold_last(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce(x, axis=-1) as an in-place left-to-right fold: bitwise the reduction for
    np.minimum (all(axis=-1) of booleans) and np.multiply (np.prod), and faster over a short
    last axis."""
    out = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        ufunc(out, x[..., i], out=out)
    return out


def profile_v(lams: np.ndarray) -> np.ndarray:
    """v = prod sqrt(1 + lambda^2) of profiles (..., m), shape (...): the one v of a profile, a
    left-to-right fold, so bitwise np.prod and math.prod over the last axis."""
    return _fold_last(np.multiply, np.sqrt(1.0 + lams**2))


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


def _batch_minimum(stacks, lams: np.ndarray, weights, offsets, starts=None):
    """First argmin and minimum over profiles (K, m) of w lambda_min(B) - o over the blocks B of
    `_stack` coefficient stacks (F, nb, s, s), with weights w > 0 and offsets o scalars or
    (K,): bitwise those of the exhaustive per-profile values w min_B lambda_min(B) - o.

    With `starts`, the ascending first rows of contiguous groups (starts[0] = 0; an empty group
    repeats the next start or ends at K), it returns one (argmin, minimum) per group, the argmin
    a row of lams, each bitwise that of a separate call on the group's rows; an empty group
    gives (-1, inf).  Without it the batch is one group and the pair is returned alone.

    Per chunk of contiguous rows (CHUNK // 2, then CHUNK) and stack, in order, a block's bound
    is min_i (features . G)_i; a 1 x 1 block's is bitwise its `eigvalsh`.  With cut = the
    running minimum of the row's group + PRUNE_SLACK and shift = (cut + o) / w, a larger block
    is dropped when its bound exceeds the shift or, once some group's cut is finite, when
    `_clears` finds B - shift I positive definite (an infinite shift fails the first pivot, so
    such a row clears nothing); the rest go to one `eigvalsh` call (none if none is left).
    Only the blocks the bound keeps are formed, block by block: each coefficient entry of the
    catalogue is one feature times a weight, or 1 plus lambda_a^2 times 1 or 2, so each entry
    of B rounds once in any summation order and a block formed alone has the bits it has in
    the whole stack.  A floating LDL^T that completes is exact for a matrix within about
    s^2 u |B| of B (Higham, ch. 10; at most 4e-13 for the 15 x 15 blocks at m = 8, |B| <= 17),
    far inside the slack, so a dropped block can neither be nor tie its group's minimum.
    Rounding is monotone and w > 0, so folding w lambda_min - o per block into the row minimum
    gives bitwise w times the block minimum, minus o.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0 or not np.all(lams >= 0.0):
        raise PreconditionViolated("need a nonempty batch of nonnegative profiles")
    K = lams.shape[0]
    firsts = np.array((0,) if starts is None else starts, dtype=np.intp)
    weights, offsets = np.full(K, weights, dtype=float), np.full(K, offsets, dtype=float)
    index, best = np.full(firsts.size, -1), np.full(firsts.size, math.inf)
    for stop in range(CHUNK // 2, K + CHUNK, CHUNK):
        lo, hi = max(stop - CHUNK, 0), min(stop, K)
        # group g holds the chunk's rows edges[g]:edges[g + 1]
        edges = np.r_[np.clip(firsts - lo, 0, hi - lo), hi - lo]
        g = np.flatnonzero(edges[1:] > edges[:-1])
        heads, sizes = edges[g], edges[g + 1] - edges[g]
        features, w, o = _features(lams[lo:hi]), weights[lo:hi], offsets[lo:hi]
        low = np.full(w.shape, math.inf)
        for stack, G in stacks:
            bound = _fold_last(np.minimum, _contract(features, G))
            if stack.shape[-1] == 1:
                np.minimum(low, w * _fold_last(np.minimum, bound) - o, out=low)
                continue
            cut = np.minimum(best[g], np.minimum.reduceat(low, heads)) + PRUNE_SLACK
            shift = (np.repeat(cut, sizes) + o) / w
            rows, blocks = np.nonzero(bound <= shift[:, None])
            B = np.empty((rows.size,) + stack.shape[2:])
            for b in range(stack.shape[1]):
                pick = blocks == b
                B[pick] = _contract(features[rows[pick]], stack[:, b])
            if np.isfinite(cut).any():
                hard = ~_clears(B, shift[rows])
                rows, B = rows[hard], B[hard]
            if rows.size:
                np.minimum.at(low, rows, w[rows] * np.linalg.eigvalsh(B)[:, 0] - o[rows])
        for group, head, end in zip(g, heads, heads + sizes):
            k = head + int(np.argmin(low[head:end]))
            if low[k] < best[group]:
                index[group], best[group] = lo + k, low[k]
    minima = [(int(k), float(low)) for k, low in zip(index, best)]
    return minima[0] if starts is None else minima


# ---------------------------------------------------------------------------
# grouped decomposition

def decompose_terms(lams: np.ndarray, h: np.ndarray) -> dict:
    """v^{-1} Delta v at the profile lams (m,) and symmetric h (m, n, n), grouped by the index types
    of h: kind -> the values u_B^T B(lambda) u_B of its blocks, kinds and blocks in `block_catalogue`
    order and a kind with no block at (n, m) absent.  All the values sum to v^{-1} Delta v."""
    lams = np.asarray(lams, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or lams.shape != h.shape[:1]:
        raise DimensionMismatch(f"profile {lams.shape} vs tensor {h.shape}")
    m, n = h.shape[:2]
    u, features = flatten_h(h), _features(lams)
    return {
        kind: np.einsum("bi,bij,bj->b", u[slots], _contract(features, stack), u[slots])
        for kind, (slots, stack, _) in _kind_stacks(n, m).items()
    }


# ---------------------------------------------------------------------------
# the full quadratic form

def quadratic_form_batch(n: int, m: int, lams: np.ndarray) -> np.ndarray:
    """Dense form matrices (K, D, D), scattered from the block catalogue.

    This is the test oracle for the catalogue: no certificate is computed
    from the dense matrix.
    """
    lams = np.asarray(lams, dtype=float)
    D = m * (n * (n + 1) // 2)
    M = np.zeros((lams.shape[0], D, D))
    for slots, stack, _ in _kind_stacks(n, m).values():
        M[:, slots[:, :, None], slots[:, None, :]] = _contract(_features(lams), stack)
    return profile_v(lams)[:, None, None] * M


def min_form_eigenvalue(n: int, m: int, lams: np.ndarray, starts=None):
    """First argmin and minimum over profiles (K, m) of the Delta-v form's smallest eigenvalue,
    v times the smallest eigenvalue over the distinct blocks (`_batch_minimum`); with `starts`,
    one per contiguous group of rows."""
    lams = np.asarray(lams, dtype=float)
    return _batch_minimum(_distinct_stacks(n, m), lams, profile_v(lams), 0.0, starts)


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
                            lambda lams: _fold_last(np.multiply, 1.0 + lams**2) <= v_bound * v_bound)


# ---------------------------------------------------------------------------
# the block lemmas

def block_margin(kind: str, lams: np.ndarray, vs: np.ndarray) -> tuple[int, float]:
    """First argmin and minimum over (K, m) profiles, with their own v, of c lambda_min(B_kind)
    - bound(v) over the blocks of one kind (`_batch_minimum` with weight c, offset bound(v)).

    The lemmas in h coordinates, with blocks from `_kind_stacks(m + 1, m)`,
    whose one high index carries I and II (I ignores vs):
      I    c = 1, bound 1      I_j >= 2 sum_a h_{a,aj}^2
      II   c = 2, bound 3 - v  lambda_a lambda_b <= v - 1
      III  c = 2, bound 3 - v  the triple block dominates (3 - v) I
    """
    lams = np.asarray(lams, dtype=float)
    m = lams.shape[-1]
    stack = _kind_stacks(m + 1, m)[kind][1:]
    if kind == "I":
        return _batch_minimum([stack], lams, 1.0, 1.0)
    return _batch_minimum([stack], lams, 2.0, 3.0 - np.asarray(vs, dtype=float))


# ---------------------------------------------------------------------------
# diagonal block (the 2m-1 dimensional reduced form)

@dataclass
class Eps0Result:
    """eps0 on a sample of `samples` profiles at this m: the minimum of the per-sample bound,
    negative when the diagonal block is not PSD on the sample."""
    m: int
    eps0: float
    samples: int


def find_eps0(m: int, samples: int = 1_000_000, seed: int = 0) -> Eps0Result:
    """Largest eps0 keeping the diagonal block PSD on sampled admissible profiles (v <= 3).

    eps0 is the batch minimum of the per-sample bound lambda_min(B_IV,0), as
    it stands: a sample on which the block is not PSD gives eps0 < 0.

    In h coordinates the subtracted term eps0 E weighs h_{a,aa} and h_{a,bb}
    by 1 and h_{b,ba} by 2, and A - eps E >= 0 iff eps <= lambda_min(E^{-1/2}
    A E^{-1/2}).  In flattened coordinates those weights are the identity, so
    the flattened block B_IV = E^{-1/2} A E^{-1/2} carries eps0 as a plain
    shift.  Sampling with exchangeable random profiles makes alpha = 0 fully
    general.
    """
    if m < 2:
        raise PreconditionViolated("need m >= 2")
    lams = sample_admissible_lambdas(m, 3.0, samples, substream(seed, 2))
    C, G = _kind_stacks(m, m)["IV"][1:]
    return Eps0Result(m, _batch_minimum([(C[:, :1], G[:, :1])], lams, 1.0, 0.0)[1], samples)


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
    """Constrained-minimum estimate of K0 with its sampling audit and closed-form gap.

    k0 and argmin_lambda come from the search alone, and min_eigenvalue_trace
    holds its stages: the minimum over the closed-form profiles, then the face
    search's minimum when it is lower.  worst_violation is the audit minimum
    minus k0 (inf with no audit), negative when a sampled profile undercuts
    the search.
    """
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


def _search_rows(m: int, beta0: float) -> np.ndarray:
    """The profiles of the K0 search: lambda = 0 and, for m >= 2 and beta0 > 2, the closed-form
    pair profile (sqrt(beta0 - 1), sqrt(beta0 - 1), 0, ...)."""
    rows = np.zeros((2 if m >= 2 and beta0 > 2.0 else 1, m))
    rows[1:, :2] = math.sqrt(beta0 - 1.0)
    return rows


def compute_K0(
    n: int,
    m: int,
    beta0s,
    audit_samples: int = 100_000,
    seed: int = 0,
) -> list[CertificateReport]:
    """Minimise the smallest form eigenvalue over admissible profiles, one report per beta0.

    K0 = min over {lambda >= 0, prod(1+lambda^2) <= beta0^2} of the smallest
    eigenvalue of the Delta-v form; since the flattening is norm-preserving
    this bounds Delta v / |B|^2 from below.  beta0 = 3 is allowed as a
    degenerate boundary probe; m > 16 is refused (the CLI refuses m > 8,
    `cli._K0_MAX_M`).  The search evaluates the form at the profiles where
    `k0_closed_form` is attained (`_search_rows`): lambda = 0, where the form
    is the identity, and for m >= 2 and beta0 > 2 the pair profile.

    The audit of each beta0, `audit_samples` admissible profiles from
    substream (seed, 3), checks the search and never moves k0
    (`CertificateReport.worst_violation`).  At beta0 = 1 every audit profile
    is lambda = 0, so its group is that one row, built without the sampler
    (none with no audit); `sample_count` and `evaluations` still count all
    of them.  Every beta0's
    search rows and audit go into one `min_form_eigenvalue` call, one group
    each, and each group's minimum is bitwise that of a call of its own.

    At n = m = 2, where the catalogue holds only the two IV blocks and
    `k0_closed_form` is None, a bounded scalar search then minimises along
    the sorted face u_1 + u_2 = 2 log beta0, u = log1p(lambda^2), over
    u_1 in [log beta0, 2 log beta0].  `evaluations` counts the closed-form
    profiles, the face evaluations and the audit samples; `budget_exhausted`
    says the face search stopped at scipy's iteration cap.
    """
    if not all(1.0 <= beta0 <= 3.0 for beta0 in beta0s):
        raise PreconditionViolated("need 1 <= beta0 <= 3")
    if not (1 <= m <= min(n, 16)):
        raise PreconditionViolated("need 1 <= m <= n and m <= 16")
    groups = []
    for beta0 in beta0s:
        if beta0 == 1.0:
            audit = np.zeros((min(audit_samples, 1), m))
        else:
            audit = sample_admissible_lambdas(m, beta0, audit_samples, substream(seed, 3))
        groups += [_search_rows(m, beta0), audit]
    lams = np.concatenate(groups)
    minima = min_form_eigenvalue(n, m, lams, np.cumsum([0] + [len(rows) for rows in groups[:-1]]))
    reports = []
    for beta0, rows, (k, best_val), (_, audit_low) in zip(beta0s, groups[::2], minima[::2], minima[1::2]):
        best_lam = lams[k]
        evaluations = rows.shape[0]
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

        closed = k0_closed_form(n, m, beta0)
        reports.append(CertificateReport(
            n=n,
            m=m,
            beta0=beta0,
            k0=best_val,
            k0_closed_form=closed,
            closed_form_gap=None if closed is None else best_val - closed,
            argmin_lambda=best_lam.tolist(),
            v_at_argmin=float(profile_v(best_lam)),
            min_eigenvalue_trace=trace,
            sample_count=audit_samples,
            # inf with no audit: its group is empty
            worst_violation=audit_low - best_val,
            budget_exhausted=budget_exhausted,
            evaluations=evaluations + audit_samples,
        ))
    return reports
