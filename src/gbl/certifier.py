"""Positivity certificates for the Laplacian of the volume-distortion function.

For a graph-like submanifold with singular-value profile lambda and second
fundamental form h, the Laplacian of v = prod sqrt(1 + lambda_a^2) reads

    Delta v = v * [ sum h^2
                    + sum_{a,j} 2 lambda_a^2 h_{a,aj}^2
                    + sum_{a!=b,j} lambda_a lambda_b (h_{a,aj} h_{b,bj}
                                                      + h_{a,bj} h_{b,aj}) ].

In the flattened coordinates of h the form is block diagonal.  This module
writes those index-typed blocks once (`block_catalogue`), evaluates the term
decomposition, the block lemmas and eps0 from them, solves the form
blockwise, and estimates the strong-subharmonicity constant

    K0(beta0) = min { Delta v / |h|^2 : prod(1 + lambda^2) <= beta0^2 }

by a batched search over sorted profiles for the smallest form eigenvalue.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import DimensionMismatch, PreconditionViolated
from .rng import substream

# single global slack absorbing eigensolver roundoff in PSD assertions
PSD_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class LambdaProfile:
    """Nonnegative singular values at an evaluation point; the n - m others are 0."""
    n: int
    m: int
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if not (1 <= self.m <= self.n):
            raise DimensionMismatch(f"need 1 <= m <= n, got n={self.n}, m={self.m}")
        if lam.shape != (self.m,):
            raise DimensionMismatch(f"lambdas must have shape ({self.m},)")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
            raise PreconditionViolated("lambdas must be finite and nonnegative")

    @property
    def v(self) -> float:
        return float(np.prod(np.sqrt(1.0 + self.lambdas**2)))


class HTensor:
    """Second-fundamental-form coefficients h[a, i, j], symmetric in (i, j)."""

    __slots__ = ("n", "m", "h")

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        if h.ndim != 3 or h.shape[1] != h.shape[2]:
            raise DimensionMismatch(f"h must be (m, n, n), got {h.shape}")
        h = 0.5 * (h + h.transpose(0, 2, 1))
        h.flags.writeable = False
        self.m, self.n = h.shape[0], h.shape[1]
        self.h = h

    @property
    def norm2(self) -> float:
        return float(np.sum(self.h**2))

    def flatten(self) -> np.ndarray:
        """Flatten over (a, i <= j) with sqrt(2) on off-diagonal pairs.

        The weights make the flattened Euclidean norm equal sum_{a,i,j} h^2
        over ordered index pairs, i.e. |B|^2 literally.
        """
        return flatten_h(self.h)

    @classmethod
    def random(cls, n: int, m: int, rng: np.random.Generator) -> "HTensor":
        return cls(rng.standard_normal((m, n, n)))


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
    """Batched symmetric flattening; h has shape (..., m, n, n)."""
    h = np.asarray(h, dtype=float)
    n = h.shape[-1]
    pairs, _, weights = _pair_table(n)
    ii = [p[0] for p in pairs]
    jj = [p[1] for p in pairs]
    flat = h[..., :, ii, jj] * weights
    return flat.reshape(*h.shape[:-3], -1)


def unflatten_h(u: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of `flatten_h` (single vector)."""
    pairs, _, weights = _pair_table(n)
    u = np.asarray(u, dtype=float).reshape(m, len(pairs)) / weights
    h = np.zeros((m, n, n))
    for k, (i, j) in enumerate(pairs):
        h[:, i, j] = u[:, k]
        h[:, j, i] = u[:, k]
    return h


# ---------------------------------------------------------------------------
# direct evaluation

def laplacian_v(lam: LambdaProfile, h: HTensor) -> float:
    """Delta v for one profile/tensor pair."""
    if (lam.n, lam.m) != (h.n, h.m):
        raise DimensionMismatch(f"profile ({lam.n},{lam.m}) vs tensor ({h.n},{h.m})")
    return float(laplacian_v_batch(lam.lambdas[None, :], h.h[None, ...])[0])


def laplacian_v_batch(lams: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Vectorised Delta v; lams (K, m), hs (K, m, n, n) symmetric."""
    lams = np.asarray(lams, dtype=float)
    hs = np.asarray(hs, dtype=float)
    m = lams.shape[-1]
    v = np.prod(np.sqrt(1.0 + lams**2), axis=-1)
    hsq = np.einsum("kaij,kaij->k", hs, hs)
    diag = hs[:, np.arange(m), np.arange(m), :]          # (K, m, n): h_{a,aj}
    term2 = 2.0 * np.einsum("ka,kaj->k", lams**2, diag**2)
    lam_diag = np.einsum("ka,kaj->kj", lams, diag)       # sum_a lambda_a h_{a,aj}
    sq_diag = np.einsum("ka,kaj->kj", lams**2, diag**2)
    term3a = np.einsum("kj->k", lam_diag**2 - sq_diag)
    low = hs[:, :, :m, :]                                # h_{a,bj} with b <= m
    cross = np.einsum("ka,kb,kabj,kbaj->k", lams, lams, low, low)
    cross_diag = np.einsum("ka,kaj,kaj->k", lams**2, diag, diag)
    term3b = cross - cross_diag
    return v * (hsq + term2 + term3a + term3b)


# ---------------------------------------------------------------------------
# the typed-block catalogue of the form

# profiles per batched eigensolve, which bounds the memory of one batch
CHUNK = 20_000

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


def _block_matrices(coeffs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """B(lambda) at profiles (..., m) from coefficients (F, ...) of one block or a stack."""
    return np.tensordot(_features(lams), coeffs, axes=1)


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


def _catalogue_block(m: int, kind: str, key: tuple) -> FormBlock:
    """The block of the given kind and key; III and IV blocks do not depend on n."""
    return next(blk for blk in block_catalogue(m, m) if (blk.kind, blk.key) == (kind, key))


def _min_eigs(block: FormBlock, lams: np.ndarray, shift: float) -> np.ndarray:
    """lambda_min(B(lambda) - shift I) of one block at profiles (K, m)."""
    lams = np.asarray(lams, dtype=float)
    identity = np.eye(len(block.slots))
    out = np.empty(lams.shape[0])
    for start in range(0, lams.shape[0], CHUNK):
        B = _block_matrices(block.coeffs, lams[start : start + CHUNK])
        out[start : start + CHUNK] = np.linalg.eigvalsh(B - shift * identity)[:, 0]
    return out


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


def decompose_terms(lam: LambdaProfile, h: HTensor) -> TermDecomposition:
    """Evaluate each named group exactly as u_B^T B(lambda) u_B; their sum is v^{-1} Delta v."""
    if (lam.n, lam.m) != (h.n, h.m):
        raise DimensionMismatch(f"profile ({lam.n},{lam.m}) vs tensor ({h.n},{h.m})")
    n, m = h.n, h.m
    u = h.flatten()
    stacks = _kind_stacks(n, m)

    def values(kind: str) -> np.ndarray:
        if kind not in stacks:
            return np.zeros(0)
        slots, stack = stacks[kind]
        x = u[slots]
        return np.einsum("bi,bij,bj->b", x, _block_matrices(stack, lam.lambdas), x)

    return TermDecomposition(
        float(values("pure").sum()),
        values("I"),
        values("II").reshape(n - m, m * (m - 1) // 2),
        values("III"),
        values("IV"),
    )


# ---------------------------------------------------------------------------
# the full quadratic form

def quadratic_form_matrix(lam: LambdaProfile) -> np.ndarray:
    """Symmetric matrix M with u^T M u = Delta v for u = flatten_h(h)."""
    return quadratic_form_batch(lam.n, lam.m, lam.lambdas[None, :])[0]


def quadratic_form_batch(n: int, m: int, lams: np.ndarray) -> np.ndarray:
    """Dense form matrices (K, D, D), scattered from the block catalogue.

    This is the test oracle for the catalogue: no certificate is computed
    from the dense matrix.
    """
    lams = np.asarray(lams, dtype=float)
    D = form_dimension(n, m)
    M = np.zeros((lams.shape[0], D, D))
    for slots, stack in _kind_stacks(n, m).values():
        M[:, slots[:, :, None], slots[:, None, :]] = _block_matrices(stack, lams)
    v = np.prod(np.sqrt(1.0 + lams**2), axis=-1)
    return v[:, None, None] * M


def min_form_eigenvalue(n: int, m: int, lams: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Delta-v form at each profile (K, m).

    v times the smallest eigenvalue over the distinct blocks; blocks of one
    size share a batched eigensolve.
    """
    lams = np.asarray(lams, dtype=float)
    out = np.empty(lams.shape[0])
    for start in range(0, lams.shape[0], CHUNK):
        part = lams[start : start + CHUNK]
        features = _features(part)
        low = np.full(part.shape[0], np.inf)
        for stack in _distinct_stacks(n, m):
            eigs = np.linalg.eigvalsh(np.tensordot(features, stack, axes=1))[..., 0]
            low = np.minimum(low, eigs.min(axis=1))
        out[start : start + CHUNK] = np.prod(np.sqrt(1.0 + part**2), axis=-1) * low
    return out


# ---------------------------------------------------------------------------
# sampling of admissible profiles

def sample_admissible_lambdas(
    m: int, v_bound: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform-in-box rejection sample of {lambda >= 0 : prod(1+lambda^2) <= v_bound^2}."""
    if v_bound < 1.0:
        raise PreconditionViolated("v_bound must be >= 1")
    hi = math.sqrt(max(v_bound * v_bound - 1.0, 0.0))
    if hi == 0.0:
        return np.zeros((count, m))
    out = np.empty((count, m))
    filled = 0
    rate = 0.25
    while filled < count:
        draw = int(min(4_000_000, max(4096, 1.2 * (count - filled) / rate)))
        lams = rng.uniform(0.0, hi, size=(draw, m))
        keep = lams[np.prod(1.0 + lams**2, axis=1) <= v_bound * v_bound]
        rate = max(keep.shape[0] / draw, 1e-3)
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def lambda_pair_bound_check(v_bound: float, samples: int, m: int = 2, seed: int = 0) -> float:
    """Worst margin of lambda_a lambda_b <= v - 1 over sampled admissible profiles.

    The tight configuration lambda_a = lambda_b = sqrt(v_bound - 1) is always
    included, so the returned margin is at most ~0.
    """
    if v_bound < 1.0:
        raise PreconditionViolated("v_bound must be >= 1")
    if m < 2:
        raise PreconditionViolated("need at least two singular values")
    lams = sample_admissible_lambdas(m, v_bound, samples, substream(seed, 0))
    tight = np.zeros((1, m))
    tight[0, :2] = math.sqrt(v_bound - 1.0)
    lams = np.vstack([lams, tight])
    v = np.prod(np.sqrt(1.0 + lams**2), axis=1)
    worst = np.inf
    for a, b in itertools.combinations(range(m), 2):
        worst = min(worst, float(np.min(v - 1.0 - lams[:, a] * lams[:, b])))
    return worst


# ---------------------------------------------------------------------------
# three-index block (triple bound)

def verify_III(lams3, v: float) -> float:
    """Smallest eigenvalue of the triple block minus (3 - v) I.

    Precondition: prod(1 + lambda^2) <= v^2 <= 9.
    """
    lams3 = np.asarray(lams3, dtype=float)
    prod = float(np.prod(1.0 + lams3**2))
    if prod > v * v * (1.0 + 1e-12) or v * v > 9.0 * (1.0 + 1e-12):
        raise PreconditionViolated(f"need prod(1+lambda^2) <= v^2 <= 9, got {prod:.6f} vs {v * v:.6f}")
    return float(verify_III_batch(lams3[None, :], np.array([v]))[0])


def verify_III_batch(lams: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """lambda_min(2 B_III) - (3 - v) for (K, 3) profiles with their own v.

    The factor 2 turns the flattened block back into h coordinates, where
    the triple block has diagonal 2 and couplings lambda_a lambda_b.
    """
    low = _min_eigs(_catalogue_block(3, "III", (0, 1, 2)), lams, 0.0)
    return 2.0 * low - (3.0 - np.asarray(vs, dtype=float))


def verify_omega_sup(v: float, C: float, grid: int = 256) -> float:
    """Numerical sup of f = 1/(v-x) + 1/(v-y) + 1/(v-z) on the constrained slab.

    Domain: 1 <= x, y < v, z > v, xyz = C.  Returns -inf when the domain is
    empty (C <= v forces z <= v).  The claimed bound is sup <= 2/(v-1).
    """
    if v <= 1.0:
        raise PreconditionViolated("need v > 1")
    if not (1.0 <= C <= v * v * (1.0 + 1e-12)):
        raise PreconditionViolated("need 1 <= C <= v^2")
    if C <= v * (1.0 + 1e-15):
        return -np.inf

    def f_of(x: float, y: float) -> float:
        if not (1.0 <= x < v and 1.0 <= y < v):
            return -np.inf
        z = C / (x * y)
        if z <= v:
            return -np.inf
        return 1.0 / (v - x) + 1.0 / (v - y) + 1.0 / (v - z)

    axis = np.linspace(1.0, v - (v - 1.0) * 1e-6, grid)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    Z = C / (X * Y)
    feasible = Z > v * (1.0 + 1e-15)
    vals = np.full_like(X, -np.inf)
    vals[feasible] = (
        1.0 / (v - X[feasible]) + 1.0 / (v - Y[feasible]) + 1.0 / (v - Z[feasible])
    )
    best = float(vals.max())
    bi, bj = np.unravel_index(int(vals.argmax()), vals.shape)
    res = minimize(
        lambda xy: -f_of(xy[0], xy[1]) if np.isfinite(f_of(xy[0], xy[1])) else 1e9,
        x0=np.array([axis[bi], axis[bj]]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-13, "maxfev": 2000},
    )
    if np.isfinite(res.fun) and -res.fun > best:
        best = float(-res.fun)
    # boundary-reduction cross-check: the corner (1, 1, C) is always feasible here
    best = max(best, f_of(1.0, 1.0))
    return best


# ---------------------------------------------------------------------------
# diagonal block (the 2m-1 dimensional reduced form)
#
# In h coordinates the subtracted term weighs h_{a,aa} and h_{a,bb} by 1 and
# h_{b,ba} by 2.  In flattened coordinates those weights are the identity, so
# the IV block B_IV = E^{-1/2} A E^{-1/2} carries eps0 as a plain shift.
# Sampling with exchangeable random profiles makes alpha = 0 fully general.

def verify_IV(lam: LambdaProfile, eps0: float, alpha: int = 0) -> float:
    """Smallest eigenvalue of the diagonal block IV_alpha minus eps0 I.

    Precondition: prod(1 + lambda^2) <= 9 and 0 <= eps0 < 1.
    """
    if not (0.0 <= eps0 < 1.0):
        raise PreconditionViolated("need 0 <= eps0 < 1")
    if float(np.prod(1.0 + lam.lambdas**2)) > 9.0 * (1.0 + 1e-12):
        raise PreconditionViolated("profile exceeds v <= 3")
    if not (0 <= alpha < lam.m):
        raise PreconditionViolated("alpha out of range")
    return float(_min_eigs(_catalogue_block(lam.m, "IV", (alpha,)), lam.lambdas[None, :], eps0)[0])


def iv_min_eigs(lams: np.ndarray, eps0: float) -> np.ndarray:
    """lambda_min(B_IV - eps0 I) per profile (K, m)."""
    lams = np.asarray(lams, dtype=float)
    return _min_eigs(_catalogue_block(lams.shape[1], "IV", (0,)), lams, eps0)


def iv_eps0_bound(lams: np.ndarray) -> np.ndarray:
    """Per-sample supremum of feasible eps0: lambda_min(B_IV).

    A - eps E >= 0 in h coordinates iff eps <= lambda_min(E^{-1/2} A E^{-1/2}),
    which is the flattened block.
    """
    return iv_min_eigs(lams, 0.0)


@dataclass
class Eps0Result:
    eps0: float
    m: int
    samples: int
    verified_margin: float

    def __float__(self) -> float:
        return self.eps0


def find_eps0(m: int, samples: int = 1_000_000, seed: int = 0) -> Eps0Result:
    """Largest eps0 keeping the diagonal block PSD on sampled admissible profiles (v <= 3).

    The minimum per-sample bound, clipped to [0, 1 - 1e-9]; a block that is
    not PSD on the sample reports eps0 = 0 with a negative margin.  The
    margin is its own eigensolve of B_IV - eps0 I over the same sample.
    """
    if m < 2:
        raise PreconditionViolated("need m >= 2")
    lams = sample_admissible_lambdas(m, 3.0, samples, substream(seed, 2))
    eps0 = min(max(float(np.min(iv_eps0_bound(lams))), 0.0), 1.0 - 1e-9)
    margin = float(np.min(iv_min_eigs(lams, eps0)))
    return Eps0Result(eps0, m, samples, margin)


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
    """Constrained-minimum estimate of K0 with its sampling audit."""
    n: int
    m: int
    beta0: float
    k0: float
    argmin_lambda: LambdaProfile
    min_eigenvalue_trace: list = field(default_factory=list)
    sample_count: int = 0
    worst_violation: float = float("inf")
    budget_exhausted: bool = False
    evaluations: int = 0

    def to_dict(self) -> dict:
        closed = k0_closed_form(self.m, self.beta0)
        return {
            "n": self.n,
            "m": self.m,
            "beta0": self.beta0,
            "k0": self.k0,
            "k0_closed_form": closed,
            "closed_form_gap": self.k0 - closed,
            "argmin_lambda": [float(x) for x in self.argmin_lambda.lambdas],
            "v_at_argmin": self.argmin_lambda.v,
            "min_eigenvalue_trace": self.min_eigenvalue_trace,
            "sample_count": self.sample_count,
            "worst_violation": self.worst_violation,
            "budget_exhausted": self.budget_exhausted,
            "evaluations": self.evaluations,
        }


def k0_closed_form(m: int, beta0: float) -> float:
    """K0 in closed form: min(1, beta0 (3 - beta0) / 2) for m >= 2, and 1 for m = 1.

    For m >= 2 it is the II-block eigenvalue v (1 - lambda_a lambda_b / 2)
    at v = beta0 with the pair bound lambda_a lambda_b <= v - 1.  With m = 1
    there is no II block, and the search returns exactly 1 at every beta0.
    Reports carry it beside the searched k0 as information, not as a check.
    """
    return 1.0 if m == 1 else min(1.0, beta0 * (3.0 - beta0) / 2.0)


# axis values of the K0 mesh when the budget allows; the compass refinement
# stops once its step falls below COMPASS_TOL lambda_max
MESH_AXIS = 17
COMPASS_TOL = 1e-10


def _sorted_mesh(m: int, lam_max: float, budget: int) -> tuple[np.ndarray, float, bool]:
    """Non-increasing profiles over g <= MESH_AXIS even values on [0, lam_max], the
    spacing, and whether the budget cut g; C(g + m - 1, m) is checked before building."""
    g = MESH_AXIS if lam_max > 0.0 else 1
    while g > 1 and math.comb(g + m - 1, m) > budget:
        g -= 1
    index = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(g), m))
    axis = np.linspace(0.0, lam_max, g)[::-1]
    mesh = axis[np.fromiter(index, dtype=np.intp).reshape(-1, m)]
    return mesh, lam_max / max(g - 1, 1), g < MESH_AXIS and lam_max > 0.0


def compute_K0(
    n: int,
    m: int,
    beta0: float,
    budget: int = 300_000,
    audit_samples: int = 100_000,
    seed: int = 0,
) -> CertificateReport:
    """Minimise the smallest form eigenvalue over admissible profiles.

    K0 = min over {lambda >= 0, prod(1+lambda^2) <= beta0^2} of the smallest
    eigenvalue of the Delta-v form; since the flattening is norm-preserving
    this bounds Delta v / |B|^2 from below.  beta0 = 3 is allowed as a
    degenerate boundary probe.  The form is symmetric in lambda, so the
    search visits sorted profiles: `_sorted_mesh` and, for m >= 2 and
    beta0 > 2, the closed-form pair profile in one batch, then a compass
    search with one batch of moves +-h e_i per level, each clipped at 0,
    pulled radially in u = log1p(lambda^2) back into the set and sorted.
    """
    if not (1.0 <= beta0 <= 3.0):
        raise PreconditionViolated("need 1 <= beta0 <= 3")
    if not (1 <= m <= n):
        raise PreconditionViolated("need 1 <= m <= n")
    bound2 = beta0 * beta0 * (1.0 + 1e-12)
    lam_max = math.sqrt(max(beta0 * beta0 - 1.0, 0.0))

    mesh, h, budget_exhausted = _sorted_mesh(m, lam_max, budget)
    mesh = mesh[np.prod(1.0 + mesh**2, axis=1) <= bound2]
    if m >= 2 and beta0 > 2.0:
        pair = np.zeros((1, m))
        pair[0, :2] = math.sqrt(beta0 - 1.0)
        mesh = np.vstack([mesh, pair])
    eigs = min_form_eigenvalue(n, m, mesh)
    evaluations = mesh.shape[0]
    k = int(np.argmin(eigs))
    best_val, best_lam = float(eigs[k]), mesh[k]
    trace = [{"evaluations": evaluations, "lambda": [float(x) for x in best_lam], "value": best_val}]

    log_cap = 2.0 * math.log(beta0)
    steps = np.vstack([np.eye(m), -np.eye(m)])
    while lam_max > 0.0 and h >= COMPASS_TOL * lam_max:
        if evaluations + 2 * m > budget:
            budget_exhausted = True
            break
        moves = np.clip(best_lam + h * steps, 0.0, None)
        u = np.log1p(moves**2)
        total = u.sum(axis=1)
        over = total > log_cap
        moves[over] = np.sqrt(np.expm1(u[over] * (log_cap / total[over, None])))
        moves = -np.sort(-moves, axis=1)
        vals = min_form_eigenvalue(n, m, moves)
        evaluations += 2 * m
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_lam = float(vals[k]), moves[k]
            trace.append({"evaluations": evaluations, "lambda": [float(x) for x in best_lam], "value": best_val})
        else:
            h *= 0.5

    worst_violation = float("inf")
    if audit_samples > 0:
        audit = sample_admissible_lambdas(m, beta0, audit_samples, substream(seed, 3))
        audit_eigs = min_form_eigenvalue(n, m, audit)
        evaluations += audit.shape[0]
        low = float(np.min(audit_eigs))
        if low < best_val:
            # keep the reported constant below every recorded sample
            best_val = low
            best_lam = audit[int(np.argmin(audit_eigs))].copy()
            trace.append({"evaluations": evaluations, "lambda": [float(x) for x in best_lam], "value": best_val})
        worst_violation = float(np.min(audit_eigs - best_val))

    return CertificateReport(
        n=n,
        m=m,
        beta0=beta0,
        k0=best_val,
        argmin_lambda=LambdaProfile(n, m, best_lam),
        min_eigenvalue_trace=trace,
        sample_count=audit_samples,
        worst_violation=worst_violation,
        budget_exhausted=budget_exhausted,
        evaluations=evaluations,
    )
