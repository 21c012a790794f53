"""Reference kernels that measure the host's speed beside each campaign.

The host a run lands on is shared: over minutes its speed swings by up to a
factor of two, and best laps (laps.py) cannot remove a slow spell that lasts
the whole run.  So every campaign worker also runs a fixed kernel that does
the same kind of work as its workload but calls nothing in gbl, and run.py
scales the workload's times by the kernel's nominal time (REFERENCES) over
its best-lap time in the run.  A slow spell slows kernel and campaign
alike and cancels; a change to gbl moves only the campaign.

Each kernel calls `stamp` at every step, so that its laps are timed by
their fastest run like the ops' laps.
"""
from __future__ import annotations

import math

import numpy as np

_rng = np.random.default_rng(20100917)
_POINTS = _rng.standard_normal((64, 4))
_BASIS = _rng.standard_normal((10, 84, 84))
_BASIS = _BASIS + _BASIS.transpose(0, 2, 1)
_WEIGHTS = _rng.uniform(0.0, 1.0, (900, 10))
_SMALL = _BASIS[0, :30, :30]


def small_array_loop(stamp) -> float:
    """geometry-loop's kind of work: a Python loop of numpy calls on 2x4
    arrays, as in the per-point geometry, then batched 4x4 determinants over
    boxes of draws, as in the chart sampler."""
    s = 0.0
    for k in range(1500):
        stamp()
        x = _POINTS[k % 64]
        J = np.outer(x[:2], x) * 0.1
        M = np.hstack([np.eye(2), J[:, 2:]])
        Q, R = np.linalg.qr(M.T)
        s += math.sqrt(float(np.linalg.det(np.eye(2) + J[:, 2:] @ J[:, 2:].T))) + float(np.linalg.norm(Q @ R))
        s += float(np.linalg.eigvalsh(M @ M.T)[0])
    for k in range(6):
        stamp()
        Zs = np.random.default_rng(k).uniform(-2.7, 2.7, (10_000, 4, 3))
        gram = np.eye(4) + np.einsum("...ia,...ja->...ij", Zs, Zs)
        s += float(np.count_nonzero(np.sqrt(np.linalg.det(gram)) <= 2.9))
    return s


def dense_eigensolve(stamp) -> float:
    """k0-sweep's kind of work: assemble batches of 84x84 forms as the dense
    certifier does, I + sum_a w_a B_a scaled, and take their smallest
    eigenvalues; then single 30x30 solves as in the polish."""
    s = 0.0
    for start in range(0, len(_WEIGHTS), 300):
        stamp()
        w = _WEIGHTS[start:start + 300]
        forms = np.tile(np.eye(84), (len(w), 1, 1))
        forms += np.einsum("ka,aij->kij", w, _BASIS)
        forms *= np.prod(1.0 + w, axis=1)[:, None, None]
        s += float(np.linalg.eigvalsh(forms)[:, 0].sum())
    for k in range(150):
        stamp()
        s += float(np.linalg.eigvalsh(_SMALL + (k * 1e-3) * np.eye(30))[0])
    return s


# workload -> (kernel, its best time in seconds at the host's full speed: the
# fastest of many runs on a 2-vCPU Xeon, one BLAS thread, numpy 2.4)
REFERENCES = {
    "k0-sweep": (dense_eigensolve, 0.31),
    "geometry-loop": (small_array_loop, 0.107),
}
