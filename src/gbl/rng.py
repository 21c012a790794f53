"""Deterministic random streams.

All sampling campaigns draw from counter-based Philox substreams keyed by a
root seed plus a task index, so results are reproducible regardless of how
work is chunked or parallelised.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for task `stream` of the campaign keyed by `seed`.

    Distinct streams are separated by 2^192 states of the Philox counter,
    so they never overlap.
    """
    key = np.uint64(seed & _MASK64)
    counter = [np.uint64(0)] * 3 + [np.uint64(stream & _MASK64)]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
