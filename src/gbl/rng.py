"""Deterministic random streams and the one rejection sampler.

All sampling campaigns draw from counter-based Philox substreams keyed by a
root seed plus a task index, so results are reproducible regardless of how
work is chunked or parallelised.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# batch bounds of `rejection_sample`; 12M float64 values are 96 MB
BATCH_MIN_ROWS = 4096
BATCH_MAX_VALUES = 12_000_000


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for task `stream` of the campaign keyed by `seed`.

    Distinct streams are separated by 2^192 states of the Philox counter,
    so they never overlap.
    """
    key = np.uint64(seed & _MASK64)
    counter = [np.uint64(0)] * 3 + [np.uint64(stream & _MASK64)]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def rejection_sample(count: int, shape: tuple, draw, accept) -> np.ndarray:
    """The first `count` rows of `draw(rows)`, a (rows, *shape) batch, kept by the mask `accept(batch)`.

    A batch is 1.2x the rows still needed over the last batch's acceptance
    rate (0.25 at first, floored at 1e-3), within BATCH_MIN_ROWS rows and
    BATCH_MAX_VALUES values.  Rows keep their draw order, so when `draw`
    consumes its generator row by row (uniform and normal draws do), the
    rows returned do not depend on the batch sizes.
    """
    cap = max(1, BATCH_MAX_VALUES // int(np.prod(shape)))
    out = np.empty((count, *shape))
    filled = 0
    rate = 0.25
    while filled < count:
        rows = int(min(cap, max(BATCH_MIN_ROWS, 1.2 * (count - filled) / rate)))
        batch = draw(rows)
        keep = batch[accept(batch)]
        rate = max(keep.shape[0] / rows, 1e-3)
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out
