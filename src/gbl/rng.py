"""Deterministic random streams and the one rejection sampler.

All sampling campaigns draw from counter-based Philox substreams keyed by a
root seed plus a task index, so results are reproducible regardless of how
work is chunked or parallelised.
"""
from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated

_MASK64 = (1 << 64) - 1
# batch bounds of `rejection_sample`; 12M float64 values are 96 MB
BATCH_MIN_ROWS = 4096
BATCH_MAX_VALUES = 12_000_000
# values `rejection_sample` draws past the last accepted row before it gives
# up; the (4, 3) chart sublevel draw at v <= 2.9 accepts about one box matrix
# in 1e5 (1.2M values)
MAX_DRAWN_VALUES = 100_000_000


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
    rows returned do not depend on the batch sizes.  Raises
    PreconditionViolated once MAX_DRAWN_VALUES values follow the last
    accepted row.
    """
    size = int(np.prod(shape))
    cap = max(1, BATCH_MAX_VALUES // size)
    out = np.empty((count, *shape))
    filled = drawn = 0
    barren = 0      # rows drawn since the last accepted one
    rate = 0.25
    while filled < count:
        if barren * size >= MAX_DRAWN_VALUES:
            raise PreconditionViolated(f"rejection sampling drew {drawn} rows and accepted {filled} "
                                       f"of {count}, none in the last {barren}")
        rows = int(min(cap, max(BATCH_MIN_ROWS, 1.2 * (count - filled) / rate)))
        batch = draw(rows)
        hits = np.flatnonzero(accept(batch))
        keep = batch[hits]
        drawn += rows
        barren = rows - 1 - hits[-1] if hits.size else barren + rows
        rate = max(keep.shape[0] / rows, 1e-3)
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return out
