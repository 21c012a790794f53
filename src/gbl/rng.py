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
# up.  The sparsest samplers the CLI runs leave gaps far below it: the profile
# box of `certify` at m = 8 accepts one row in about 2,700 (22k values), the
# chart sampler at (6, 4) one in about 400 (10k values)
MAX_DRAWN_VALUES = 10_000_000


def substream(seed: int, stream: int) -> np.random.Generator:
    """Generator for task `stream` of the campaign keyed by `seed`.

    Distinct streams are separated by 2^192 states of the Philox counter,
    so they never overlap.
    """
    key = np.uint64(seed & _MASK64)
    counter = [np.uint64(0)] * 3 + [np.uint64(stream & _MASK64)]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def child(gen: np.random.Generator) -> np.random.Generator:
    """A generator split off `gen`: Philox keyed by two 64-bit draws of `gen`, independent of it."""
    return np.random.Generator(np.random.Philox(key=gen.integers(0, 1 << 64, size=2, dtype=np.uint64)))


def rejection_sample(count: int, shape: tuple, draw, accept) -> np.ndarray:
    """The first `count` rows of `draw(rows)`, a (rows, *shape) batch, kept by the mask `accept(batch)`.

    A batch is 1.2x the rows still needed over the last batch's acceptance
    rate (0.25 at first, floored at 1e-3), and twice the last batch when that
    one accepted nothing, within BATCH_MIN_ROWS rows and BATCH_MAX_VALUES
    values.  Rows keep their draw order, so when `draw` consumes its
    generator row by row (uniform and normal draws do), the rows returned do
    not depend on the batch sizes.  Raises PreconditionViolated once
    MAX_DRAWN_VALUES values follow the last accepted row.
    """
    size = int(np.prod(shape))
    cap = max(1, BATCH_MAX_VALUES // size)
    out = np.empty((count, *shape))
    filled = drawn = 0
    barren = 0      # rows drawn since the last accepted one
    rows = int(min(cap, max(BATCH_MIN_ROWS, 1.2 * count / 0.25)))
    while filled < count:
        if barren * size >= MAX_DRAWN_VALUES:
            raise PreconditionViolated(f"rejection sampling drew {drawn} rows and accepted {filled} "
                                       f"of {count}, none in the last {barren}")
        batch = draw(rows)
        hits = np.flatnonzero(accept(batch))
        keep = batch[hits]
        drawn += rows
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
        if hits.size:
            barren = rows - 1 - hits[-1]
            rate = max(keep.shape[0] / rows, 1e-3)
            rows = int(min(cap, max(BATCH_MIN_ROWS, 1.2 * (count - filled) / rate)))
        else:
            barren += rows
            rows = min(cap, 2 * rows)
    return out
