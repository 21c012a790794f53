"""Lap marks inside an op, so that each op is timed by its best laps.

The host a run lands on changes speed by up to half, in spells from a tenth
of a second to minutes, whatever the program does.  An op of a few seconds
averages over these spells, so even its fastest of several campaigns still
carries them.  A lap is far shorter: `Laps.install` wraps a few gbl and
numpy functions that every op calls many times, and each call stamps the
time.  gbl is deterministic for a fixed input, so every run of an op makes
the same calls in the same order and its i-th lap is the same work in every
run.  The op's best time is the sum over its laps of each lap's fastest
run: the time the op takes when the host runs at full speed throughout
(run.best_time).  Nothing in `src/gbl` changes, and a stamp costs well
under a microsecond.
"""
from __future__ import annotations

import functools
import time

import numpy as np

from gbl import graphs, grassmann

# (module, name) of the functions whose calls end a lap: the batched
# eigensolve of the certifiers, the chart sampler's acceptance test, the
# per-point geometry and the per-ball mean Gauss image
LAP_POINTS = (
    (np.linalg, "eigvalsh"),
    (grassmann, "chart_v"),
    (graphs, "point_geometry"),
    (graphs, "mean_gauss_image"),
)


class Laps:
    """Time stamps of the calls of LAP_POINTS, for one process."""

    def __init__(self):
        self.marks: list[float] = []

    def install(self) -> None:
        for module, name in LAP_POINTS:
            setattr(module, name, self._marking(getattr(module, name)))

    def _marking(self, fn):
        stamp, clock = self.marks.append, time.perf_counter

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            stamp(clock())
            return fn(*args, **kwargs)

        return marked

    def stamp(self) -> None:
        self.marks.append(time.perf_counter())

    def between(self, begin: float, end: float) -> np.ndarray:
        """Laps of an op that ran from `begin` to `end`; clears the stamps for the next op."""
        laps = np.diff([begin, *self.marks, end])
        self.marks.clear()
        return laps

