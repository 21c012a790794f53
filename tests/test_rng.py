import time

import numpy as np
import pytest

from gbl import certifier as ct
from gbl import graphs as gg
from gbl import grassmann as gr
from gbl import rng
from gbl.errors import PreconditionViolated
from gbl.rng import rejection_sample, substream


# holomorphic_pair on the half space x_0 >= 0, so that the ball draws are rejected too
_PAIR = gg.builtin("holomorphic_pair")
_HALF_PAIR = gg.GraphImmersion(_PAIR.n, _PAIR.m, _PAIR.f, _PAIR.jac, _PAIR.hess,
                               excluded=lambda x, margin: x[..., 0] < margin, name="half_pair")


def _small_batches(monkeypatch):
    monkeypatch.setattr(rng, "BATCH_MIN_ROWS", 3)
    monkeypatch.setattr(rng, "BATCH_MAX_VALUES", 240)


class TestRejectionSample:
    def test_first_accepted_rows_in_draw_order(self, monkeypatch):
        _small_batches(monkeypatch)
        drawn = []

        def draw(rows):
            start = sum(drawn)
            drawn.append(rows)
            return np.arange(start, start + rows, dtype=float)[:, None] * np.ones((1, 2))

        out = rejection_sample(50, (2,), draw, lambda rows: rows[:, 0] % 3 == 0)
        assert np.array_equal(out[:, 0], 3.0 * np.arange(50))
        assert len(drawn) > 1 and max(drawn) <= 120

    def test_zero_count_draws_nothing(self):
        def draw(rows):
            raise AssertionError("no draw is needed for zero rows")

        assert rejection_sample(0, (4, 2), draw, None).shape == (0, 4, 2)

    @pytest.mark.parametrize("sample", [
        lambda: ct.sample_admissible_lambdas(3, 2.9, 3_000, substream(12, 1)),
        lambda: gr.sample_chart_sublevel(2, 2, 2.9, 500, substream(12, 2)),
        lambda: gr.sample_chart_sublevel(4, 3, 2.9, 2, substream(0, 6)),
        lambda: np.array(gg.ellipticity_check(_HALF_PAIR, np.zeros(3), 0.5, samples=300)),
    ], ids=["lambdas m=3", "chart (2,2)", "chart (4,3)", "ellipticity ball"])
    def test_rows_do_not_depend_on_batch_bounds(self, monkeypatch, sample):
        default = sample()
        _small_batches(monkeypatch)
        assert sample().tobytes() == default.tobytes()

    def test_never_accepting_raises(self, monkeypatch):
        _small_batches(monkeypatch)
        monkeypatch.setattr(rng, "MAX_DRAWN_VALUES", 1000)
        # batches of 24, 48, 96 then 120 rows of 2 values, doubling while empty: the sixth passes 1000 values
        with pytest.raises(PreconditionViolated, match="drew 528 rows and accepted 0 of 5"):
            rejection_sample(5, (2,), lambda rows: np.zeros((rows, 2)), lambda rows: rows[:, 0] > 0.0)

    def test_budget_counts_from_the_last_accepted_row(self, monkeypatch):
        _small_batches(monkeypatch)
        monkeypatch.setattr(rng, "MAX_DRAWN_VALUES", 1000)
        drawn = []

        def draw(rows):
            start = sum(drawn)
            drawn.append(rows)
            return np.arange(start, start + rows, dtype=float)[:, None] * np.ones((1, 2))

        # one row in 400 (800 values) is accepted: the draws add up to far more than 1000 values
        out = rejection_sample(5, (2,), draw, lambda rows: rows[:, 0] % 400 == 399)
        assert np.array_equal(out[:, 0], 400.0 * np.arange(5) + 399.0)

    def test_empty_domain_ball_raises(self):
        start = time.monotonic()
        with pytest.raises(PreconditionViolated):
            gg.ellipticity_check(gg.builtin("lawson_osserman"), np.zeros(4), 1e-7, samples=8)
        assert time.monotonic() - start < 10.0
