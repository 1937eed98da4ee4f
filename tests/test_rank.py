"""Rank selection (threshold floor, then eigenvalue ratio) and scree export."""

import warnings

import numpy as np
import pytest

from specmc import estimate_rank, scree
from specmc.spectral import EigenLadder


def _ladder(values):
    values = np.asarray(values, dtype=np.float64)
    return EigenLadder(values, np.eye(values.size), float(values.sum()))


def _top_ladder(values, dim):
    # leading values of a dim x dim matrix, as the Lanczos left ladder holds
    values = np.asarray(values, dtype=np.float64)
    return EigenLadder(values, np.eye(dim, values.size), float(values.sum()), dim)


class TestEstimateRank:
    def test_threshold_count(self):
        decision = estimate_rank(_ladder([5000.0, 40.0, 30.0]), 0.5, 100, 20, 1.0)
        assert abs(decision.threshold - 0.25 * 100 * np.log(20)) <= 1e-9
        assert abs(decision.threshold - 74.893) <= 1e-2
        assert decision.r_hat == 1

    def test_all_zero_eigenvalues(self):
        assert estimate_rank(_ladder([0.0, 0.0, 0.0]), 0.5, 100, 20, 1.0).r_hat == 0

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank(_ladder([1.0]), 0.0, 10, 5, 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_bad_c_rejected(self, c):
        with pytest.raises(ValueError, match="c_const must be positive and finite"):
            estimate_rank(_ladder([5000.0, 40.0, 30.0]), 0.5, 100, 20, c)

    def test_monotone_in_c(self):
        ladder = _ladder([5000.0, 400.0, 90.0, 30.0, 1.0])
        counts = [estimate_rank(ladder, 0.5, 100, 20, c).r_hat
                  for c in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0)]
        assert counts == sorted(counts, reverse=True)

    def test_common_rescaling_invariance(self):
        # scaling the eigenvalues by g and p_hat by sqrt(g) scales both sides
        values = np.array([900.0, 120.0, 80.0, 2.0])
        base = estimate_rank(_ladder(values), 1.0, 50, 10, 1.0).r_hat
        g = 0.25
        scaled = estimate_rank(_ladder(values * g), np.sqrt(g), 50, 10, 1.0).r_hat
        assert scaled == base

    def test_boundary_value_counts(self):
        thr = 0.25 * 100 * np.log(20)
        decision = estimate_rank(_ladder([thr, thr / 2]), 0.5, 100, 20, 1.0)
        assert decision.r_hat == 1  # >= comparison

    def test_partial_ladder_allowed(self):
        decision = estimate_rank(_ladder([5000.0]), 0.5, 100, 20, 1.0)
        assert decision.r_hat == 1

    def test_top_k_ladder_rejected(self):
        # mu_dim is unknown, so the shifted ratio cannot be formed
        with pytest.raises(ValueError, match="full eigenvalue ladder"):
            estimate_rank(_top_ladder([5000.0, 400.0], 10), 0.5, 100, 10, 1.0)

    def test_ladder_larger_than_d_rejected(self):
        with pytest.raises(ValueError):
            estimate_rank(_ladder([1.0, 1.0, 1.0]), 0.5, 10, 2, 1.0)


class TestEigenvalueRatio:
    # many values above the floor log(10) ~ 2.3 (p=1, n=1, d=10); the
    # largest shifted ratio sits after the 2nd value
    VALUES = np.array([900.0, 700.0, 50.0, 40.0, 30.0, 20.0, 10.0, 5.0,
                       -5.0, -10.0])

    def test_ratio_picks_gap_below_count(self):
        decision = estimate_rank(_ladder(self.VALUES), 1.0, 1, 10, 1.0)
        assert (self.VALUES >= decision.threshold).sum() == 8
        assert decision.r_hat == 2

    @pytest.mark.parametrize("g", [0.5, 3.0, 10.0])
    def test_scale_invariance(self, g):
        decision = estimate_rank(_ladder(self.VALUES * g**2), 1.0, 1, 10, 1.0)
        assert decision.r_hat == 2

    @pytest.mark.parametrize("shift", [-19.9, -3.0, 7.0, 1e4])
    def test_shift_invariance(self, shift):
        decision = estimate_rank(_ladder(self.VALUES + shift), 1.0, 1, 10, 1.0)
        assert decision.r_hat == 2

    def test_c5_shaped_ladder(self):
        # n=400, d=40, p=0.5: floor ~369; two signal values, 18 more positive
        # values from missingness fluctuations (15 of them above the floor),
        # then an indefinite tail
        values = np.concatenate([[2.5e5, 1.5e5],
                                 np.linspace(1e4, 400.0, 15),
                                 [300.0, 200.0, 100.0],
                                 np.linspace(-100.0, -1e4, 20)])
        decision = estimate_rank(_ladder(values), 0.5, 400, 40, 1.0)
        assert (values > 0).sum() == 20
        assert (values >= decision.threshold).sum() == 17
        assert decision.r_hat == 2

    def test_tied_bottom_values_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tied = estimate_rank(_ladder([100.0, 50.0, 0.0, 0.0, 0.0, 0.0]),
                                 1.0, 1, 6, 1.0)
            flat = estimate_rank(_ladder([100.0, 50.0, 50.0, 50.0]),
                                 1.0, 1, 4, 1.0)
        assert tied.r_hat == 2
        assert flat.r_hat == 1


class TestScree:
    def test_pairs(self):
        assert scree(_ladder([3.0, 2.0, 1.0]), 2) == [(1, 3.0), (2, 2.0)]

    def test_k_zero(self):
        assert scree(_ladder([3.0, 2.0, 1.0]), 0) == []

    def test_top_k_ladder_rejected(self):
        with pytest.raises(ValueError, match="full eigenvalue ladder"):
            scree(_top_ladder([3.0, 2.0], 5), 2)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            scree(_ladder([3.0]), 2)
