"""Plug-in variances, covariance matrix, and confidence intervals."""

import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from specmc import (GroundTruth, ObservedMatrix, assemble, build_report,
                    confidence_intervals, estimate_noise_variance,
                    estimate_singular_triplets, resolve_signs_exhaustive,
                    singular_value_covariance, squared_sv_sum_variance)
from specmc import inference
from specmc.inference import pair_m2_sums
from specmc.spectral import EigenLadder, SpectralEstimate


def _plugin_cm(truth, p_hat, signs=None, tau_hat=0.0):
    """Completed matrix whose plug-ins are the exact truth factors."""
    r = truth.rank
    n, d = truth.shape
    est = SpectralEstimate(
        U_hat=truth.U.copy(), V_hat=truth.V.copy(),
        lambda_hat=truth.lambdas.copy(), p_hat=p_hat, tau_hat=tau_hat, rank=r,
        left_ladder=EigenLadder(np.zeros(n), np.eye(n, r), 0.0),
    )
    return assemble(est, np.ones(r) if signs is None else signs)


def _brute_pair_sum(Mhat, U, V, i, j):
    n, d = Mhat.shape
    total = 0.0
    for k in range(n):
        for h in range(d):
            total += Mhat[k, h] ** 2 * U[k, i] * V[h, i] * U[k, j] * V[h, j]
    return total


def _rank1_truth(n=5, d=4, sigma=1.0, p=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return GroundTruth.from_factors(rng.uniform(-2, 2, (n, 1)),
                                    rng.uniform(-2, 2, (d, 1)), sigma, p)


class TestNoiseVariance:
    def test_zero_tau(self):
        assert estimate_noise_variance(0.0, 0.5, 10) == 0.0

    def test_inverts_noise_floor(self):
        n, p, s2 = 40, 0.7, 2.25
        assert abs(estimate_noise_variance(n * p**2 * s2, p, n) - s2) <= 1e-12

    def test_negative_tau_clamps(self):
        assert estimate_noise_variance(-3.0, 0.5, 10) == 0.0

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError):
            estimate_noise_variance(1.0, 0.0, 10)


class TestCovariance:
    def test_full_observation_is_diagonal_noise(self):
        truth = _rank1_truth(p=1.0)
        cm = _plugin_cm(truth, p_hat=1.0)
        ups = singular_value_covariance(cm, noise_var=2.0)
        assert np.allclose(ups, np.diag([2.0]))

    def test_zero_noise_full_observation_vanishes(self):
        truth = _rank1_truth(p=1.0)
        ups = singular_value_covariance(_plugin_cm(truth, 1.0), noise_var=0.0)
        assert not ups.any()

    def test_rank_one_matches_brute_force(self):
        truth = _rank1_truth()
        cm = _plugin_cm(truth, p_hat=0.5)
        sigma2 = 1.7
        ups = singular_value_covariance(cm, sigma2)
        n, d = truth.shape
        b = truth.lambdas[0] / np.sqrt(n * d)
        S = _brute_pair_sum(cm.dense(), truth.U, truth.V, 0, 0)
        expected = (1 - 0.5) / 0.5 * (S - b**2) + sigma2 / 0.5
        assert abs(ups[0, 0] - expected) <= 1e-10 * max(1, abs(expected))

    def test_rank_two_matches_brute_force(self):
        rng = np.random.default_rng(3)
        truth = GroundTruth.from_factors(rng.uniform(-2, 2, (6, 2)),
                                         rng.uniform(-2, 2, (5, 2)), 1.0, 0.4)
        cm = _plugin_cm(truth, p_hat=0.4)
        sigma2 = 0.8
        ups = singular_value_covariance(cm, sigma2)
        n, d = truth.shape
        b = truth.signal_scales()
        Mhat = cm.dense()
        for i in range(2):
            for j in range(2):
                S = _brute_pair_sum(Mhat, truth.U, truth.V, i, j)
                expected = (1 - 0.4) / 0.4 * (S - b[i] * b[j])
                if i == j:
                    expected += sigma2 / 0.4
                assert abs(ups[i, j] - expected) <= 1e-10 * max(1, abs(expected))

    def test_symmetric_and_bounded_below(self):
        rng = np.random.default_rng(4)
        dense = rng.normal(size=(30, 12)) * 3
        obs = ObservedMatrix.from_mask(dense, rng.random((30, 12)) < 0.6)
        est = estimate_singular_triplets(obs, 2)
        cm = assemble(est, resolve_signs_exhaustive(est, obs))
        sigma2 = estimate_noise_variance(est.tau_hat, est.p_hat, 30)
        ups = singular_value_covariance(cm, sigma2)
        assert np.array_equal(ups, ups.T)
        n, d = cm.shape
        b = est.lambda_hat / np.sqrt(n * d)
        p = est.p_hat
        floor = sigma2 / p - (1 - p) / p * b**2
        assert np.all(np.diag(ups) >= floor - 1e-10)


def _report_energy(truth, p_hat, noise_var):
    """build_report's energy variance on the truth plug-ins, with tau_hat set
    so that the report's noise variance is noise_var; at rank 1, m = 1."""
    n = truth.shape[0]
    cm = _plugin_cm(truth, p_hat, tau_hat=n * p_hat**2 * noise_var)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # these shapes sit below p_hat*n/d = 10
        return build_report(cm).energy_variance


class TestEnergyVariance:
    def test_full_observation_closed_form(self):
        truth = _rank1_truth(p=1.0, sigma=1.5)
        got = _report_energy(truth, p_hat=1.0, noise_var=1.5**2)
        b2 = float(truth.signal_scales()[0] ** 2)
        assert abs(got - 4 * 1.5**2 * b2) <= 1e-12 * max(1, b2)

    def test_zero_noise_full_observation(self):
        truth = _rank1_truth(p=1.0, sigma=0.0)
        assert _report_energy(truth, p_hat=1.0, noise_var=0.0) == 0.0

    def test_rank_one_matches_brute_force(self):
        truth = _rank1_truth()
        cm = _plugin_cm(truth, p_hat=0.5)
        sigma2 = 1.3
        got = _report_energy(truth, 0.5, sigma2)
        n, d = truth.shape
        b = float(truth.signal_scales()[0])
        Mhat = cm.dense()
        acc = 0.0
        for k in range(n):
            for h in range(d):
                acc += Mhat[k, h] ** 2 * (b * truth.U[k, 0] * truth.V[h, 0]) ** 2
        expected = 4 * (1 - 0.5) / 0.5 * (acc - b**4) + 4 * sigma2 / 0.5 * b**2
        assert abs(got - expected) <= 1e-10 * max(1, abs(expected))

    def test_m_out_of_range(self):
        truth = _rank1_truth()
        with pytest.raises(ValueError, match="m must be in"):
            squared_sv_sum_variance(truth.U, truth.V, truth.signal_scales(),
                                    truth.lambdas, 0.5, 1.0, 2)

    def test_independent_of_plugin_matrix_at_full_observation(self):
        rng = np.random.default_rng(5)
        truth = GroundTruth.from_factors(rng.uniform(-2, 2, (6, 2)),
                                         rng.uniform(-2, 2, (5, 2)), 1.0, 1.0)
        b = truth.signal_scales()
        a = squared_sv_sum_variance(truth.U, truth.V, b, truth.lambdas, 1.0, 2.0, 2)
        scrambled = squared_sv_sum_variance(truth.U, truth.V, b,
                                            3.0 * truth.lambdas, 1.0, 2.0, 2)
        assert abs(a - scrambled) <= 1e-12 * max(1, abs(a))


def _normal_quantile_by_quadrature(q):
    # independent inverse-normal: integrate the density, then root-find
    def cdf(z):
        val, _ = integrate.quad(
            lambda t: np.exp(-t * t / 2) / np.sqrt(2 * np.pi), 0.0, z)
        return 0.5 + val
    return optimize.brentq(lambda z: cdf(z) - q, 0.0, 10.0, xtol=1e-10)


class TestIntervals:
    def _est(self, lam):
        lam = np.asarray(lam, dtype=np.float64)
        r = lam.size
        return SpectralEstimate(
            U_hat=np.eye(3, r), V_hat=np.eye(3, r), lambda_hat=lam,
            p_hat=1.0, tau_hat=0.0, rank=r,
            left_ladder=EigenLadder(np.zeros(3), np.eye(3, r), 0.0),
        )

    def test_degenerate_interval(self):
        intervals = confidence_intervals(self._est([5.0]), np.array([[0.0]]), 0.05)
        assert intervals.tolist() == [[5.0, 5.0]]

    def test_95_percent_half_width(self):
        intervals = confidence_intervals(self._est([0.0]), np.array([[1.0]]), 0.05)
        z_ref = _normal_quantile_by_quadrature(0.975)
        assert abs(z_ref - 1.959964) <= 1e-5
        assert abs(intervals[0, 1] - z_ref) <= 1e-5

    def test_other_alpha(self):
        intervals = confidence_intervals(self._est([1.0]), np.array([[4.0]]), 0.32)
        z_ref = _normal_quantile_by_quadrature(1 - 0.32 / 2)
        assert abs(z_ref - 0.994458) <= 1e-5
        assert abs((intervals[0, 1] - 1.0) - 2 * z_ref) <= 1e-5

    def test_negative_variance_clamped(self):
        intervals = confidence_intervals(self._est([2.0]), np.array([[-3.0]]), 0.05)
        assert intervals.tolist() == [[2.0, 2.0]]

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            confidence_intervals(self._est([1.0]), np.eye(1), 1.5)


class TestBuildReport:
    def _cm(self, n=200, d=12, p=0.8, seed=6):
        rng = np.random.default_rng(seed)
        truth = GroundTruth.from_factors(rng.uniform(-3, 3, (n, 2)),
                                         rng.uniform(-3, 3, (d, 2)), 1.0, p)
        mask = rng.random((n, d)) < p
        noisy = truth.M0.copy()
        noisy[mask] += rng.normal(0, 1.0, int(mask.sum()))
        obs = ObservedMatrix.from_mask(noisy, mask)
        est = estimate_singular_triplets(obs, 2)
        return assemble(est, resolve_signs_exhaustive(est, obs))

    def test_report_fields_consistent(self):
        cm = self._cm()
        report = build_report(cm, alpha=0.05)
        assert report.intervals.shape == (2, 2)
        assert np.all(report.variances_clamped >= 0)
        mid = report.intervals.mean(axis=1)
        assert np.allclose(mid, report.lambda_hat, atol=1e-9)
        # raw covariance retained alongside the clamped diagonal
        assert np.allclose(np.clip(np.diag(report.covariance), 0, None),
                           report.variances_clamped)

    def test_warns_on_small_aspect_ratio(self):
        cm = self._cm(n=30, d=12, p=0.5, seed=7)
        with pytest.warns(UserWarning, match="p_hat\\*n/d"):
            build_report(cm)

    def test_no_warning_in_tall_regime(self):
        cm = self._cm(n=200, d=12, p=0.8, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_report(cm)

    @pytest.mark.parametrize("n, d, p", [(200, 40, 0.6), (120, 150, 0.8), (400, 25, 0.5)])
    @pytest.mark.parametrize("r", [3, 12])
    def test_pair_sums_once_and_bit_identical(self, monkeypatch, n, d, p, r):
        rng = np.random.default_rng(n + d + r)
        truth = GroundTruth.from_factors(rng.uniform(-3, 3, (n, 3)),
                                         rng.uniform(-3, 3, (d, 3)), 1.0, p)
        mask = rng.random((n, d)) < p
        obs = ObservedMatrix.from_mask(truth.M0 + rng.normal(0, 1.0, (n, d)), mask)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_singular_triplets(obs, r)
            cm = assemble(est, resolve_signs_exhaustive(est, obs))
            calls = []
            monkeypatch.setattr(inference, "pair_m2_sums",
                                lambda *a: calls.append(1) or pair_m2_sums(*a))
            report = build_report(cm)
        assert len(calls) == 1
        # the formulas as they read before the sums were shared
        noise_var = estimate_noise_variance(est.tau_hat, est.p_hat, n)
        b = est.lambda_hat / np.sqrt(n * d)
        S = pair_m2_sums(est.U_hat, est.V_hat, cm.coef())
        cov = (1.0 - est.p_hat) / est.p_hat * (S - np.outer(b, b))
        cov[np.diag_indices_from(cov)] += noise_var / est.p_hat
        assert np.array_equal(report.covariance, (cov + cov.T) / 2.0)
        assert report.energy_variance == squared_sv_sum_variance(
            est.U_hat, est.V_hat, b, cm.coef(), est.p_hat, noise_var, r)
