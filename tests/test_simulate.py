"""Instance generation, replicate runs, and reproducibility."""

import numpy as np
import pytest

from specmc import (SIGN_BUDGET, GroundTruth, ObservedMatrix, SimConfig,
                    default_dim, generate_instance, run_replicate, run_replicates)
from specmc import spectral
from specmc.io import dumps_csv
from specmc.simulate import _stream


class TestConfig:
    def test_default_dim_round_half_up(self):
        assert default_dim(100) == 20
        assert default_dim(225) == 30
        assert default_dim(400) == 40
        assert default_dim(625) == 50
        assert default_dim(900) == 60
        assert default_dim(1000) == 63

    def test_defaults_filled(self):
        config = SimConfig(n=100, p=0.5, sigma=1.0, replicates=2, seed=0)
        assert config.d == 20
        assert config.true_rank == 2
        assert config.metrics_m == 2
        assert config.factor_range == 5.0

    def test_wide_matrix_warns(self):
        with pytest.warns(UserWarning, match="exceeds"):
            SimConfig(n=10, d=20, p=0.5, sigma=1.0, replicates=1, seed=0)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, p=0.0, sigma=1.0, replicates=1, seed=0)

    @pytest.mark.parametrize("n,d,rank", [(30, None, 0), (30, None, 11), (30, None, 40),
                                          (10, 4, 4), (5, 20, 5)])
    def test_true_rank_out_of_range(self, n, d, rank):
        with pytest.raises(ValueError, match="true_rank must be in"):
            SimConfig(n=n, d=d, p=0.5, sigma=1.0, replicates=1, seed=0,
                      true_rank=rank)

    def test_true_rank_at_the_limits(self):
        assert SimConfig(n=30, p=0.5, sigma=1.0, replicates=1, seed=0,
                         true_rank=10).d == 11
        assert SimConfig(n=30, p=0.5, sigma=1.0, replicates=1, seed=0,
                         true_rank=1).metrics_m == 1

    @pytest.mark.parametrize("name, value", [("n", 200.5), ("d", 28.0), ("replicates", 2.0),
                                             ("seed", True), ("true_rank", 2.0),
                                             ("metrics_m", 1.5)])
    def test_non_integer_setting_rejected(self, name, value):
        settings = dict(n=200, p=0.5, sigma=1.0, replicates=1, seed=0)
        settings[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**settings)

    def test_numpy_integer_settings_accepted(self):
        config = SimConfig(n=np.int64(100), p=0.5, sigma=1.0, replicates=np.int32(2),
                           seed=np.uint8(0), true_rank=np.int64(2))
        assert (config.d, config.metrics_m) == (20, 2)

    @pytest.mark.parametrize("factor_range", [0.0, -1.0, np.inf, np.nan])
    def test_bad_factor_range(self, factor_range):
        with pytest.raises(ValueError, match="factor_range must be positive"):
            SimConfig(n=30, p=0.5, sigma=1.0, replicates=1, seed=0,
                      factor_range=factor_range)


class TestGenerate:
    def test_full_mask_at_p_one(self):
        config = SimConfig(n=30, p=1.0, sigma=1.0, replicates=1, seed=1)
        _, obs = generate_instance(config, 0)
        assert obs.nnz == 30 * config.d

    def test_noiseless_values_match_truth(self):
        config = SimConfig(n=25, p=1.0, sigma=0.0, replicates=1, seed=2)
        truth, obs = generate_instance(config, 0)
        assert np.array_equal(obs.to_dense(), truth.M0)

    def test_bit_identical_regeneration(self):
        config = SimConfig(n=40, p=0.5, sigma=1.0, replicates=1, seed=3)
        t1, o1 = generate_instance(config, 5)
        t2, o2 = generate_instance(config, 5)
        assert t1.M0.tobytes() == t2.M0.tobytes()
        assert o1 == o2

    @pytest.mark.parametrize("n,d,p,sigma", [(40, None, 0.5, 1.0), (1000, 63, 0.5, 1.0),
                                             (30, 8, 1.0, 2.0), (25, None, 0.3, 0.0),
                                             (20, 5, 1.0, 0.0), (50, 9, 0.02, 0.7)])
    def test_same_bytes_as_copy_and_mask(self, n, d, p, sigma):
        # the former draw: noise added to a dense copy under a boolean mask
        config = SimConfig(n=n, d=d, p=p, sigma=sigma, replicates=1, seed=17)
        rng = _stream(config.seed, 3)
        lim, r = config.factor_range, config.true_rank
        A = rng.uniform(-lim, lim, (n, r))
        B = rng.uniform(-lim, lim, (config.d, r))
        M0 = GroundTruth.from_factors(A, B, sigma, p).M0
        mask = rng.random((n, config.d)) < p
        noisy = M0.copy()
        noisy[mask] += rng.normal(0.0, sigma, int(mask.sum()))
        former = ObservedMatrix.from_mask(noisy, mask)
        truth, obs = generate_instance(config, 3)
        assert truth.M0.tobytes() == M0.tobytes()
        for name in ("rows", "cols", "vals"):
            assert getattr(obs, name).tobytes() == getattr(former, name).tobytes(), name
        assert obs.shape == former.shape

    @pytest.mark.parametrize("n,d,p,sigma", [(1000, 63, 0.5, 1.0), (300, 20, 0.1, 0.5),
                                             (50, 7, 1.0, 0.0), (64, 3, 0.01, 2.0)])
    def test_same_bytes_as_nonzero_draw(self, n, d, p, sigma):
        # the former draw: 2-D np.nonzero of the mask and a 2-D fancy index
        config = SimConfig(n=n, d=d, p=p, sigma=sigma, replicates=1, seed=18)
        rng = _stream(config.seed, 2)
        lim, r = config.factor_range, config.true_rank
        A = rng.uniform(-lim, lim, (n, r))
        B = rng.uniform(-lim, lim, (d, r))
        M0 = GroundTruth.from_factors(A, B, sigma, p).M0
        rows, cols = np.nonzero(rng.random((n, d)) < p)
        vals = M0[rows, cols] + rng.normal(0.0, sigma, rows.size)
        _, obs = generate_instance(config, 2)
        for name, former in (("rows", rows), ("cols", cols), ("vals", vals)):
            got = getattr(obs, name)
            assert got.dtype == former.dtype and got.tobytes() == former.tobytes(), name

    def test_replicates_differ(self):
        config = SimConfig(n=40, p=0.5, sigma=1.0, replicates=2, seed=3)
        _, o1 = generate_instance(config, 0)
        _, o2 = generate_instance(config, 1)
        assert o1 != o2

    def test_factor_range_respected(self):
        config = SimConfig(n=50, p=1.0, sigma=0.0, replicates=1, seed=4,
                           factor_range=0.5)
        truth, _ = generate_instance(config, 0)
        assert np.abs(truth.M0).max() <= 0.5 * 0.5 * config.true_rank

    def test_truth_factors_from_exact_svd(self):
        config = SimConfig(n=30, p=0.5, sigma=1.0, replicates=1, seed=5)
        truth, _ = generate_instance(config, 0)
        assert np.abs(truth.U.T @ truth.U - np.eye(2)).max() <= 1e-10
        assert np.all(np.diff(truth.lambdas) <= 0)

    @pytest.mark.parametrize("n,d,r", [(1000, 63, 2), (40, 300, 3), (30, 8, 1), (5, 5, 5)])
    def test_from_factors_matches_dense_svd(self, n, d, r):
        rng = np.random.default_rng(n + d + r)
        A, B = rng.uniform(-5, 5, (n, r)), rng.uniform(-5, 5, (d, r))
        fast = GroundTruth.from_factors(A, B, 1.0, 0.5)
        dense = GroundTruth.from_matrix(A @ B.T, r, 1.0, 0.5)
        assert fast.M0.tobytes() == dense.M0.tobytes()
        for name in ("lambdas", "U", "V"):
            a, b = getattr(fast, name), getattr(dense, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_from_matrix_non_integer_rank_rejected(self):
        with pytest.raises(ValueError, match="rank must be an integer"):
            GroundTruth.from_matrix(np.eye(3), 1.0, 1.0, 0.5)

    def test_from_factors_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank out of range"):
            GroundTruth.from_factors(np.ones((1, 2)), np.ones((3, 2)), 1.0, 0.5)

    @pytest.mark.parametrize("n,d,r", [(1000, 63, 2), (40, 300, 3), (5, 5, 5)])
    def test_from_factors_passes_the_constructor_checks(self, n, d, r):
        # from_factors skips the O(n d) product check; its fields pass it
        rng = np.random.default_rng(n * d + r)
        A, B = rng.uniform(-5, 5, (n, r)), rng.uniform(-5, 5, (d, r))
        fast = GroundTruth.from_factors(A, B, 1.0, 0.5)
        checked = GroundTruth(fast.M0, fast.U, fast.V, fast.lambdas, fast.sigma, fast.p)
        for name in ("M0", "U", "V", "lambdas"):
            a, b = getattr(fast, name), getattr(checked, name)
            assert a.tobytes() == b.tobytes() and not a.flags.writeable, name
        assert (fast.sigma, fast.p) == (checked.sigma, checked.p) == (1.0, 0.5)

    def test_from_factors_keeps_the_scalar_checks(self):
        A = np.ones((4, 1))
        with pytest.raises(ValueError, match="sigma"):
            GroundTruth.from_factors(A, A, -1.0, 0.5)
        with pytest.raises(ValueError, match="p must be"):
            GroundTruth.from_factors(A, A, 1.0, 0.0)

    def test_constructor_rejects_a_mismatched_product(self):
        truth = GroundTruth.from_factors(np.ones((4, 1)), np.ones((3, 1)), 1.0, 0.5)
        with pytest.raises(ValueError, match="does not match"):
            GroundTruth(truth.M0 + 1e-3, truth.U, truth.V, truth.lambdas, 1.0, 0.5)
        with pytest.raises(ValueError, match="does not match"):
            GroundTruth.from_matrix(np.arange(12.0).reshape(4, 3) ** 2, 1, 1.0, 0.5)


class TestRunReplicates:
    def test_exact_recovery_rows(self):
        config = SimConfig(n=100, p=1.0, sigma=0.0, replicates=3, seed=6)
        result = run_replicates(config)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.mse_matrix <= 1e-12
            assert row.mse_lambda <= 1e-12
            assert row.mse_v <= 1e-12
            assert row.mse_u <= 1e-12
            assert row.sin2_v <= 1e-12
            assert row.z_stat == 0.0
            assert row.sign_correct

    def test_aggregates_shape(self):
        config = SimConfig(n=60, p=0.8, sigma=1.0, replicates=4, seed=7)
        result = run_replicates(config)
        assert set(result.aggregates) >= {"mse_matrix", "sin2_v", "z_stat",
                                          "r_hat", "sign_correct"}
        mean, se = result.aggregates["mse_matrix"]
        xs = [row.mse_matrix for row in result.rows]
        assert abs(mean - np.mean(xs)) <= 1e-15
        assert abs(se - np.std(xs, ddof=1) / 2) <= 1e-15

    def test_deterministic_rows_and_csv(self):
        config = SimConfig(n=50, p=0.6, sigma=1.0, replicates=4, seed=8)
        a = run_replicates(config)
        b = run_replicates(config)
        assert dumps_csv(a.to_rows()) == dumps_csv(b.to_rows())

    def test_worker_count_invariance(self):
        config = SimConfig(n=50, p=0.6, sigma=1.0, replicates=6, seed=9)
        serial = run_replicates(config, workers=1)
        threaded = run_replicates(config, workers=2)
        assert dumps_csv(serial.to_rows()) == dumps_csv(threaded.to_rows())

    @pytest.mark.parametrize("n,p", [(400, 0.1), (900, 0.08)])
    def test_worker_count_invariance_on_the_lanczos_path(self, n, p):
        # each thread also forms the lazy right ladder behind r_hat
        config = SimConfig(n=n, p=p, sigma=1.0, replicates=4, seed=12)
        assert config.d > spectral._DENSE_RIGHT * p  # n d^2 > _DENSE_RIGHT * E[nnz]
        serial = run_replicates(config, workers=1)
        threaded = run_replicates(config, workers=3)
        assert dumps_csv(serial.to_rows()) == dumps_csv(threaded.to_rows())

    def test_lambda_mse_stable_in_n(self):
        # the singular value error should not trend with n at fixed p
        agg = {}
        for n in (100, 900):
            config = SimConfig(n=n, p=0.5, sigma=1.0, replicates=25, seed=10)
            agg[n] = run_replicates(config, workers=2).aggregates["mse_lambda"][0]
        ratio = agg[900] / agg[100]
        assert 1 / 3 < ratio < 3

    def test_sim_shape_forms_right_gram_once(self, monkeypatch):
        # n * d^2 <= _DENSE_RIGHT * nnz: one dense right eigensystem serves
        # V_hat, lambda_hat, tau_hat and r_hat, on scipy's LAPACK, and the
        # one-block matrix is zero-imputed once
        imputed, ladders = [], []
        to_dense, eig = ObservedMatrix.to_dense, spectral.sym_eig_desc

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        config = SimConfig(n=1000, d=63, p=0.5, sigma=1.0, replicates=1, seed=9)
        monkeypatch.setattr(ObservedMatrix, "to_dense",
                            lambda self: imputed.append(self.shape) or to_dense(self))
        monkeypatch.setattr(spectral, "sym_eig_desc",
                            lambda S, k=None: ladders.append((S.shape, k)) or eig(S, k))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        row = run_replicate(config, 0)
        assert imputed == [(1000, 63)]
        assert ladders == [((63, 63), 0)]
        assert row.r_hat == 2 and row.sign_correct

    def test_rank_above_sign_budget_runs(self):
        # above the exhaustive budget the replicate resolves signs heuristically
        config = SimConfig(n=400, p=0.5, sigma=1.0, replicates=1, seed=13,
                           true_rank=SIGN_BUDGET + 1)
        row = run_replicate(config, 0)
        assert all(np.isfinite(float(v)) for v in vars(row).values())

    def test_workers_below_one_rejected(self):
        config = SimConfig(n=30, p=0.5, sigma=1.0, replicates=2, seed=11)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                run_replicates(config, workers=workers)

    def test_non_integer_workers_rejected(self):
        config = SimConfig(n=30, p=0.5, sigma=1.0, replicates=2, seed=11)
        for workers in (2.0, True):
            with pytest.raises(ValueError, match="workers must be an integer"):
                run_replicates(config, workers=workers)

    def test_replicate_failure_is_labeled(self):
        config = SimConfig(n=30, p=0.5, sigma=1.0, replicates=2, seed=11,
                           true_rank=2)
        object.__setattr__  # no-op; keep config valid but corrupt one field
        config.true_rank = 40  # rank >= min(n, d) fails inside the estimator
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_replicates(config)
