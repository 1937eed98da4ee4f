"""Sign resolution, assembly, and factor-form prediction."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

import specmc.spectral
from specmc import signs
from specmc import (ObservedMatrix, assemble, complete, enumerate_sign_residuals,
                    estimate_singular_triplets, predict_entries, predict_entry,
                    reference_signs, resolve_signs_exhaustive,
                    resolve_signs_heuristic)
from specmc.simulate import SimConfig, generate_instance

# rank of the signal in conftest's workload_obs inputs
_TRUE_RANK = {"ml": 3, "cli": 3, "sim": 2}


def _full(dense):
    dense = np.asarray(dense, dtype=np.float64)
    return ObservedMatrix.from_mask(dense, np.ones(dense.shape, bool))


def _rank1_setup(scale=6.0):
    u = np.array([0.6, 0.8])
    v = np.array([0.0, 1.0])
    obs = _full(scale * np.outer(u, v))
    est = estimate_singular_triplets(obs, 1)
    return obs, est


def _negate_column(est, attr, i):
    Z = getattr(est, attr).copy()
    Z[:, i] = -Z[:, i]
    return dataclasses.replace(est, **{attr: Z})


class TestExhaustive:
    def test_aligned_rank_one(self):
        obs, est = _rank1_setup()
        assert resolve_signs_exhaustive(est, obs).tolist() == [1.0]

    def test_negated_factor(self):
        obs, est = _rank1_setup()
        flipped = _negate_column(est, "V_hat", 0)
        assert resolve_signs_exhaustive(flipped, obs).tolist() == [-1.0]

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_dense_brute_force(self, rank):
        # oracle: rebuild every candidate densely and minimize directly
        import itertools

        rng = np.random.default_rng(rank)
        dense = rng.normal(size=(12, 8))
        mask = rng.random((12, 8)) < 0.7
        obs = ObservedMatrix.from_mask(dense, mask)
        est = estimate_singular_triplets(obs, rank)
        best, best_res = None, np.inf
        for s in itertools.product((1.0, -1.0), repeat=rank):
            s = np.array(s)
            dense_hat = (est.U_hat * (s * est.lambda_hat)) @ est.V_hat.T
            res = float(((dense_hat - obs.to_dense())[mask] ** 2).sum())
            if res < best_res:
                best, best_res = s, res
        chosen = resolve_signs_exhaustive(est, obs)
        assert chosen.tolist() == best.tolist()

    def test_budget_exceeded(self, monkeypatch):
        obs, est = _rank1_setup()
        monkeypatch.setattr(signs, "SIGN_BUDGET", 0)
        with pytest.raises(ValueError, match="heuristic"):
            resolve_signs_exhaustive(est, obs)

    def test_attains_minimum_over_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            dense = rng.normal(size=(12, 8))
            mask = rng.random((12, 8)) < 0.6
            obs = ObservedMatrix.from_mask(dense, mask)
            est = estimate_singular_triplets(obs, 3)
            cand, residuals = enumerate_sign_residuals(est, obs)
            chosen = resolve_signs_exhaustive(est, obs)
            idx = next(i for i in range(len(cand))
                       if np.array_equal(cand[i], chosen))
            assert residuals[idx] <= residuals.min() + 1e-12

    def test_tie_prefers_plus_one(self):
        # zero singular value makes every candidate equivalent
        obs, est = _rank1_setup()
        zeroed = dataclasses.replace(est, lambda_hat=np.zeros(1))
        assert resolve_signs_exhaustive(zeroed, obs).tolist() == [1.0]


class TestHeuristic:
    def test_matches_exhaustive_noiseless(self):
        obs, est = _rank1_setup()
        assert resolve_signs_heuristic(est, obs).tolist() == \
            resolve_signs_exhaustive(est, obs).tolist()

    def test_negated_right_factor(self):
        obs, est = _rank1_setup()
        flipped = _negate_column(est, "V_hat", 0)
        assert resolve_signs_heuristic(flipped, obs).tolist() == [-1.0]

    def test_agrees_with_exhaustive_on_replicates(self):
        config = SimConfig(n=120, d=22, p=0.6, sigma=1.0, replicates=10, seed=3)
        for i in range(config.replicates):
            _, obs = generate_instance(config, i)
            est = estimate_singular_triplets(obs, 2)
            assert resolve_signs_heuristic(est, obs).tolist() == \
                resolve_signs_exhaustive(est, obs).tolist()


class TestHeuristicOnWorkloads:
    @pytest.mark.parametrize("shape", ["ml", "cli", "sim"])
    @pytest.mark.parametrize("r", [2, 3, 12])
    def test_matches_exhaustive_on_signal_factors(self, workload_obs, shape, r):
        obs = workload_obs(shape)
        est = estimate_singular_triplets(obs, r)
        k = min(r, _TRUE_RANK[shape])
        assert resolve_signs_heuristic(est, obs)[:k].tolist() == \
            resolve_signs_exhaustive(est, obs)[:k].tolist()

    def test_no_eigensolve(self, workload_obs, monkeypatch):
        obs = workload_obs("ml")
        est = estimate_singular_triplets(obs, 12)
        expected = resolve_signs_heuristic(est, obs)

        def refuse(*args, **kwargs):
            raise AssertionError("the heuristic solved an eigenproblem")

        monkeypatch.setattr(specmc.spectral, "top_gram_eigenpairs", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        assert resolve_signs_heuristic(est, obs).tolist() == expected.tolist()


class TestDispatchAndReference:
    def test_complete_picks_the_rule_by_rank(self, monkeypatch):
        # 300 x 60 rank-3 product plus N(0, 1) noise at p = 0.5, estimated at
        # rank 8, where the two rules disagree on a noise factor
        rng = np.random.default_rng(20261018)
        dense = (rng.uniform(-2.0, 2.0, (300, 3)) @ rng.uniform(-2.0, 2.0, (60, 3)).T
                 + rng.normal(0.0, 1.0, (300, 60)))
        obs = ObservedMatrix.from_mask(dense, rng.random(dense.shape) < 0.5)
        est = estimate_singular_triplets(obs, 8)
        exhaustive = resolve_signs_exhaustive(est, obs)
        heuristic = resolve_signs_heuristic(est, obs)
        assert not np.array_equal(exhaustive, heuristic)
        cm = complete(obs, est)
        assert cm.method == "exhaustive" and np.array_equal(cm.signs, exhaustive)
        monkeypatch.setattr(signs, "SIGN_BUDGET", 0)
        cm = complete(obs, est)
        assert cm.method == "heuristic" and np.array_equal(cm.signs, heuristic)
        assert cm.to_dict()["sign_method"] == "heuristic"

    def test_reference_signs_flag_flips(self):
        config = SimConfig(n=60, d=16, p=1.0, sigma=0.0, replicates=1, seed=9)
        truth, obs = generate_instance(config, 0)
        est = estimate_singular_triplets(obs, 2)
        s0 = reference_signs(est, truth)
        assert np.array_equal(resolve_signs_exhaustive(est, obs), s0)
        flipped = _negate_column(est, "V_hat", 1)
        assert np.array_equal(reference_signs(flipped, truth), s0 * [1.0, -1.0])

    def test_exhaustive_beats_reference_residual(self):
        config = SimConfig(n=100, d=20, p=0.5, sigma=1.0, replicates=5, seed=21)
        for i in range(config.replicates):
            truth, obs = generate_instance(config, i)
            est = estimate_singular_triplets(obs, 2)
            cand, residuals = enumerate_sign_residuals(est, obs)
            shat = resolve_signs_exhaustive(est, obs)
            s0 = reference_signs(est, truth)
            res_of = {tuple(c): r for c, r in zip(cand, residuals)}
            assert res_of[tuple(shat)] <= res_of[tuple(s0)] + 1e-12


class TestAssembleAndPredict:
    def _completed(self, sign=1.0):
        obs, est = _rank1_setup()
        return assemble(est, [sign])

    def test_dense_outer_product(self):
        cm = self._completed()
        assert np.allclose(cm.dense(), [[0.0, 3.6], [0.0, 4.8]], atol=1e-10)

    def test_negated_signs_negate_matrix(self):
        plus = self._completed(1.0)
        minus = self._completed(-1.0)
        assert np.allclose(minus.dense(), -plus.dense(), atol=1e-12)

    def test_zero_lambda_gives_zero_matrix(self):
        obs, est = _rank1_setup()
        zeroed = dataclasses.replace(est, lambda_hat=np.zeros(1))
        assert not assemble(zeroed, [-1.0]).dense().any()

    def test_length_mismatch(self):
        obs, est = _rank1_setup()
        with pytest.raises(ValueError):
            assemble(est, [1.0, 1.0])

    def test_bad_sign_values(self):
        obs, est = _rank1_setup()
        with pytest.raises(ValueError):
            assemble(est, [0.5])

    def test_predict_entry_values(self):
        cm = self._completed()
        assert abs(predict_entry(cm, 1, 1) - 4.8) <= 1e-10
        assert abs(predict_entry(cm, 0, 0)) <= 1e-12

    def test_predict_entry_range(self):
        cm = self._completed()
        with pytest.raises(IndexError):
            predict_entry(cm, 2, 0)

    @pytest.mark.parametrize("rows, cols, name", [([0.9], [1], "rows"), ([1], [1.2], "cols")])
    def test_predict_non_integer_cell_rejected(self, rows, cols, name):
        # a cast would predict the cell (0, 1) or (1, 1)
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            predict_entries(self._completed(), rows, cols)

    def test_predict_matches_dense_cells(self):
        rng = np.random.default_rng(4)
        dense = rng.normal(size=(9, 7))
        obs = ObservedMatrix.from_mask(dense, rng.random((9, 7)) < 0.8)
        est = estimate_singular_triplets(obs, 3)
        cm = assemble(est, resolve_signs_exhaustive(est, obs))
        rows = rng.integers(0, 9, 25)
        cols = rng.integers(0, 7, 25)
        got = predict_entries(cm, rows, cols)
        ref = cm.dense()[rows, cols]
        assert np.abs(got - ref).max() <= 1e-12 * max(1, np.abs(ref).max())
        single = [predict_entry(cm, int(k), int(h)) for k, h in zip(rows, cols)]
        assert np.abs(np.array(single) - ref).max() <= 1e-12 * max(1, np.abs(ref).max())
