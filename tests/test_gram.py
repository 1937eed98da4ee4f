"""Gram accumulation, debiasing, and the expected-gram oracles."""

import numpy as np
import pytest

from specmc import (GroundTruth, ObservedMatrix, bias_adjust,
                    expected_gram_left, expected_gram_right, gram_right,
                    observed_fraction)
from specmc.gram import _BLOCK_CELLS, crossprod


def _full(dense):
    dense = np.asarray(dense, dtype=np.float64)
    return ObservedMatrix.from_mask(dense, np.ones(dense.shape, bool))


class TestObservedFraction:
    def test_half(self):
        obs = ObservedMatrix(2, 3, [0, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        assert observed_fraction(obs) == 0.5

    def test_full(self):
        assert observed_fraction(_full([[1, 2], [3, 4]])) == 1.0

    def test_zero_size(self):
        with pytest.raises(ValueError):
            observed_fraction(ObservedMatrix(0, 3, [], [], []))


class TestCrossprod:
    def test_matches_matmul(self):
        rng = np.random.default_rng(10)
        mats = [rng.normal(size=shape) for shape in
                [(1, 1), (5, 3), (3, 5), (4097, 13), (943, 144)]]
        base = rng.normal(size=(50, 12))
        mats += [base[:, ::2], np.asfortranarray(base), base[::3]]  # strided, F-ordered
        for A in mats:
            got = crossprod(A)
            ref = A.T @ A
            assert np.array_equal(got, got.T)
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_empty_rows(self):
        assert not crossprod(np.zeros((0, 4))).any()


class TestGram:
    def test_right_hand_product(self):
        assert gram_right(_full([[1, 2], [3, 4]])).tolist() == [[10, 14], [14, 20]]

    def test_left_hand_product(self):
        assert gram_right(_full([[1, 2], [3, 4]]).transpose()).tolist() == [[5, 11], [11, 25]]

    def test_single_entry(self):
        obs = ObservedMatrix(1, 2, [0], [1], [2.0])
        assert gram_right(obs).tolist() == [[0, 0], [0, 4]]
        assert gram_right(obs.transpose()).tolist() == [[4.0]]

    def test_empty_mask(self):
        obs = ObservedMatrix(3, 2, [], [], [])
        assert not gram_right(obs).any()
        assert not gram_right(obs.transpose()).any()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size(self, shape):
        # one empty block: the (d, d) zero gram, as for an all-missing matrix
        g = gram_right(ObservedMatrix(*shape, [], [], []))
        assert g.shape == (shape[1], shape[1]) and not g.any()

    def test_matches_dense_products(self):
        rng = np.random.default_rng(7)
        masks = [rng.random((6, 4)) < 0.6 for _ in range(10)]
        # the small masks are one gram block each: block edges are crossed
        # by test_blocks_match_dense_product
        d = 4
        for n in (d - 1, d, d + 1, 2 * d + 1):
            masks += [rng.random((n, d)) < 0.6, rng.random((d, n)) < 0.6]
        no_rows = rng.random((9, 4)) < 0.6
        no_rows[[0, 4, 5, 8]] = False  # empty rows, also at block edges
        no_col = rng.random((7, 5)) < 0.7
        no_col[:, 2] = False
        masks += [no_rows, no_rows.T, no_col, no_col.T, np.zeros((5, 3), bool)]
        masks.append(rng.random((700, 300)) < 0.5)  # large enough to need syrk
        for mask in masks:
            obs = ObservedMatrix.from_mask(rng.normal(size=mask.shape), mask)
            M = obs.to_dense()
            for got, ref in ((gram_right(obs), M.T @ M), (gram_right(obs.transpose()), M @ M.T)):
                assert np.array_equal(got, got.T)
                assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("n,d,blocks", [(1000, 63, 1), (1040, 63, 1), (1041, 63, 2),
                                            (1500, 64, 2), (1000, 256, 4), (2000, 300, 7),
                                            (20000, 10, 4)])
    def test_blocks_match_dense_product(self, n, d, blocks):
        # blocks of max(d, _BLOCK_CELLS // d) rows; the last one may be short
        rows_per_block = max(d, _BLOCK_CELLS // d)
        assert -(-n // rows_per_block) == blocks
        rng = np.random.default_rng(n + d)
        mask = rng.random((n, d)) < 0.5
        mask[min(rows_per_block, n) - 1] = False  # an empty row at a block edge
        obs = ObservedMatrix.from_mask(rng.normal(size=(n, d)), mask)
        M = obs.to_dense()
        got, ref = gram_right(obs), M.T @ M
        assert np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(20, 15))
        obs = ObservedMatrix.from_mask(dense, rng.random((20, 15)) < 0.3)
        g = gram_right(obs)
        assert np.array_equal(g, g.T)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dense = rng.normal(size=(8, 5)) * 100
            obs = ObservedMatrix.from_mask(dense, rng.random((8, 5)) < 0.5)
            tr = np.trace(gram_right(obs))
            ref = float((obs.vals**2).sum())
            assert abs(tr - ref) <= 1e-12 * max(1.0, abs(ref))


class TestBiasAdjust:
    def test_p_one_is_identity(self):
        g = np.array([[10.0, 14], [14, 20]])
        assert np.array_equal(bias_adjust(g, 1.0), g)

    def test_diagonal_halved(self):
        g = np.array([[10.0, 14], [14, 20]])
        assert bias_adjust(g, 0.5).tolist() == [[5, 14], [14, 10]]

    def test_zero_matrix(self):
        assert not bias_adjust(np.zeros((3, 3)), 0.3).any()

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            bias_adjust(np.eye(2), 1.5)
        with pytest.raises(ValueError):
            bias_adjust(np.eye(2), -0.1)

    def test_input_not_mutated(self):
        g = np.eye(2)
        bias_adjust(g, 0.5)
        assert np.array_equal(g, np.eye(2))


class TestExpectedGram:
    def test_hand_value_2x2(self):
        truth = GroundTruth.from_matrix([[1.0, 2], [3, 4]], 2, sigma=1.0, p=0.5)
        assert np.allclose(expected_gram_right(truth), [[6.0, 3.5], [3.5, 11.0]])

    def test_noiseless_full_observation(self):
        M0 = np.array([[1.0, 2], [3, 4]])
        truth = GroundTruth.from_matrix(M0, 2, sigma=0.0, p=1.0)
        assert np.allclose(expected_gram_right(truth), M0.T @ M0)
        assert np.allclose(expected_gram_left(truth), M0 @ M0.T)

    def test_pure_noise_term(self):
        # rank-1 with tiny signal approximates the zero-matrix noise case
        n, d = 4, 3
        truth = GroundTruth.from_matrix(np.full((n, d), 1e-9), 1, sigma=2.0, p=0.3)
        assert np.allclose(expected_gram_right(truth), n * 0.3 * 4.0 * np.eye(d))
        assert np.allclose(expected_gram_left(truth), d * 0.3 * 4.0 * np.eye(n))


def _draw(truth, rng):
    mask = rng.random(truth.shape) < truth.p
    noisy = truth.M0.copy()
    noisy[mask] += rng.normal(0.0, truth.sigma, int(mask.sum()))
    return ObservedMatrix.from_mask(noisy, mask)


N_DRAWS = 20_000


@pytest.fixture(scope="module")
def draws():
    truth = GroundTruth.from_matrix([[1.0, 2], [3, 4], [5, 6]], 2,
                                    sigma=1.0, p=0.5)
    rng = np.random.default_rng(42)
    right = np.zeros((N_DRAWS, 2, 2))
    left = np.zeros((N_DRAWS, 3, 3))
    for i in range(N_DRAWS):
        obs = _draw(truth, rng)
        right[i] = gram_right(obs)
        left[i] = gram_right(obs.transpose())
    return truth, right, left


class TestMonteCarloOracles:
    """Smaller-sample versions of the expectation checks (full runs live in
    the acceptance suite)."""

    @staticmethod
    def _within_5se(samples, expected):
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
        return np.all(np.abs(mean - expected) < 5 * np.maximum(se, 1e-30))

    def test_right_gram_mean(self, draws):
        truth, right, _ = draws
        assert self._within_5se(right, expected_gram_right(truth))

    def test_left_gram_mean(self, draws):
        truth, _, left = draws
        assert self._within_5se(left, expected_gram_left(truth))

    def test_adjusted_mean_with_true_p(self, draws):
        # debiasing with the true p recenters on p^2 M0^T M0 + n p^2 s2 I
        truth, right, _ = draws
        adj = np.array([bias_adjust(g, truth.p) for g in right[:10000]])
        n, d = truth.shape
        expected = (truth.p**2 * truth.M0.T @ truth.M0
                    + n * truth.p**2 * truth.sigma**2 * np.eye(d))
        assert self._within_5se(adj, expected)

