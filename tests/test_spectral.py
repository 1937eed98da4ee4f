"""Eigendecomposition contract and the singular triplet estimator."""

import dataclasses
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmc import (ClampWarning, ObservedMatrix, SimConfig, bias_adjust,
                    build_report, complete, estimate_singular_triplets,
                    generate_instance, gram_right, observed_fraction,
                    resolve_signs_heuristic, right_ladder, sin_theta_sq,
                    singular_values_from_eigs, sym_eig_desc,
                    top_gram_eigenpairs, trailing_eig_mean)
from specmc import spectral
from specmc.gram import _BLOCK_CELLS
from specmc.spectral import _DENSE_RIGHT, EigenLadder, _canonical_signs


def _full(dense):
    dense = np.asarray(dense, dtype=np.float64)
    return ObservedMatrix.from_mask(dense, np.ones(dense.shape, bool))


def _random_orthonormal(rng, p, m):
    q, _ = np.linalg.qr(rng.normal(size=(p, m)))
    return q


class TestSymEig:
    def test_diagonal(self):
        ladder = sym_eig_desc(np.diag([3.0, 1.0, 2.0]))
        assert ladder.values.tolist() == [3.0, 2.0, 1.0]
        assert np.allclose(np.abs(ladder.vectors),
                           np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_two_by_two_closed_form(self):
        ladder = sym_eig_desc(np.array([[0.0, 1], [1, 0]]))
        assert np.allclose(ladder.values, [1.0, -1.0])
        s = 1 / np.sqrt(2)
        # canonical signs: first coordinate positive
        assert np.allclose(ladder.vectors[:, 0], [s, s])
        assert np.allclose(ladder.vectors[:, 1], [s, -s])

    def test_reconstruction_and_residuals(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(5, 5))
        S = S + S.T
        ladder = sym_eig_desc(S)
        recon = (ladder.vectors * ladder.values) @ ladder.vectors.T
        assert np.abs(recon - S).max() <= 1e-7
        norm = np.linalg.norm(S, 2)
        for i in range(5):
            v = ladder.vectors[:, i]
            assert np.linalg.norm(S @ v - ladder.values[i] * v) <= 1e-7 * (1 + norm)

    def test_trace_matches_value_sum(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(8, 8))
        S = S + S.T
        ladder = sym_eig_desc(S)
        assert abs(ladder.values.sum() - ladder.full_trace) <= 1e-6 * abs(ladder.full_trace)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(10, 10))
        S = S + S.T
        ladder = sym_eig_desc(S, 4)
        assert np.abs(ladder.vectors.T @ ladder.vectors - np.eye(4)).max() <= 1e-8

    def test_values_only(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(9, 9))
        S = S + S.T
        full = sym_eig_desc(S)
        only = sym_eig_desc(S, 0)
        assert only.vectors.shape == (9, 0)
        assert only.full_trace == full.full_trace and only.is_full
        assert np.all(np.diff(only.values) <= 0)
        assert np.abs(only.values - full.values).max() <= 1e-12 * np.abs(full.values).max()

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig_desc(np.array([[0.0, 1], [0, 0]]))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sym_eig_desc(np.eye(3), 4)
        with pytest.raises(ValueError):
            sym_eig_desc(np.eye(3), -1)

    def test_sign_canonicalization_deterministic(self):
        rng = np.random.default_rng(3)
        S = rng.normal(size=(6, 6))
        S = S + S.T
        a = sym_eig_desc(S)
        b = sym_eig_desc(S.copy())
        assert a.vectors.tobytes() == b.vectors.tobytes()
        peak = np.argmax(np.abs(a.vectors), axis=0)
        assert np.all(a.vectors[peak, np.arange(6)] > 0)


class TestTrailingMean:
    def test_rank_one_noiseless(self):
        ladder = EigenLadder(np.array([36.0, 0.0]), np.eye(2), 36.0)
        assert trailing_eig_mean(ladder, 1) == 0.0

    def test_simple_average(self):
        ladder = EigenLadder(np.array([70.0, 12.0, 10.0, 8.0]), np.eye(4), 100.0)
        assert trailing_eig_mean(ladder, 1) == 10.0

    def test_r_equals_dim_minus_one(self):
        ladder = EigenLadder(np.array([5.0, 3.0, 0.0]), np.eye(3), 8.0)
        assert trailing_eig_mean(ladder, 2) == 0.0

    def test_more_values_than_dim_rejected(self):
        with pytest.raises(ValueError, match="dim=2"):
            EigenLadder(np.array([5.0, 3.0, 1.0]), np.eye(3), 9.0, 2)

    def test_r_too_large(self):
        ladder = EigenLadder(np.array([5.0, 3.0]), np.eye(2), 8.0)
        with pytest.raises(ValueError):
            trailing_eig_mean(ladder, 2)

    def test_matches_explicit_complement_trace(self):
        # shortcut == (1/(d-r)) tr(Vc^T S Vc) built from the trailing vectors
        rng = np.random.default_rng(4)
        for d in (10, 30, 50):
            S = rng.normal(size=(d, d))
            S = S + S.T
            ladder = sym_eig_desc(S)
            r = 3
            Vc = ladder.vectors[:, r:]
            explicit = np.trace(Vc.T @ S @ Vc) / (d - r)
            assert abs(trailing_eig_mean(ladder, r) - explicit) <= 1e-8 * max(1, abs(explicit))


class TestSingularValuesFromEigs:
    def test_exact_rank_one(self):
        vals, clamped = singular_values_from_eigs([36.0], 0.0, 1.0)
        assert vals.tolist() == [6.0] and clamped == 0

    def test_negative_radicand_clamps_with_warning(self):
        with pytest.warns(ClampWarning):
            vals, clamped = singular_values_from_eigs([9.0], 13.0, 0.5)
        assert vals.tolist() == [0.0] and clamped == 1

    def test_divide_by_p(self):
        vals, _ = singular_values_from_eigs([25.0, 16.0], 0.0, 0.5)
        assert vals.tolist() == [10.0, 8.0]

    def test_zero_p_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            singular_values_from_eigs([1.0], 0.0, 0.0)


class TestEstimate:
    def test_rank_one_exact(self):
        u = np.array([0.6, 0.8])
        v = np.array([0.0, 1.0])
        est = estimate_singular_triplets(_full(6.0 * np.outer(u, v)), 1)
        assert abs(est.lambda_hat[0] - 6.0) <= 1e-10
        assert np.allclose(np.abs(est.V_hat[:, 0]), v, atol=1e-10)
        assert np.allclose(np.abs(est.U_hat[:, 0]), u, atol=1e-10)
        assert est.p_hat == 1.0

    def test_rank_two_recovers_svd(self):
        # oracle: direct SVD of the dense matrix
        rng = np.random.default_rng(5)
        U = _random_orthonormal(rng, 8, 2)
        V = _random_orthonormal(rng, 5, 2)
        lam = np.array([9.0, 4.0])
        M0 = (U * lam) @ V.T
        est = estimate_singular_triplets(_full(M0), 2)
        sv = np.linalg.svd(M0, compute_uv=False)[:2]
        assert np.abs(est.lambda_hat - sv).max() <= 1e-8 * sv.max()
        from specmc import sin_theta_sq
        assert sin_theta_sq(est.V_hat, V) <= 1e-8
        assert sin_theta_sq(est.U_hat, U) <= 1e-8

    def test_lambda_descending_nonnegative(self):
        rng = np.random.default_rng(6)
        dense = rng.normal(size=(12, 7))
        obs = ObservedMatrix.from_mask(dense, rng.random((12, 7)) < 0.7)
        est = estimate_singular_triplets(obs, 3)
        assert np.all(np.diff(est.lambda_hat) <= 0)
        assert np.all(est.lambda_hat >= 0)
        assert np.abs(est.U_hat.T @ est.U_hat - np.eye(3)).max() <= 1e-8
        assert np.abs(est.V_hat.T @ est.V_hat - np.eye(3)).max() <= 1e-8

    def test_entry_order_invariance(self):
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(9, 6))
        mask = rng.random((9, 6)) < 0.6
        obs = ObservedMatrix.from_mask(dense, mask)
        perm = rng.permutation(obs.nnz)
        shuffled = ObservedMatrix(9, 6, obs.rows[perm], obs.cols[perm], obs.vals[perm])
        a = estimate_singular_triplets(obs, 2)
        b = estimate_singular_triplets(shuffled, 2)
        assert a.lambda_hat.tobytes() == b.lambda_hat.tobytes()
        assert a.V_hat.tobytes() == b.V_hat.tobytes()

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(10, 5))
        obs = ObservedMatrix.from_mask(dense, rng.random((10, 5)) < 0.5)
        a = estimate_singular_triplets(obs, 2)
        b = estimate_singular_triplets(obs, 2)
        assert a.U_hat.tobytes() == b.U_hat.tobytes()
        assert a.lambda_hat.tobytes() == b.lambda_hat.tobytes()

    def test_rank_out_of_range(self):
        obs = _full(np.eye(3))
        with pytest.raises(ValueError):
            estimate_singular_triplets(obs, 3)
        with pytest.raises(ValueError):
            estimate_singular_triplets(obs, 0)

    @pytest.mark.parametrize("rank", [2.0, 2.7, True, np.bool_(True), "2", None])
    def test_non_integer_rank_rejected(self, rank):
        # 2.0 and 2.7 reached ARPACK, which failed with a SystemError
        _, obs = generate_instance(SimConfig(n=60, p=0.5, sigma=1.0, replicates=1,
                                             seed=3), 0)
        with pytest.raises(ValueError, match="rank must be an integer"):
            estimate_singular_triplets(obs, rank)

    def test_numpy_integer_rank_accepted(self):
        _, obs = generate_instance(SimConfig(n=60, p=0.5, sigma=1.0, replicates=1,
                                             seed=3), 0)
        a = estimate_singular_triplets(obs, np.int64(2))
        b = estimate_singular_triplets(obs, 2)
        assert a.lambda_hat.tobytes() == b.lambda_hat.tobytes()

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_singular_triplets(ObservedMatrix(4, 3, [], [], []), 1)

    @pytest.mark.parametrize("rank", [1, "auto"])
    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_bad_c_const_rejected_on_entry(self, monkeypatch, rank, c):
        # checked before the observed fraction is taken, at any rank
        monkeypatch.setattr(spectral, "observed_fraction", None)
        with pytest.raises(ValueError, match="c_const must be positive and finite"):
            estimate_singular_triplets(_full(np.eye(3)), rank, c)

    def test_ladders_carry_full_spectrum(self):
        # the right ladder is the full spectrum; the left one holds the top
        # `rank` values of the n x n gram
        obs = _full(np.arange(12.0).reshape(4, 3))
        est = estimate_singular_triplets(obs, 1)
        assert est.right_ladder.dim == 3 and est.right_ladder.is_full
        assert est.left_ladder.dim == 4 and not est.left_ladder.is_full
        assert est.left_ladder.values.shape == (1,)
        assert est.left_ladder.vectors.shape == (4, 1)
        assert est.right_ladder.vectors.shape == (3, 1)


def _sparse_case(seed, n, d, p):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d))
    mask = rng.random((n, d)) < p
    mask[np.arange(n), rng.integers(0, d, n)] = True  # no empty rows
    return ObservedMatrix.from_mask(dense, mask)


# (seed, n, d, p): tall, wide and 2-5-row shapes
_PIN_CASES = [(11, 40, 6, 0.6), (12, 60, 9, 0.3), (13, 6, 40, 0.6),
              (14, 9, 70, 0.25), (15, 2, 5, 0.8), (16, 3, 7, 0.7),
              (17, 4, 4, 1.0), (18, 5, 3, 0.9), (19, 5, 12, 0.5)]


class TestTopGramEigenpairs:
    """Lanczos top-k eigenpairs pinned to a dense eigh of the formed gram."""

    @staticmethod
    def _assert_matches(top, dense):
        k = top.values.size
        assert sin_theta_sq(top.vectors, dense.vectors[:, :k]) <= 1e-12
        scale = max(abs(dense.values[0]), 1e-300)
        assert np.abs(top.values - dense.values[:k]).max() <= 1e-10 * scale
        assert top.dim == dense.dim
        assert abs(top.full_trace - dense.full_trace) <= 1e-12 * max(abs(dense.full_trace), 1)

    @pytest.mark.parametrize("seed,n,d,p", _PIN_CASES)
    def test_left_debiased_matches_dense(self, seed, n, d, p):
        obs = _sparse_case(seed, n, d, p)
        p_hat = observed_fraction(obs)
        dense = sym_eig_desc(bias_adjust(gram_right(obs.transpose()), p_hat))
        for k in range(1, min(n, d)):
            self._assert_matches(top_gram_eigenpairs(obs.to_csr(), k, p_hat), dense)

    @pytest.mark.parametrize("seed,n,d,p", _PIN_CASES)
    def test_right_unadjusted_matches_dense(self, seed, n, d, p):
        obs = _sparse_case(seed, n, d, p)
        dense = sym_eig_desc(gram_right(obs))
        for k in range(1, min(n, d)):
            self._assert_matches(top_gram_eigenpairs(obs.to_csr().T, k), dense)

    @pytest.mark.parametrize("seed,n,d,p,empty_col",
                             [(*case, None) for case in _PIN_CASES] + [(23, 30, 8, 0.5, 3)])
    def test_right_debiased_matches_dense(self, seed, n, d, p, empty_col):
        obs = _sparse_case(seed, n, d, p)
        if empty_col is not None:
            keep = obs.cols != empty_col
            obs = ObservedMatrix(n, d, obs.rows[keep], obs.cols[keep], obs.vals[keep])
        p_hat = observed_fraction(obs)
        dense = sym_eig_desc(bias_adjust(gram_right(obs), p_hat))
        for k in range(1, min(n, d)):
            self._assert_matches(top_gram_eigenpairs(obs.to_csr().T, k, p_hat), dense)

    def test_rank_one_four_by_two(self):
        # the ones vector is orthogonal to u, so it lies in the gram's null
        # space: as a start vector it hits ARPACK's "starting vector is zero"
        u = np.array([1.0, 2.0, -1.0, -2.0])
        obs = _full(np.outer(u, [3.0, 1.0]))
        top = top_gram_eigenpairs(obs.to_csr(), 1, 1.0)
        self._assert_matches(top, sym_eig_desc(gram_right(obs.transpose())))
        assert np.abs(top.vectors[:, 0] - u / np.sqrt(10.0)).max() <= 1e-12
        assert abs(top.values[0] - 100.0) <= 1e-12 * 100.0

    def test_exact_rank_one_full_observation(self):
        rng = np.random.default_rng(20)
        u = rng.normal(size=30)
        v = rng.normal(size=8)
        obs = _full(np.outer(u, v))
        est = estimate_singular_triplets(obs, 1)
        lam = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(est.left_ladder.values[0] - lam**2) <= 1e-10 * lam**2
        assert sin_theta_sq(est.U_hat, (u / np.linalg.norm(u))[:, None]) <= 1e-12
        assert abs(est.lambda_hat[0] - lam) <= 1e-10 * lam

    def test_k_out_of_range(self):
        X = _full(np.eye(3)).to_csr()
        for k in (0, 3):
            with pytest.raises(ValueError, match="k must be"):
                top_gram_eigenpairs(X, k)

    @staticmethod
    def _converted_operator(X, k, p_hat):
        """The former operator: a transposed CSR copy of X and the row sums
        of X.multiply(X), with the same Lanczos call."""
        from scipy.sparse.linalg import LinearOperator, eigsh
        dim = X.shape[0]
        Xt = X.T.tocsr()
        rowsq = np.asarray(X.multiply(X).sum(axis=1), dtype=np.float64).ravel()
        shift = (1.0 - p_hat) * rowsq
        op = LinearOperator((dim, dim), dtype=np.float64,
                            matvec=lambda x: X @ (Xt @ np.ravel(x)) - shift * np.ravel(x))
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        w, Q = eigsh(op, k=k, which="LA", v0=v0, tol=0, rng=0)
        order = np.argsort(w, kind="stable")[::-1]
        return w[order], _canonical_signs(Q[:, order]), p_hat * float(rowsq.sum())

    @pytest.mark.parametrize("shape", ["ml", "cli", "sim"])
    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_byte_identical_to_converted_operator(self, workload_obs, shape, k):
        obs = workload_obs(shape)
        p_hat = observed_fraction(obs)
        X = obs.to_csr()
        for side in (X, X.T):
            top = top_gram_eigenpairs(side, k, p_hat)
            values, vectors, trace = self._converted_operator(side, k, p_hat)
            assert top.values.tobytes() == values.tobytes()
            assert top.vectors.tobytes() == vectors.tobytes()
            assert top.full_trace == trace

    def test_byte_identical_across_calls_and_threads(self):
        config = SimConfig(n=300, d=20, p=0.4, sigma=1.0, true_rank=3,
                           replicates=1, seed=21)
        _, obs = generate_instance(config, 0)

        def run(_):
            est = estimate_singular_triplets(obs, 3)
            signs = resolve_signs_heuristic(est, obs)
            return (est.U_hat.tobytes(), est.left_ladder.values.tobytes(),
                    est.V_hat.tobytes(), est.lambda_hat.tobytes(), est.tau_hat,
                    signs.tobytes())

        first = run(None)
        assert all(run(None) == first for _ in range(3))
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert all(out == first for out in pool.map(run, range(6)))

    def test_tall_sparse_never_forms_left_gram(self):
        # the dense 6000 x 6000 left gram alone would take 288 MB
        config = SimConfig(n=6000, d=60, p=0.05, sigma=1.0, true_rank=3,
                           replicates=1, seed=22)
        _, obs = generate_instance(config, 0)
        tracemalloc.start()
        try:
            est = estimate_singular_triplets(obs, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # eigenpair residuals of the debiased left gram, applied sparsely
        M = obs.to_csr()
        U, mu = est.U_hat, est.left_ladder.values
        rowsq = np.bincount(obs.rows, weights=obs.vals**2, minlength=obs.n_rows)
        GU = M @ (M.T @ U) - (1 - est.p_hat) * rowsq[:, None] * U
        assert np.abs(GU - U * mu).max() <= 1e-10 * mu[0]
        assert np.abs(U.T @ U - np.eye(3)).max() <= 1e-12


# (seed, n, d, p, rank): tall, wide and square rank-r signal plus noise
_RIGHT_CASES = [(31, 400, 60, 0.3, 3), (32, 80, 500, 0.2, 2), (33, 200, 200, 0.1, 4)]
# n * d^2 / nnz is about 126 (the sim shape), 67 and 1200, against
# _DENSE_RIGHT = 200: the first two take the dense right path, the third the
# Lanczos one. _RIGHT_CASES[0] sits at 200, the other two near 2000-2500.
_SIDE_CASES = [(35, 1000, 63, 0.5, 2), (36, 2000, 40, 0.6, 3), (37, 6000, 60, 0.05, 3)]
_PATHS = ([(case, True) for case in _SIDE_CASES[:2]]
          + [(case, False) for case in _SIDE_CASES[2:] + _RIGHT_CASES[1:]])


def _estimate_bytes(est):
    return [a.tobytes() for a in (est.U_hat, est.V_hat, est.lambda_hat,
                                  est.left_ladder.values)] + [est.tau_hat]


def _signal_case(seed, n, d, p, rank):
    config = SimConfig(n=n, d=d, p=p, sigma=1.0, true_rank=rank, replicates=1,
                       seed=seed)
    return generate_instance(config, 0)[1]


class TestMatrixFreeRight:
    """Both right paths pinned to the dense debiased right gram."""

    @pytest.mark.parametrize("case,dense", _PATHS)
    def test_path_follows_shape(self, case, dense, monkeypatch):
        obs = _signal_case(*case)
        ratio = obs.n_rows * obs.n_cols**2 / obs.nnz
        assert max(ratio / _DENSE_RIGHT, _DENSE_RIGHT / ratio) > 1.5
        calls = []

        def counted(o):
            calls.append(o.shape)
            return gram_right(o)

        monkeypatch.setattr(spectral, "gram_right", counted)
        # one block is zero-imputed and its gram formed inline, without gram_right
        one_block = dense and obs.n_rows * obs.n_cols <= _BLOCK_CELLS
        estimate_singular_triplets(obs, case[-1])
        assert len(calls) == int(dense and not one_block)
        calls.clear()
        estimate_singular_triplets(obs, "auto")
        # one gram: r_hat's, and V_hat's on the dense path
        assert calls == ([] if one_block else [obs.shape])

    @pytest.mark.parametrize("seed,n,d,p,rank", _RIGHT_CASES + _SIDE_CASES)
    def test_matches_dense_reference(self, seed, n, d, p, rank):
        obs = _signal_case(seed, n, d, p, rank)
        est = estimate_singular_triplets(obs, rank)
        dense = sym_eig_desc(bias_adjust(gram_right(obs), est.p_hat))
        tau = trailing_eig_mean(dense, rank)
        lam, _ = singular_values_from_eigs(dense.values[:rank], tau, est.p_hat)
        assert abs(est.tau_hat - tau) <= 1e-12 * abs(tau)
        assert np.all(np.abs(est.lambda_hat - lam) <= 1e-12 * lam)
        assert np.abs(est.V_hat - dense.vectors[:, :rank]).max() <= 1e-12

    @pytest.mark.parametrize("seed,n,d,p,rank", _RIGHT_CASES + _SIDE_CASES)
    def test_right_ladder_is_full_and_kept(self, seed, n, d, p, rank):
        obs = _signal_case(seed, n, d, p, rank)
        est = estimate_singular_triplets(obs, rank)
        ladder = est.right_ladder
        assert ladder.is_full and ladder.dim == d
        assert ladder.values.tobytes() == right_ladder(obs).values.tobytes()
        if n * d * d <= _DENSE_RIGHT * obs.nnz:  # the estimator kept its ladder
            assert est.right_ladder is ladder
        else:  # none was formed: each read forms the same bytes
            assert est.right_ladder.values.tobytes() == ladder.values.tobytes()
        assert ladder.vectors is est.V_hat
        auto = estimate_singular_triplets(obs, "auto")
        assert auto.rank == rank
        assert auto.right_ladder.values.tobytes() == ladder.values.tobytes()
        assert auto.right_ladder.vectors.tobytes() == est.V_hat.tobytes()

    def test_right_ladder_needs_observations(self):
        # the Lanczos path keeps no ladder, so a read forms one from obs
        est = estimate_singular_triplets(_signal_case(*_RIGHT_CASES[2]), 4)
        detached = dataclasses.replace(est, obs=None)
        with pytest.raises(ValueError, match="observations"):
            detached.right_ladder

    @pytest.mark.parametrize("case", [_SIDE_CASES[0], _RIGHT_CASES[2]])  # dense, Lanczos
    def test_nothing_set_after_construction(self, case):
        obs = _signal_case(*case)
        obs_fields = dict(vars(obs))
        est = estimate_singular_triplets(obs, case[-1])
        est_fields = dict(vars(est))
        cm = complete(obs, est)
        build_report(cm)
        cm.to_dict()
        assert est.right_ladder.values.tobytes() == est.right_ladder.values.tobytes()
        for instance, before in ((obs, obs_fields), (est, est_fields)):
            after = vars(instance)
            assert after.keys() == before.keys()
            assert all(after[name] is value for name, value in before.items())

    def test_wide_sparse_never_forms_right_gram(self):
        # the dense 6000 x 6000 right gram alone would take 288 MB
        obs = _signal_case(34, 300, 6000, 0.01, 3)
        tracemalloc.start()
        try:
            est = estimate_singular_triplets(obs, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # eigenpair residuals of the debiased right gram, applied sparsely
        M = obs.to_csr()
        V = est.V_hat
        mu = est.lambda_hat**2 * est.p_hat**2 + est.tau_hat
        colsq = np.bincount(obs.cols, weights=obs.vals**2, minlength=obs.n_cols)
        GV = M.T @ (M @ V) - (1 - est.p_hat) * colsq[:, None] * V
        assert np.abs(GV - V * mu).max() <= 1e-10 * mu[0]
        assert np.abs(V.T @ V - np.eye(3)).max() <= 1e-12


# (seed, n, d, p, rank) on the one-block dense path (n * d <= _BLOCK_CELLS):
# the sim shape, a small tall shape and a sparse, very thin one
_DENSE_LEFT_CASES = [(41, 1000, 63, 0.5, 2), (42, 400, 40, 0.25, 2),
                     (43, 6000, 10, 0.06, 2)]


class TestDenseLeft:
    """The left Lanczos on the zero-imputed dense matrix, pinned to the CSR
    operator and to a dense eigh of the debiased left gram."""

    @pytest.mark.parametrize("seed,n,d,p,rank", _DENSE_LEFT_CASES)
    def test_matches_csr_operator_and_dense_eigh(self, seed, n, d, p, rank):
        obs = _signal_case(seed, n, d, p, rank)
        assert n * d <= _BLOCK_CELLS
        p_hat = observed_fraction(obs)
        refs = [top_gram_eigenpairs(obs.to_csr(), rank + 2, p_hat)]
        # the 6000 x 6000 gram is left out: its eigh takes ~20 s and ~600 MB
        if n <= 1000:
            left_gram = bias_adjust(gram_right(obs.transpose()), p_hat)
            refs.append(sym_eig_desc(left_gram, rank + 2))
        top = top_gram_eigenpairs(obs.to_dense(), rank + 2, p_hat)
        for ref in refs:
            k = top.values.size
            assert np.abs(top.values - ref.values[:k]).max() <= 1e-12 * ref.values[0]
            for j in range(k):
                assert sin_theta_sq(top.vectors[:, [j]], ref.vectors[:, [j]]) <= 1e-12
            assert abs(top.full_trace - ref.full_trace) <= 1e-12 * ref.full_trace
            assert top.dim == ref.dim == n

    def test_row_norms_of_every_input_kind(self):
        from scipy.sparse import csr_matrix
        obs = _signal_case(*_DENSE_LEFT_CASES[1])
        p_hat = observed_fraction(obs)
        traces = {kind: top_gram_eigenpairs(X, 2, p_hat).full_trace
                  for kind, X in (("dense", obs.to_dense()), ("csr_array", obs.to_csr()),
                                  ("csr_matrix", csr_matrix(obs.to_csr())))}
        ref = p_hat * float((obs.vals**2).sum())
        assert all(abs(t - ref) <= 1e-12 * ref for t in traces.values()), traces

    @pytest.mark.parametrize("case,dense_left", [(_DENSE_LEFT_CASES[0], True),
                                                 ((44, 20000, 63, 0.5, 2), False)])
    def test_path_follows_cell_count(self, case, dense_left, monkeypatch):
        from scipy.sparse import issparse
        obs = _signal_case(*case)
        n, d = obs.shape
        assert n * d * d <= _DENSE_RIGHT * obs.nnz  # both on the dense right path
        csr_built, operands = [], []
        to_csr, top = ObservedMatrix.to_csr, spectral.top_gram_eigenpairs
        monkeypatch.setattr(ObservedMatrix, "to_csr",
                            lambda self: csr_built.append(self.shape) or to_csr(self))
        monkeypatch.setattr(spectral, "top_gram_eigenpairs",
                            lambda X, *a: operands.append(X) or top(X, *a))
        est = estimate_singular_triplets(obs, case[-1])
        assert len(operands) == 1 and operands[0].shape == (n, d)
        assert issparse(operands[0]) != dense_left
        assert csr_built == ([] if dense_left else [(n, d)])
        assert est.U_hat.shape == (n, case[-1])

    @pytest.mark.parametrize("n", [1000, 1040])  # the sim shape and the one-block edge
    def test_zero_imputes_once(self, n, monkeypatch):
        obs = _signal_case(45, n, 63, 0.5, 2)
        assert n * 63 <= _BLOCK_CELLS < 1041 * 63
        z = np.zeros(obs.shape)
        z[obs.rows, obs.cols] = obs.vals
        assert gram_right(obs).tobytes() == (z.T @ z).tobytes()
        # reference: the right side from gram_right, the left Lanczos on an
        # independently zero-imputed copy
        p_hat = observed_fraction(obs)
        gram = bias_adjust(gram_right(obs), p_hat)
        values = sym_eig_desc(gram, 0)
        right = EigenLadder(values.values, spectral._top_dense_eigvecs(gram, 2),
                            values.full_trace)
        left = top_gram_eigenpairs(z, 2, p_hat)
        tau = trailing_eig_mean(right, 2)
        lam, _ = singular_values_from_eigs(right.values[:2], tau, p_hat)
        ref = [a.tobytes() for a in (left.vectors, right.vectors, lam, left.values)]
        ref += [tau, values.values.tobytes()]

        dense_calls, operands = [], []
        to_dense, top = ObservedMatrix.to_dense, spectral.top_gram_eigenpairs
        monkeypatch.setattr(ObservedMatrix, "to_dense",
                            lambda self: dense_calls.append(to_dense(self)) or dense_calls[-1])
        monkeypatch.setattr(spectral, "top_gram_eigenpairs",
                            lambda X, *a: operands.append(X) or top(X, *a))
        est = estimate_singular_triplets(obs, 2)
        assert _estimate_bytes(est) + [est.right_ladder.values.tobytes()] == ref
        # the gram and the left Lanczos read the one zero-imputed array
        assert len(dense_calls) == 1 and len(operands) == 1
        assert operands[0] is dense_calls[0]
        assert dense_calls[0].tobytes() == z.tobytes()


# (n range, p range) of sim instances on each right path: d = 2 sqrt(n) is
# diagonalised densely where n d^2 <= _DENSE_RIGHT * nnz, about d <= 200 p
_SIM_PATHS = {"dense": ((30, 400), (0.3, 1.0)), "lanczos": ((200, 900), (0.05, 0.12))}
_SIM_DRAW = dict(path=st.sampled_from(sorted(_SIM_PATHS)), n_frac=st.floats(0, 1),
                 p_frac=st.floats(0, 1), r=st.integers(1, 3), sigma=st.floats(0, 2),
                 seed=st.integers(0, 2**16))


def _sim_completion(path, n_frac, p_frac, r, sigma, seed):
    (n_lo, n_hi), (p_lo, p_hi) = _SIM_PATHS[path]
    config = SimConfig(n=round(n_lo + n_frac * (n_hi - n_lo)), p=p_lo + p_frac * (p_hi - p_lo),
                       sigma=sigma, true_rank=r, replicates=1, seed=seed)
    obs = generate_instance(config, 0)[1]
    n, d = obs.shape
    assert (n * d * d <= _DENSE_RIGHT * obs.nnz) == (path == "dense")
    est = estimate_singular_triplets(obs, r)
    return obs, est, complete(obs, est).dense()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(**_SIM_DRAW)
def test_permutation_equivariance(path, n_frac, p_frac, r, sigma, seed):
    # relabelling rows and columns relabels U_hat, V_hat and the completion
    obs, est, dense = _sim_completion(path, n_frac, p_frac, r, sigma, seed)
    rng = np.random.default_rng(seed)
    pr, pc = rng.permutation(obs.n_rows), rng.permutation(obs.n_cols)
    moved = ObservedMatrix(obs.n_rows, obs.n_cols, pr[obs.rows], pc[obs.cols], obs.vals)
    est2 = estimate_singular_triplets(moved, r)
    dense2 = complete(moved, est2).dense()
    assert np.abs(est2.lambda_hat - est.lambda_hat).max() <= 1e-12 * est.lambda_hat.max()
    assert sin_theta_sq(est2.U_hat[pr], est.U_hat) <= 1e-12
    assert sin_theta_sq(est2.V_hat[pc], est.V_hat) <= 1e-12
    assert np.abs(dense2[np.ix_(pr, pc)] - dense).max() <= 1e-12 * np.abs(dense).max()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(c=st.sampled_from([1e3, -1e3, 1e-3, -1e-3]), **_SIM_DRAW)
def test_scale_equivariance(c, path, n_frac, p_frac, r, sigma, seed):
    # values times c scale lambda_hat by |c| and the completion by c
    obs, est, dense = _sim_completion(path, n_frac, p_frac, r, sigma, seed)
    scaled = ObservedMatrix(obs.n_rows, obs.n_cols, obs.rows, obs.cols, obs.vals * c)
    est2 = estimate_singular_triplets(scaled, r)
    dense2 = complete(scaled, est2).dense()
    assert (np.abs(est2.lambda_hat / abs(c) - est.lambda_hat).max()
            <= 1e-12 * est.lambda_hat.max())
    assert np.abs(dense2 / c - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.fixture
def blas_threads():
    """scipy's OpenBLAS (get, set); the test's count is undone afterwards."""
    threads = spectral._scipy_blas_threads()
    if threads is None:
        pytest.skip("scipy's OpenBLAS thread count cannot be set here")
    get, put = threads
    before = get()
    yield get, put
    put(before)


class TestOneBlasThread:
    """Each ARPACK solve holds scipy's OpenBLAS at one thread, then restores
    the caller's count; outputs do not depend on it."""

    @staticmethod
    def _obs():
        # the Lanczos path on both sides: n * d^2 > _DENSE_RIGHT * nnz
        return _signal_case(*_SIDE_CASES[2])

    @staticmethod
    def _count_in_eigsh(monkeypatch, get):
        """Record the thread count as each eigsh call starts and ends."""
        import scipy.sparse.linalg
        seen, eigsh = [], scipy.sparse.linalg.eigsh

        def counted(*args, **kwargs):
            start = get()
            out = eigsh(*args, **kwargs)
            seen.append((start, get()))
            return out

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        return seen

    @pytest.mark.parametrize("count", [1, 2])
    def test_count_restored(self, blas_threads, monkeypatch, count):
        get, put = blas_threads
        seen = self._count_in_eigsh(monkeypatch, get)
        put(count)
        estimate_singular_triplets(self._obs(), 3)
        assert seen == [(1, 1)] * 2  # the right and the left solve
        assert get() == count and spectral._blas_users == 0

    def test_count_restored_when_eigsh_raises(self, blas_threads, monkeypatch):
        import scipy.sparse.linalg
        get, put = blas_threads
        put(2)

        def fail(*args, **kwargs):
            assert get() == 1
            raise RuntimeError("no convergence")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        with pytest.raises(RuntimeError, match="no convergence"):
            estimate_singular_triplets(self._obs(), 3)
        assert get() == 2 and spectral._blas_users == 0

    def test_overlapping_solves_match_serial(self, blas_threads, monkeypatch):
        get, put = blas_threads
        put(2)
        obs = [self._obs(), _signal_case(*_RIGHT_CASES[2])]
        serial = [_estimate_bytes(estimate_singular_triplets(o, 3)) for o in obs]
        seen = self._count_in_eigsh(monkeypatch, get)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often inside the scope
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:  # more threads than cores
                futures = [pool.submit(estimate_singular_triplets, obs[i % 2], 3)
                           for i in range(8)]
                out = [_estimate_bytes(f.result(timeout=120)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert out == [serial[i % 2] for i in range(8)]
        # no solve ran on two threads, even while another one was leaving
        assert seen == [(1, 1)] * 16
        assert get() == 2 and spectral._blas_users == 0

    def test_outputs_without_the_setter(self, blas_threads, monkeypatch):
        get, put = blas_threads
        put(2)
        obs = self._obs()
        scoped = _estimate_bytes(estimate_singular_triplets(obs, 3))
        seen = self._count_in_eigsh(monkeypatch, get)
        monkeypatch.setattr(spectral, "_scipy_blas_threads", lambda: None)
        assert _estimate_bytes(estimate_singular_triplets(obs, 3)) == scoped
        assert seen == [(2, 2)] * 2
