"""Closed-form kernels pinned to dense brute-force references.

The sign scan evaluates every candidate's observed-cell residual from
P^T y and P^T P, and the heuristic takes the sign of P^T y alone; the
inference sums S come from the gram matrices of the row-wise Kronecker
squares of the factors, and the energy variance from the covariance they
give. All are checked here against direct evaluation over the cells.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specmc import (GroundTruth, ObservedMatrix, assemble,
                    enumerate_sign_residuals, estimate_singular_triplets,
                    resolve_signs_exhaustive, resolve_signs_heuristic,
                    squared_sv_sum_variance)
from specmc.inference import pair_m2_sums
from specmc.gram import crossprod
from specmc.signs import sign_candidates
from specmc.spectral import EigenLadder, SpectralEstimate


def _estimate(U, V, lam):
    """SpectralEstimate carrying the given factors; the left ladder is unused."""
    (n, r), d = U.shape, V.shape[0]
    return SpectralEstimate(
        U_hat=U, V_hat=V, lambda_hat=lam, p_hat=0.5, tau_hat=0.0, rank=r,
        left_ladder=EigenLadder(np.zeros(r), np.eye(n, r), 0.0, dim=n),
    )


def _brute_residuals(est, obs):
    """||P s - y||^2 per candidate, from the dense completed matrix."""
    out = []
    for s in itertools.product((1.0, -1.0), repeat=est.rank):
        dense = (est.U_hat * (np.array(s) * est.lambda_hat)) @ est.V_hat.T
        diff = dense[obs.rows, obs.cols] - obs.vals
        out.append(float(diff @ diff))
    return np.array(out)


def _block_residuals(est, obs, block=4096):
    """The block formula the sparse products replaced: the gram of [P | y]
    summed over blocks of cells gathered from U_hat and V_hat."""
    r = est.rank
    G = np.zeros((r + 1, r + 1))
    for start in range(0, obs.nnz, block):
        cells = slice(start, start + block)
        rows, cols = obs.rows[cells], obs.cols[cells]
        Q = np.empty((rows.size, r + 1))
        np.multiply(est.U_hat[rows], est.V_hat[cols], out=Q[:, :r])
        Q[:, :r] *= est.lambda_hat
        Q[:, r] = obs.vals[cells]
        G += crossprod(Q)
    cand = sign_candidates(r)
    quad = ((cand @ G[:r, :r]) * cand).sum(axis=1)
    return cand, G[r, r] - 2.0 * (cand @ G[:r, r]) + quad


def _gathered_linear_term(est, obs):
    """P^T y cell by cell: sum_t y_t lambda_i U_hat[row_t, i] V_hat[col_t, i]."""
    P = est.lambda_hat * est.U_hat[obs.rows] * est.V_hat[obs.cols]
    return obs.vals @ P


def _brute_pair_sums(U, V, coef):
    """Explicit double sum over every cell of the dense (U c) V^T."""
    M = (U * coef) @ V.T
    return np.einsum("kh,ki,hi,kj,hj->ij", M**2, U, V, U, V)


def _brute_energy_variance(U, V, b, coef, p, noise_var, m):
    """4(1-p)/p {sum_kh M_kh^2 (sum_{i<=m} b_i U_ki V_hi)^2 - (sum_{i<=m} b_i^2)^2}
    + 4 noise_var/p sum_{i<=m} b_i^2, one cell at a time."""
    M = (U * coef) @ V.T
    acc = 0.0
    for k in range(M.shape[0]):
        for h in range(M.shape[1]):
            acc += M[k, h] ** 2 * sum(b[i] * U[k, i] * V[h, i] for i in range(m)) ** 2
    b2 = sum(b[i] ** 2 for i in range(m))
    return 4 * (1 - p) / p * (acc - b2**2) + 4 * noise_var / p * b2


def _random_problem(rng, n, d, r, frac):
    dense = rng.normal(size=(n, d))
    obs = ObservedMatrix.from_mask(dense, rng.random((n, d)) < frac)
    U = np.linalg.qr(rng.normal(size=(n, r)))[0]
    V = np.linalg.qr(rng.normal(size=(d, r)))[0]
    lam = np.sort(rng.uniform(0.5, 3.0, r))[::-1] * np.sqrt(n * d)
    return obs, _estimate(U, V, lam)


class TestSignCandidates:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_lexicographic_plus_first(self, r):
        ref = np.array(list(itertools.product((1.0, -1.0), repeat=r)))
        cand = sign_candidates(r)
        assert cand.dtype == np.float64
        assert np.array_equal(cand, ref)


class TestSignResiduals:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 12])
    def test_matches_brute_force(self, r):
        rng = np.random.default_rng(100 + r)
        obs, est = _random_problem(rng, 30, 20, r, 0.5)
        cand, res = enumerate_sign_residuals(est, obs)
        assert np.array_equal(cand, sign_candidates(r))
        tol = 1e-12 * float(obs.vals @ obs.vals)
        assert np.abs(res - _brute_residuals(est, obs)).max() <= tol

    @pytest.mark.parametrize("r", [1, 3, 12])
    def test_matches_brute_force_on_estimates(self, r):
        rng = np.random.default_rng(200 + r)
        A, B = rng.uniform(-2, 2, (40, r)), rng.uniform(-2, 2, (25, r))
        dense = A @ B.T + rng.normal(size=(40, 25))
        obs = ObservedMatrix.from_mask(dense, rng.random((40, 25)) < 0.6)
        est = estimate_singular_triplets(obs, r)
        _, res = enumerate_sign_residuals(est, obs)
        tol = 1e-12 * float(obs.vals @ obs.vals)
        assert np.abs(res - _brute_residuals(est, obs)).max() <= tol

    @pytest.mark.parametrize("nnz", [4095, 4096, 4097, 8209])
    def test_cell_blocks(self, nnz):
        # cell counts around the 4096-cell blocks of the former kernel
        rng = np.random.default_rng(300 + nnz)
        n, d, r = 120, 80, 3
        cells = rng.permutation(n * d)[:nnz]
        obs = ObservedMatrix(n, d, cells // d, cells % d, rng.normal(size=nnz))
        _, est = _random_problem(rng, n, d, r, 0.5)
        _, res = enumerate_sign_residuals(est, obs)
        tol = 1e-12 * float(obs.vals @ obs.vals)
        assert np.abs(res - _brute_residuals(est, obs)).max() <= tol

    @pytest.mark.parametrize("shape", ["ml", "cli", "sim"])
    @pytest.mark.parametrize("r", [2, 3, 12])
    def test_matches_block_formula(self, workload_obs, shape, r):
        # the sparse products against the gathered-block kernel they replaced
        obs = workload_obs(shape)
        est = estimate_singular_triplets(obs, r)
        cand, res = enumerate_sign_residuals(est, obs)
        ref_cand, ref = _block_residuals(est, obs)
        assert np.array_equal(cand, ref_cand)
        assert np.argmin(res) == np.argmin(ref)
        assert np.abs(res - ref).max() <= 1e-12 * float(obs.vals @ obs.vals)

    def test_zero_lambda_ties_pick_plus_one(self):
        rng = np.random.default_rng(7)
        obs, est = _random_problem(rng, 30, 20, 4, 0.5)
        lam = est.lambda_hat.copy()
        lam[[1, 3]] = 0.0
        zeroed = dataclasses.replace(est, lambda_hat=lam)
        _, res = enumerate_sign_residuals(zeroed, obs)
        # candidates that differ only at zero-lambda factors tie exactly
        assert np.unique(res).size == 4
        chosen = resolve_signs_exhaustive(zeroed, obs)
        assert chosen[[1, 3]].tolist() == [1.0, 1.0]
        all_zero = dataclasses.replace(est, lambda_hat=np.zeros(4))
        assert resolve_signs_exhaustive(all_zero, obs).tolist() == [1.0] * 4


class TestHeuristicSigns:
    @pytest.mark.parametrize("shape", ["ml", "cli", "sim"])
    @pytest.mark.parametrize("r", [2, 3, 12])
    def test_sign_of_gathered_linear_term(self, workload_obs, shape, r):
        obs = workload_obs(shape)
        est = estimate_singular_triplets(obs, r)
        h = _gathered_linear_term(est, obs)
        # every |h_i| is far above rounding, so its sign is determined
        scale = est.lambda_hat * np.sqrt(obs.vals @ obs.vals)
        assert np.all(np.abs(h) > 1e-6 * scale)
        assert resolve_signs_heuristic(est, obs).tolist() == \
            np.where(h < 0, -1.0, 1.0).tolist()

    def test_clamped_factor_gets_plus_one(self):
        rng = np.random.default_rng(8)
        obs, est = _random_problem(rng, 30, 20, 4, 0.5)
        for i in range(4):
            lam = est.lambda_hat.copy()
            lam[i] = 0.0
            for attr in ("U_hat", "V_hat"):
                Z = getattr(est, attr).copy()
                Z[:, i] = -Z[:, i]
                clamped = dataclasses.replace(est, lambda_hat=lam, **{attr: Z})
                assert resolve_signs_heuristic(clamped, obs)[i] == 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 20), d=st.integers(2, 20), r=st.integers(1, 6),
       frac=st.floats(0.1, 1.0), which=st.integers(0, 5),
       attr=st.sampled_from(["U_hat", "V_hat"]), seed=st.integers(0, 2**32 - 1))
def test_negated_factor_flips_only_its_sign(n, d, r, frac, which, attr, seed):
    r = min(r, n, d)
    i = which % r
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, d)) < frac)
    assume(rows.size > 0)
    obs = ObservedMatrix(n, d, rows, cols, rng.normal(size=rows.size))
    est = _estimate(rng.normal(size=(n, r)), rng.normal(size=(d, r)),
                    rng.uniform(0.1, 2.0, r))
    assume(_gathered_linear_term(est, obs)[i] != 0.0)
    Z = getattr(est, attr).copy()
    Z[:, i] = -Z[:, i]
    flipped = dataclasses.replace(est, **{attr: Z})
    for resolve in (resolve_signs_heuristic, resolve_signs_exhaustive):
        s, s_flipped = resolve(est, obs), resolve(flipped, obs)
        assert s_flipped.tolist() == [-x if j == i else x for j, x in enumerate(s)]
        assert np.array_equal(assemble(flipped, s_flipped).dense(),
                              assemble(est, s).dense())


class TestPairSums:
    @pytest.mark.parametrize("n, d, r", [(1, 1, 1), (7, 3, 1), (12, 9, 2),
                                         (25, 11, 3), (40, 30, 5), (9, 60, 4)])
    def test_matches_brute_force(self, n, d, r):
        rng = np.random.default_rng(n * 1000 + d * 10 + r)
        U, V = rng.normal(size=(n, r)), rng.normal(size=(d, r))
        coef = rng.normal(size=r) * 5
        S = pair_m2_sums(U, V, coef)
        ref = _brute_pair_sums(U, V, coef)
        assert S.shape == (r, r)
        assert np.linalg.norm(S - ref) <= 1e-12 * np.linalg.norm(ref)


class TestEnergyVariance:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_top_m_matches_brute_force(self, m):
        rng = np.random.default_rng(31)
        truth = GroundTruth.from_factors(rng.uniform(-2, 2, (14, 3)),
                                         rng.uniform(-2, 2, (9, 3)), 1.2, 0.6)
        args = (truth.U, truth.V, truth.signal_scales(), truth.lambdas, 0.6, 1.2**2, m)
        got = squared_sv_sum_variance(*args)
        ref = _brute_energy_variance(*args)
        assert abs(got - ref) <= 1e-10 * abs(ref)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 25), d=st.integers(2, 25), r=st.integers(1, 6),
       frac=st.floats(0.05, 1.0), log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_brute_force(n, d, r, frac, log_scale, seed):
    r = min(r, n, d)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n, r))
    V = rng.normal(size=(d, r))
    lam = rng.uniform(0.0, 2.0, r) * 10.0**log_scale
    rows, cols = np.nonzero(rng.random((n, d)) < frac)
    obs = ObservedMatrix(n, d, rows, cols, rng.normal(size=rows.size) * 10.0**log_scale)
    est = _estimate(U, V, lam)

    _, res = enumerate_sign_residuals(est, obs)
    # rounding error scales with the largest term of ||y||^2 - 2 s.g + s^T H s
    P = lam * U[obs.rows] * V[obs.cols]
    scale = float(obs.vals @ obs.vals) + r * float((P**2).sum())
    assert np.abs(res - _brute_residuals(est, obs)).max() <= 1e-12 * max(scale, 1e-300)

    coef = lam * np.where(rng.random(r) < 0.5, -1.0, 1.0)
    ref = _brute_pair_sums(U, V, coef)
    S = pair_m2_sums(U, V, coef)
    assert np.linalg.norm(S - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)
