"""Gram matrices of the zero-imputed data and their diagonal debiasing.

With missing cells set to zero, the gram matrices M^T M and M M^T pick up a
diagonal distortion proportional to (1 - p) plus a noise shift; rescaling the
diagonal by the observed fraction removes the distortion so that the leading
eigenvectors estimate the clean singular vectors. The expected-gram helpers
evaluate the exact finite-sample means and exist for oracle tests.
"""

import numpy as np


def _gram_accumulate(row_ptr, cols, vals, dim):
    # For each row of the sparse structure, add the outer product of that
    # row's observed support. Rows are visited in order, so every output cell
    # receives one addend per row, in row order. The per-call overhead stays
    # low on tiny inputs, where a sparse-matrix product costs several times more.
    g = np.zeros((dim, dim))
    for k in range(row_ptr.size - 1):
        lo, hi = row_ptr[k], row_ptr[k + 1]
        if hi > lo:
            c = cols[lo:hi]
            v = vals[lo:hi]
            g[np.ix_(c, c)] += np.outer(v, v)
    return g


def observed_fraction(obs):
    """Fraction of observed cells, |entries| / (n * d)."""
    n, d = obs.shape
    if n * d == 0:
        raise ValueError("zero-size matrix has no observed fraction")
    return obs.nnz / (n * d)


def gram_right(obs):
    """M^T M of the zero-imputed matrix, (d, d), exactly symmetric."""
    return _gram_accumulate(obs.row_ptr(), obs.cols, obs.vals, obs.n_cols)


def gram_left(obs):
    """M M^T of the zero-imputed matrix, (n, n), exactly symmetric.

    The estimator never forms it (see spectral.top_gram_eigenpairs); it is
    the dense reference that tests compare against.
    """
    t = obs.transpose()
    return _gram_accumulate(t.row_ptr(), t.cols, t.vals, t.n_cols)


def bias_adjust(gram, p_hat):
    """Rescale the gram diagonal by p_hat; off-diagonal untouched."""
    if not (0 <= p_hat <= 1):
        raise ValueError(f"p_hat must be in [0, 1], got {p_hat}")
    out = np.array(gram, dtype=np.float64, copy=True)
    idx = np.arange(out.shape[0])
    out[idx, idx] *= p_hat
    return out


def expected_gram_right(truth):
    """Exact mean of gram_right under the Bernoulli/noise model (oracle)."""
    G = truth.M0.T @ truth.M0
    n, d = truth.shape
    p, s2 = truth.p, truth.sigma**2
    return p**2 * G + p * (1 - p) * np.diag(np.diag(G)) + n * p * s2 * np.eye(d)


def expected_gram_left(truth):
    """Exact mean of gram_left under the Bernoulli/noise model (oracle)."""
    G = truth.M0 @ truth.M0.T
    n, d = truth.shape
    p, s2 = truth.p, truth.sigma**2
    return p**2 * G + p * (1 - p) * np.diag(np.diag(G)) + d * p * s2 * np.eye(n)
