"""Gram matrices of the zero-imputed data and their diagonal debiasing.

With missing cells set to zero, the gram matrices M^T M and M M^T pick up a
diagonal distortion proportional to (1 - p) plus a noise shift; rescaling the
diagonal by the observed fraction removes the distortion so that the leading
eigenvectors estimate the clean singular vectors. The expected-gram helpers
evaluate the exact finite-sample means and exist for oracle tests.
The gram is a blocked dense product, O(n d^2) flops in O(d^2 + 2^16) memory.
"""

import numpy as np

# cells in one zero-imputed block of gram_right (d rows where d^2 is more),
# so a matrix of at most this many cells is one BLAS call; the estimator
# holds such a matrix densely instead (spectral.estimate_singular_triplets)
_BLOCK_CELLS = 1 << 16


def observed_fraction(obs):
    """Fraction of observed cells, |entries| / (n * d)."""
    n, d = obs.shape
    if n * d == 0:
        raise ValueError("zero-size matrix has no observed fraction")
    return obs.nnz / (n * d)


def crossprod(A):
    """A^T A of a (k, m) matrix, exactly symmetric.

    Computed by scipy's BLAS syrk, the OpenBLAS that ARPACK also calls, so
    a request keeps to one BLAS library. numpy's matmul would use numpy's
    own OpenBLAS, and on the sign-scan and inference shapes it wakes that
    library's worker thread, which then spins on a core for a while after
    the call.
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.linalg.blas import dsyrk
    A = np.asarray(A, dtype=np.float64)
    c = dsyrk(1.0, A.T)  # upper triangle; a C-ordered A is passed without a copy
    return np.triu(c) + np.triu(c, 1).T


def gram_right(obs):
    """M^T M of the zero-imputed matrix, (d, d), exactly symmetric.

    Each block Z of zero-imputed rows adds Z^T Z (a BLAS syrk). A block has
    max(d, _BLOCK_CELLS // d) rows, so memory is O(d^2 + _BLOCK_CELLS), and
    a matrix of at most _BLOCK_CELLS cells is one block. A matrix with no
    rows is one empty block, whose product is the (d, d) zero gram.
    The O(n d^2) flops do not shrink with sparsity, so wide, very sparse
    input is slow here. The estimator forms it only where it is small next
    to the data (spectral._DENSE_RIGHT); elsewhere only requests that read
    the full right spectrum (rank selection, the scree) form it.
    """
    n, d = obs.shape
    ptr = obs.row_ptr()
    block = max(d, _BLOCK_CELLS // max(d, 1))
    for lo in range(0, max(n, 1), block):
        hi = min(lo + block, n)
        a, b = ptr[lo], ptr[hi]
        z = np.zeros((hi - lo, d))
        z[obs.rows[a:b] - lo, obs.cols[a:b]] = obs.vals[a:b]
        if lo == 0:
            g = z.T @ z  # no d x d temporary when one block covers all rows
        else:
            g += z.T @ z
    return g


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
    """Exact mean of M M^T under the Bernoulli/noise model (oracle)."""
    G = truth.M0 @ truth.M0.T
    n, d = truth.shape
    p, s2 = truth.p, truth.sigma**2
    return p**2 * G + p * (1 - p) * np.diag(np.diag(G)) + d * p * s2 * np.eye(n)
