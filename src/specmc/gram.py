"""Gram matrices of the zero-imputed data and their diagonal debiasing.

With missing cells set to zero, the gram matrices M^T M and M M^T pick up a
diagonal distortion proportional to (1 - p) plus a noise shift; rescaling the
diagonal by the observed fraction removes the distortion so that the leading
eigenvectors estimate the clean singular vectors. The expected-gram helpers
evaluate the exact finite-sample means and exist for oracle tests.
The gram is a blocked dense product, O(n d^2) flops in O(d^2) memory.
"""

import numpy as np


def observed_fraction(obs):
    """Fraction of observed cells, |entries| / (n * d)."""
    n, d = obs.shape
    if n * d == 0:
        raise ValueError("zero-size matrix has no observed fraction")
    return obs.nnz / (n * d)


def crossprod(A):
    """A^T A of a (k, m) matrix, exactly symmetric.

    Computed by scipy's BLAS syrk, the OpenBLAS that ARPACK also calls.
    numpy's matmul would use numpy's own OpenBLAS, and on the sign-scan and
    inference shapes it wakes that library's worker thread, which then
    spins on a core beside the worker ARPACK keeps busy.
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.linalg.blas import dsyrk
    A = np.asarray(A, dtype=np.float64)
    c = dsyrk(1.0, A.T)  # upper triangle; a C-ordered A is passed without a copy
    return np.triu(c) + np.triu(c, 1).T


def gram_right(obs):
    """M^T M of the zero-imputed matrix, (d, d), exactly symmetric.

    Each block Z of at most d zero-imputed rows adds Z^T Z (a BLAS syrk).
    The O(n d^2) flops do not shrink with sparsity, so wide, very sparse
    input is slow here; only requests that read the full right spectrum
    (rank selection, the scree) form it.
    """
    n, d = obs.shape
    g = np.zeros((d, d))
    ptr = obs.row_ptr()
    block = max(d, 1)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        a, b = ptr[lo], ptr[hi]
        z = np.zeros((hi - lo, d))
        z[obs.rows[a:b] - lo, obs.cols[a:b]] = obs.vals[a:b]
        if lo == 0:
            g = z.T @ z  # no d x d temporary when one block covers all rows
        else:
            g += z.T @ z
    return g


def gram_left(obs):
    """M M^T of the zero-imputed matrix, (n, n), exactly symmetric.

    The estimator never forms it (see spectral.top_gram_eigenpairs); it is
    the dense reference that tests compare against.
    """
    return gram_right(obs.transpose())


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
