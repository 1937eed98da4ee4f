"""Plug-in asymptotic variances and confidence intervals for singular values.

The covariance of the estimated singular values and the variance of their
summed squares ("energy") are closed-form functionals of the unknown matrix,
its factors, the observation probability and the noise variance; here each
unknown is replaced by its estimate (completed matrix, estimated factors,
observed fraction, noise floor over n * p_hat^2).

Both functionals read the same all-cells sums
S_ij = sum_{k,h} M_kh^2 U_ki V_hi U_kj V_hj of the factor-form matrix
M = U diag(c) V^T. Expanding M_kh^2 separates the row and column indices, so
S comes from the gram matrices of the row-wise Kronecker squares of U and V
in O((n + d) r^4) time and O((n + d) r^2) memory; the n x d matrix is never
formed.
"""

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .gram import crossprod


@dataclass(frozen=True)
class InferenceReport:
    """Per-singular-value variances and confidence intervals."""

    lambda_hat: np.ndarray
    noise_variance: float
    signal_scales: np.ndarray   # lambda_hat / sqrt(n*d)
    covariance: np.ndarray      # raw plug-in covariance, may have negative diagonal
    variances: np.ndarray       # clamped diagonal actually used for the intervals
    energy_variance: float      # variance functional of sum_{i<=m} lambda_hat_i^2
    m: int
    intervals: np.ndarray       # (r, 2) rows of (lower, upper)
    alpha: float

    def to_dict(self):
        return {
            "lambda_hat": self.lambda_hat,
            "noise_variance": self.noise_variance,
            "signal_scales": self.signal_scales,
            "covariance": self.covariance,
            "variances_clamped": self.variances,
            "energy_variance": self.energy_variance,
            "m": self.m,
            "intervals": self.intervals,
            "alpha": self.alpha,
        }


def estimate_noise_variance(tau_hat, p_hat, n):
    """Noise variance from the trailing eigenvalue mean: tau / (n * p_hat^2)."""
    if p_hat <= 0:
        raise ValueError("p_hat must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    return max(tau_hat / (n * p_hat**2), 0.0)


def pair_m2_sums(U, V, coef):
    """S_ij = sum_{k,h} M_kh^2 U_ki V_hi U_kj V_hj for M = U diag(coef) V^T.

    With A, B the row-wise Kronecker squares of U, V (A[k] = U[k] (x) U[k]),
    S = reshape((coef (x) coef) . (A^T A o B^T B)).
    """
    U, V = np.asarray(U, dtype=np.float64), np.asarray(V, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64).ravel()
    r = coef.size
    A = (U[:, :, None] * U[:, None, :]).reshape(U.shape[0], r * r)
    B = (V[:, :, None] * V[:, None, :]).reshape(V.shape[0], r * r)
    return (np.outer(coef, coef).ravel() @ (crossprod(A) * crossprod(B))).reshape(r, r)


def singular_value_covariance(cm, noise_var):
    """Plug-in covariance of the estimated singular values, (r, r) symmetric.

    Off-diagonal (i, j):
        ((1-p)/p) * (sum_{k,h} Mhat_kh^2 U_ki V_hi U_kj V_hj - b_i b_j)
    with noise_var/p added on the diagonal, where b = lambda_hat/sqrt(nd).
    The double sum over all n*d cells is pair_m2_sums of the completed
    matrix's factor form (cm.pair_sums(), computed once per cm).
    """
    est = cm.estimate
    p = est.p_hat
    if p <= 0:
        raise ValueError("p_hat must be positive")
    n, d = est.shape
    b = est.lambda_hat / np.sqrt(n * d)
    cov = (1.0 - p) / p * (cm.pair_sums() - np.outer(b, b))
    cov[np.diag_indices_from(cov)] += noise_var / p
    return (cov + cov.T) / 2.0


def squared_sv_sum_variance(U, V, b, coef, p, noise_var, m):
    """Asymptotic variance of the normalized sum of the m largest squared
    singular values, for a matrix given in factor form (U * coef) V^T.

    4(1-p)/p * { sum_{k,h} M_kh^2 (sum_{i<=m} b_i U_ki V_hi)^2 - (sum_{i<=m} b_i^2)^2 }
      + 4 noise_var / p * sum_{i<=m} b_i^2
    """
    return _energy_variance(pair_m2_sums(U, V, coef), b, p, noise_var, m)


def _energy_variance(S, b, p, noise_var, m):
    # squared_sv_sum_variance given the pair sums S
    b = np.asarray(b, dtype=np.float64).ravel()
    if not (1 <= m <= b.size):
        raise ValueError(f"m must be in [1, {b.size}], got {m}")
    if p <= 0:
        raise ValueError("p must be positive")
    bm = b[:m]
    b2 = float(bm @ bm)
    brace = float(bm @ S[:m, :m] @ bm) - b2**2
    return 4.0 * (1.0 - p) / p * brace + 4.0 * noise_var / p * b2


def squared_sv_sum_variance_plugin(cm, noise_var, m):
    """Plug-in version built from a completed matrix (reads cm.pair_sums())."""
    est = cm.estimate
    n, d = est.shape
    return _energy_variance(cm.pair_sums(), est.lambda_hat / np.sqrt(n * d),
                            est.p_hat, noise_var, m)


def confidence_intervals(est, covariance, alpha):
    """Normal intervals lambda_hat_i +- z_{1-alpha/2} sqrt(max(cov_ii, 0))."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    var = np.clip(np.diag(np.asarray(covariance, dtype=np.float64)), 0.0, None)
    half = z * np.sqrt(var)
    return np.column_stack([est.lambda_hat - half, est.lambda_hat + half])


def build_report(cm, alpha=0.05, m=None):
    """Full inference report for a completed matrix."""
    est = cm.estimate
    n, d = est.shape
    if m is None:
        m = est.rank
    if est.p_hat * n / d < 10:
        warnings.warn(
            f"p_hat*n/d = {est.p_hat * n / d:.2f} < 10; asymptotic variances "
            "may be unreliable at this aspect ratio",
            UserWarning,
            stacklevel=2,
        )
    noise_var = estimate_noise_variance(est.tau_hat, est.p_hat, n)
    cov = singular_value_covariance(cm, noise_var)
    return InferenceReport(
        lambda_hat=est.lambda_hat.copy(),
        noise_variance=float(noise_var),
        signal_scales=est.lambda_hat / np.sqrt(n * d),
        covariance=cov,
        variances=np.clip(np.diag(cov), 0.0, None),
        energy_variance=float(squared_sv_sum_variance_plugin(cm, noise_var, m)),
        m=int(m),
        intervals=confidence_intervals(est, cov, alpha),
        alpha=float(alpha),
    )
