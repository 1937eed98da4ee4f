"""Error measures: subspace distance, factor and matrix MSEs, held-out RMSE,
and the standardized statistic for the summed squared singular values."""

from dataclasses import dataclass

import numpy as np

from .inference import squared_sv_sum_variance
from .signs import predict_entries

_ORTHO_TOL = 1e-8


@dataclass
class MetricRow:
    """Per-replicate metrics; its fields, in order, are simulate's columns."""

    mse_matrix: float
    mse_lambda: float
    mse_v: float
    mse_u: float
    sin2_v: float
    sin2_u: float
    z_stat: float
    r_hat: int
    sign_correct: bool
    n_clamped: int


def _check_orthonormal(Z, name):
    err = np.abs(Z.T @ Z - np.eye(Z.shape[1])).max()
    if err > _ORTHO_TOL:
        raise ValueError(f"{name} columns not orthonormal (err={err:.2e})")


def sin_theta_sq(Z1, Z2):
    """Squared Frobenius sine distance between two column spans.

    Computed as m - ||Z1^T Z2||_F^2, which equals half the squared Frobenius
    distance between the two orthogonal projections.
    """
    Z1 = np.asarray(Z1, dtype=np.float64)
    Z2 = np.asarray(Z2, dtype=np.float64)
    if Z1.shape != Z2.shape:
        raise ValueError(f"shape mismatch: {Z1.shape} vs {Z2.shape}")
    _check_orthonormal(Z1, "Z1")
    _check_orthonormal(Z2, "Z2")
    m = Z1.shape[1]
    return max(m - np.linalg.norm(Z1.T @ Z2) ** 2, 0.0)


def sign_align(V_hat, V):
    """Flip each column of V_hat to have non-negative inner product with V."""
    V_hat = np.asarray(V_hat, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if V_hat.shape != V.shape:
        raise ValueError(f"shape mismatch: {V_hat.shape} vs {V.shape}")
    dots = np.einsum("ki,ki->i", V_hat, V)
    flip = np.where(dots < 0, -1.0, 1.0)
    return V_hat * flip


def frobenius_mse(A, B, normalizer):
    """||A - B||_F^2 / normalizer."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if normalizer <= 0:
        raise ValueError("normalizer must be positive")
    return float(((A - B) ** 2).sum()) / normalizer


def rmse_on_omega(cm, test):
    """Root mean squared prediction error over the test set's observed cells."""
    if test.nnz == 0:
        raise ValueError("empty test set")
    if cm.shape != test.shape:
        raise ValueError(f"shape mismatch: {cm.shape} vs {test.shape}")
    pred = predict_entries(cm, test.rows, test.cols)
    return float(np.sqrt(((pred - test.vals) ** 2).sum() / test.nnz))


def true_sv_sum_variance(truth, m):
    """Variance functional of the summed squared singular values, evaluated
    at the ground truth (simulation calibration only)."""
    b = truth.signal_scales()
    return squared_sv_sum_variance(truth.U, truth.V, b, truth.lambdas,
                                   truth.p, truth.sigma**2, m)


def standardized_sv_stat(est, truth, m):
    """Standardized summed-squared-singular-value statistic.

    (sum_{i<=m} lambda_hat_i^2 - sum_{i<=m} lambda_i^2) / (sqrt(nd) * sigma)
    with sigma evaluated from the ground truth; approximately standard
    normal when the asymptotics bind.
    """
    if not (1 <= m <= min(est.rank, truth.rank)):
        raise ValueError(f"m must be in [1, {min(est.rank, truth.rank)}]")
    n, d = truth.shape
    var = true_sv_sum_variance(truth, m)
    if var <= 0:
        raise ValueError("variance functional is zero; statistic undefined")
    num = float((est.lambda_hat[:m] ** 2).sum() - (truth.lambdas[:m] ** 2).sum())
    return num / (np.sqrt(n * d) * np.sqrt(var))
