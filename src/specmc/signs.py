"""Per-factor sign resolution and assembly of the completed matrix.

Each estimated factor pair is determined only up to a joint sign flip. The
exhaustive resolver minimizes the squared residual on the observed cells over
all sign vectors; above the candidate budget, each sign is the sign of the
matching entry of the linear term P^T y defined below.

The residual of a sign vector s is a quadratic form in s,
||P s - y||^2 = ||y||^2 - 2 s.(P^T y) + s^T (P^T P) s, where P holds the
per-cell factor products. Both sums come from two sparse products over the
observed cells, with no per-cell gathers: P^T y from X V_hat and P^T P from
Omega (V_hat_i * V_hat_j) over the factor pairs i <= j, where X is the
zero-imputed data and Omega its unit-weight mask. That costs O(nnz r^2),
after which all 2^r candidates cost O(2^r r^2). The heuristic reads only
P^T y, at O(nnz r), and solves no eigenproblem.
"""

from dataclasses import dataclass

import numpy as np

from .data import ObservedMatrix, index_array
from .spectral import SpectralEstimate

SIGN_BUDGET = 12


@dataclass(frozen=True)
class CompletedMatrix:
    """Completed matrix in factor form with resolved signs."""

    estimate: SpectralEstimate
    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.float64).ravel()
        if signs.size != self.estimate.rank:
            raise ValueError("sign vector length must equal the rank")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +-1")
        object.__setattr__(self, "signs", signs)

    @property
    def shape(self):
        return self.estimate.shape

    @property
    def method(self):
        """The sign rule complete() applies at this rank."""
        return "exhaustive" if self.estimate.rank <= SIGN_BUDGET else "heuristic"

    def coef(self):
        """Signed singular values; the factor-form coefficients."""
        return self.signs * self.estimate.lambda_hat

    def dense(self):
        return (self.estimate.U_hat * self.coef()) @ self.estimate.V_hat.T

    def to_dict(self):
        out = self.estimate.to_dict()
        out["signs"] = self.signs
        out["sign_method"] = self.method
        return out


def _sign_of(x):
    # zero inner products map to +1
    return np.where(np.asarray(x) < 0, -1.0, 1.0)


def sign_candidates(r):
    """All sign vectors of length r, lexicographic with +1 before -1."""
    # bit j of the candidate index, most significant first, is a -1 at j
    bits = (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def _linear_term(est, X):
    """P^T y = lambda_hat * sum_k U_hat[k] * (X V_hat)[k], X the CSR data."""
    return np.einsum("ki,ki->i", est.U_hat, X @ est.V_hat) * est.lambda_hat


def enumerate_sign_residuals(est, obs):
    """(candidates, observed-cell squared residuals) for every sign vector.

    Each residual ||P s - y||^2 is evaluated in closed form from P^T y and
    P^T P, with P[t] = lambda_hat * U_hat[row_t] * V_hat[col_t]:
    P^T y = lambda_hat * sum_k U_hat[k] * (X V_hat)[k] and
    (P^T P)_ij = lambda_i lambda_j sum_k U_ki U_kj (Omega (V_i * V_j))_k.
    The two CSR products cost O(nnz r^2) and, like the einsum contractions,
    call no BLAS, so no OpenBLAS thread pool wakes.
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.sparse import csr_array
    U, V, lam = est.U_hat, est.V_hat, est.lambda_hat
    r = est.rank
    X = obs.to_csr()
    omega = csr_array((np.ones(obs.nnz), X.indices, X.indptr), shape=X.shape)
    i, j = np.triu_indices(r)
    h = _linear_term(est, X)
    upper = np.einsum("kp,kp->p", U[:, i] * U[:, j], omega @ (V[:, i] * V[:, j]))
    H = np.empty((r, r))
    H[i, j] = H[j, i] = upper * lam[i] * lam[j]
    cand = sign_candidates(r)
    quad = ((cand @ H) * cand).sum(axis=1)
    return cand, np.einsum("t,t->", obs.vals, obs.vals) - 2.0 * (cand @ h) + quad


def resolve_signs_exhaustive(est, obs):
    """Globally best sign vector over all 2^r candidates.

    Ties prefer +1 lexicographically. Raises when r exceeds SIGN_BUDGET;
    use resolve_signs_heuristic in that case.
    """
    if est.rank > SIGN_BUDGET:
        raise ValueError(
            f"rank {est.rank} exceeds the exhaustive budget {SIGN_BUDGET}; "
            "use resolve_signs_heuristic"
        )
    cand, residuals = enumerate_sign_residuals(est, obs)
    return cand[int(np.argmin(residuals))]


def resolve_signs_heuristic(est, obs):
    """Sign of each factor taken alone: s_i = sign((P^T y)_i), zero -> +1.

    The residual depends on s_i through -2 s_i ((P^T y)_i - sum_{j != i}
    (P^T P)_ij s_j); without the cross terms its best value is the sign of
    the linear term. O(nnz r), no eigensolve. A clamped factor (lambda_hat_i
    = 0) gets +1; its sign cannot change the completion.
    """
    return _sign_of(_linear_term(est, obs.to_csr()))


def reference_signs(est, truth):
    """Per-factor sign products against the true singular vectors.

    Simulation-only: uses the ground truth factors in place of the data
    SVD, giving the sign vector the estimate is actually trying to match.
    """
    sv = np.einsum("ki,ki->i", est.V_hat, truth.V)
    su = np.einsum("ki,ki->i", est.U_hat, truth.U)
    return _sign_of(sv) * _sign_of(su)


def assemble(est, signs):
    """Bundle an estimate with a resolved sign vector."""
    return CompletedMatrix(estimate=est, signs=signs)


def complete(obs: ObservedMatrix, est: SpectralEstimate):
    """Resolve signs on the observed data and assemble in one step: the
    exhaustive scan up to SIGN_BUDGET factors, the heuristic above."""
    if est.rank <= SIGN_BUDGET:
        return assemble(est, resolve_signs_exhaustive(est, obs))
    return assemble(est, resolve_signs_heuristic(est, obs))


def predict_entry(cm, k, h):
    """Single completed-matrix entry from the factor form."""
    return float(predict_entries(cm, [k], [h])[0])


def check_cells(shape, rows, cols):
    """Raise IndexError naming the first (rows[t], cols[t]) outside shape."""
    n, d = shape
    bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= d)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        raise IndexError(f"entry ({rows[t]}, {cols[t]}) outside {n}x{d}")


def predict_entries(cm, rows, cols):
    """Completed-matrix values at the listed cells, without densifying."""
    rows = index_array(rows, "rows")
    cols = index_array(cols, "cols")
    check_cells(cm.shape, rows, cols)
    return np.einsum("ti,ti->t", cm.estimate.U_hat[rows] * cm.coef(),
                     cm.estimate.V_hat[cols])
