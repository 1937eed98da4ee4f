"""Per-factor sign resolution and assembly of the completed matrix.

Each estimated factor pair is determined only up to a joint sign flip. The
exhaustive resolver minimizes the squared residual on the observed cells over
all sign vectors; above the candidate budget, a spectral heuristic compares
the estimated factors with the singular vectors of the zero-imputed data.

The residual of a sign vector s is a quadratic form in s,
||P s - y||^2 = ||y||^2 - 2 s.(P^T y) + s^T (P^T P) s, where P holds the
per-cell factor products. So one pass over the observed cells builds P^T y
and P^T P in O(nnz r^2), after which all 2^r candidates cost O(2^r r^2).
"""

from dataclasses import dataclass, field

import numpy as np

from .data import ObservedMatrix
from .gram import crossprod
from .inference import pair_m2_sums
from .spectral import SpectralEstimate, top_gram_eigenpairs

SIGN_BUDGET = 12
_CELL_BLOCK = 4096


@dataclass(frozen=True)
class CompletedMatrix:
    """Completed matrix in factor form with resolved signs."""

    estimate: SpectralEstimate
    signs: np.ndarray
    method: str
    _sums: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

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

    def coef(self):
        """Signed singular values; the factor-form coefficients."""
        return self.signs * self.estimate.lambda_hat

    def pair_sums(self):
        """inference.pair_m2_sums of the factor form, read-only.

        Both plug-in variances read it; it is computed on the first call and
        then kept, the one attribute set after construction.
        """
        if self._sums is None:
            est = self.estimate
            sums = pair_m2_sums(est.U_hat, est.V_hat, self.coef())
            sums.setflags(write=False)
            object.__setattr__(self, "_sums", sums)
        return self._sums

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


def enumerate_sign_residuals(est, obs):
    """(candidates, observed-cell squared residuals) for every sign vector.

    Each residual ||P s - y||^2 is evaluated in closed form from P^T y and
    P^T P, with P[t] = lambda_hat * U_hat[row_t] * V_hat[col_t].
    """
    r = est.rank
    # the gram of [P | y] holds P^T P, P^T y and ||y||^2; crossprod keeps it
    # off numpy's BLAS thread pool, and summing over blocks of cells
    # allocates no nnz-long array per call
    G = np.zeros((r + 1, r + 1))
    for start in range(0, obs.nnz, _CELL_BLOCK):
        block = slice(start, start + _CELL_BLOCK)
        rows, cols = obs.rows[block], obs.cols[block]
        Q = np.empty((rows.size, r + 1))
        np.multiply(est.U_hat[rows], est.V_hat[cols], out=Q[:, :r])
        Q[:, :r] *= est.lambda_hat
        Q[:, r] = obs.vals[block]
        G += crossprod(Q)
    cand = sign_candidates(r)
    quad = ((cand @ G[:r, :r]) * cand).sum(axis=1)
    return cand, G[r, r] - 2.0 * (cand @ G[:r, r]) + quad


def resolve_signs_exhaustive(est, obs, budget=SIGN_BUDGET):
    """Globally best sign vector over all 2^r candidates.

    Ties prefer +1 lexicographically. Raises when r exceeds the budget;
    use resolve_signs_heuristic in that case.
    """
    if est.rank > budget:
        raise ValueError(
            f"rank {est.rank} exceeds the exhaustive budget {budget}; "
            "use resolve_signs_heuristic"
        )
    cand, residuals = enumerate_sign_residuals(est, obs)
    return cand[int(np.argmin(residuals))]


def resolve_signs_heuristic(est, obs):
    """Sign from inner products with the zero-imputed data's singular vectors.

    The right singular vectors are the top eigenvectors of the unadjusted
    gram M^T M, taken by Lanczos without forming it; each left one is
    paired through normalized multiplication by the data matrix, which
    keeps the per-factor sign product independent of the SVD's own sign
    convention.
    """
    r = est.rank
    ladder = top_gram_eigenpairs(obs.to_csr().T, r)
    v = ladder.vectors
    s = np.empty(r)
    for i in range(r):
        u_i = obs.matvec(v[:, i])
        norm = np.linalg.norm(u_i)
        if norm > 0:
            u_i = u_i / norm
        s[i] = _sign_of(est.V_hat[:, i] @ v[:, i]) * _sign_of(est.U_hat[:, i] @ u_i)
    return s


def resolve_signs(est, obs, method="auto", budget=SIGN_BUDGET):
    """Dispatch: exhaustive within budget, heuristic otherwise."""
    if method == "auto":
        method = "exhaustive" if est.rank <= budget else "heuristic"
    if method == "exhaustive":
        return resolve_signs_exhaustive(est, obs, budget), "exhaustive"
    if method == "heuristic":
        return resolve_signs_heuristic(est, obs), "heuristic"
    raise ValueError(f"unknown sign method {method!r}")


def reference_signs(est, truth):
    """Per-factor sign products against the true singular vectors.

    Simulation-only: uses the ground truth factors in place of the data
    SVD, giving the sign vector the estimate is actually trying to match.
    """
    sv = np.einsum("ki,ki->i", est.V_hat, truth.V)
    su = np.einsum("ki,ki->i", est.U_hat, truth.U)
    return _sign_of(sv) * _sign_of(su)


def assemble(est, signs, method="exhaustive"):
    """Bundle an estimate with a resolved sign vector."""
    return CompletedMatrix(estimate=est, signs=np.asarray(signs, dtype=np.float64),
                           method=method)


def complete(obs: ObservedMatrix, est: SpectralEstimate, method="auto"):
    """Resolve signs on the observed data and assemble in one step."""
    signs, used = resolve_signs(est, obs, method)
    return assemble(est, signs, used)


def predict_entry(cm, k, h):
    """Single completed-matrix entry from the factor form."""
    return float(predict_entries(cm, [k], [h])[0])


def predict_entries(cm, rows, cols):
    """Completed-matrix values at the listed cells, without densifying."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n, d = cm.shape
    bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= d)
    if bad.any():
        t = int(np.flatnonzero(bad)[0])
        raise IndexError(f"entry ({rows[t]}, {cols[t]}) outside {n}x{d}")
    return np.einsum("ti,ti->t", cm.estimate.U_hat[rows] * cm.coef(),
                     cm.estimate.V_hat[cols])
