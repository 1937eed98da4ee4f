"""Symmetric eigendecomposition and the debiased singular triplet estimator.

The estimator: debias both gram matrices with the observed fraction, take
their leading eigenvectors as the singular vector estimates, and recover the
singular values from the leading eigenvalues after subtracting the mean
trailing eigenvalue (a noise-floor estimate) and rescaling by the observed
fraction.

Neither gram is formed by the estimator at an explicit rank: the top-r
eigenpairs of each come from Lanczos iterations (ARPACK) on an operator that
costs O(nnz) per product, the noise floor uses the trace shortcut, and memory
stays O(nnz + (n + d) * r). The full d x d right gram is built and
diagonalised for its values (`right_ladder`) only where its whole ladder is
read: rank selection, the scree, rank="auto" and
`SpectralEstimate.right_ladder`.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import ObservedMatrix
from .gram import bias_adjust, gram_right, observed_fraction
from .rank import estimate_rank

_SYM_TOL = 1e-10


class ClampWarning(UserWarning):
    """A negative radicand was clamped when recovering singular values."""


@dataclass(frozen=True)
class EigenLadder:
    """Leading descending eigenvalues of a symmetric matrix, with eigenvectors.

    The matrix is `dim` x `dim` (default: the number of values) and its trace
    is `full_trace`. `values` holds its largest `values.size` eigenvalues,
    every one of them when `is_full`; `vectors` holds orthonormal
    eigenvectors for the leading `vectors.shape[1]` of them, each with its
    largest-magnitude coordinate positive.
    """

    values: np.ndarray
    vectors: np.ndarray
    full_trace: float
    dim: int | None = None

    def __post_init__(self):
        size = int(np.size(self.values))
        if self.dim is None:
            object.__setattr__(self, "dim", size)
        elif size > self.dim:
            raise ValueError(f"{size} eigenvalues for a dim={self.dim} matrix")

    @property
    def is_full(self):
        """True when `values` holds the whole spectrum."""
        return int(np.size(self.values)) == self.dim


@dataclass(frozen=True)
class SpectralEstimate:
    """Estimated singular triplets of a partially observed matrix.

    `left_ladder` holds the top `rank` eigenpairs of the debiased left gram.
    `right_ladder` is the full descending spectrum of the debiased right gram
    with V_hat as its vectors; it is computed from `obs` the first time it is
    read and then kept, so an estimate that is never asked for it never forms
    the d x d gram.
    """

    U_hat: np.ndarray
    V_hat: np.ndarray
    lambda_hat: np.ndarray
    p_hat: float
    tau_hat: float
    rank: int
    left_ladder: EigenLadder
    n_clamped: int = 0
    obs: ObservedMatrix | None = field(default=None, repr=False, compare=False)
    _right: EigenLadder | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def shape(self):
        return (self.U_hat.shape[0], self.V_hat.shape[0])

    @property
    def right_ladder(self):
        """Full spectrum of the debiased right gram, with V_hat as its vectors."""
        if self._right is None:
            if self.obs is None:
                raise ValueError("right_ladder needs the observations (obs)")
            self._keep_right(right_ladder(self.obs))
        return self._right

    def _keep_right(self, spectrum):
        # the cache is the one attribute set after construction
        object.__setattr__(self, "_right", EigenLadder(
            spectrum.values, self.V_hat, spectrum.full_trace))

    def signal_scales(self):
        """Estimated singular values normalized by sqrt(n*d)."""
        n, d = self.shape
        return self.lambda_hat / np.sqrt(n * d)

    def to_dict(self):
        n, d = self.shape
        return {
            "n_rows": n,
            "n_cols": d,
            "rank": self.rank,
            "p_hat": self.p_hat,
            "tau_hat": self.tau_hat,
            "lambda_hat": self.lambda_hat,
            "U_hat": self.U_hat,
            "V_hat": self.V_hat,
            "right_values": self.right_ladder.values,
            "left_values": self.left_ladder.values,
            "n_clamped": self.n_clamped,
        }


def _canonical_signs(vectors):
    # largest-magnitude coordinate positive; argmax takes the lowest index on ties
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]
    return vectors


def sym_eig_desc(S, k=None):
    """Eigendecomposition of a symmetric matrix, values descending.

    Returns the full value ladder and the top-k eigenvectors (k=None keeps
    all). k=0 computes the values alone, which is about twice as fast, and
    returns a (dim, 0) `vectors` array. Eigenvector signs are canonicalized
    so identical input yields identical output.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("input must be a square matrix")
    scale = max(1.0, float(np.abs(S).max()) if S.size else 0.0)
    if S.size and np.abs(S - S.T).max() > _SYM_TOL * scale:
        raise ValueError("input matrix is not symmetric")
    dim = S.shape[0]
    if k is None:
        k = dim
    if not (0 <= k <= dim):
        raise ValueError(f"k must be in [0, {dim}], got {k}")
    if k == 0:
        w, vectors = np.linalg.eigvalsh(S), np.empty((dim, 0))
    else:
        w, Q = np.linalg.eigh(S)
        vectors = _canonical_signs(Q[:, ::-1][:, :k].copy())
    return EigenLadder(values=w[::-1].copy(), vectors=vectors,
                       full_trace=float(np.trace(S)))


def top_gram_eigenpairs(X, k, p_hat=1.0):
    """Top-k eigenpairs of the debiased gram of a sparse X, without forming it.

    The gram is X X^T with its diagonal scaled by p_hat, i.e.
    bias_adjust(X X^T, p_hat); p_hat=1 leaves it unadjusted. It is applied
    as x -> X (X^T x) - (1 - p_hat) * rowsq * x, where rowsq holds the row
    sums of squares of X, and its top k eigenpairs come from Lanczos
    iterations (ARPACK via `eigsh`) at full precision. The largest
    algebraic eigenvalues are requested because the debiased gram is
    indefinite. The start vector and the restart draws are fixed, so equal
    input gives equal bytes. Returns a top-k EigenLadder with
    dim = X.shape[0] and the trace p_hat * sum(rowsq).
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.sparse.linalg import LinearOperator, eigsh
    dim = X.shape[0]
    if not (1 <= k < dim):
        raise ValueError(f"k must be in [1, {dim - 1}], got {k}")
    Xt = X.T.tocsr()
    rowsq = np.asarray(X.multiply(X).sum(axis=1), dtype=np.float64).ravel()
    shift = (1.0 - p_hat) * rowsq

    def matvec(x):
        x = np.ravel(x)
        return X @ (Xt @ x) - shift * x

    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    # a ones start vector can lie in the null space of a rank-one gram
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
    w, Q = eigsh(op, k=k, which="LA", v0=v0, tol=0, rng=0)
    order = np.argsort(w, kind="stable")[::-1]
    return EigenLadder(values=w[order], vectors=_canonical_signs(Q[:, order]),
                       full_trace=p_hat * float(rowsq.sum()), dim=dim)


def right_ladder(obs):
    """Descending spectrum of the debiased right gram, values only.

    The gram is bias_adjust(gram_right(obs), p_hat); it is formed densely and
    diagonalised by `eigvalsh`, at O(n*d^2 + d^3) time and O(d^2) memory.
    """
    return sym_eig_desc(bias_adjust(gram_right(obs), observed_fraction(obs)), 0)


def trailing_eig_mean(ladder, r):
    """Mean of the trailing dim-r eigenvalues via the trace shortcut."""
    dim = ladder.dim
    if not (0 <= r < dim):
        raise ValueError(f"need 0 <= r < dim, got r={r}, dim={dim}")
    return (ladder.full_trace - float(ladder.values[:r].sum())) / (dim - r)


def singular_values_from_eigs(top_values, tau_hat, p_hat):
    """Recover singular values from leading debiased-gram eigenvalues.

    Returns (values, n_clamped); negative radicands clamp to zero and raise
    a ClampWarning.
    """
    if p_hat <= 0:
        raise ValueError("degenerate observation: p_hat must be positive")
    top_values = np.asarray(top_values, dtype=np.float64)
    radicand = top_values - tau_hat
    n_clamped = int((radicand < 0).sum())
    if n_clamped:
        warnings.warn(
            f"clamped {n_clamped} negative radicand(s) to zero",
            ClampWarning,
            stacklevel=2,
        )
    return np.sqrt(np.clip(radicand, 0.0, None)) / p_hat, n_clamped


def estimate_singular_triplets(obs: ObservedMatrix, rank: int | str,
                               c_const: float = 1.0) -> SpectralEstimate:
    """Estimate the top-`rank` singular triplets from observed entries.

    Steps: observed fraction -> top-`rank` eigenpairs of the debiased right
    and left grams by Lanczos, without forming either -> noise floor from
    the trace shortcut -> singular values. Both ladders the estimator reads
    are top-`rank`, so memory is O(nnz + (n + d) * rank); the full right
    ladder (`SpectralEstimate.right_ladder`) is computed only when read.

    rank="auto" picks r_hat by rank.estimate_rank (floor constant c_const)
    on the values-only `right_ladder(obs)`, which the estimate then keeps as
    its right ladder; the result equals that of rank=r_hat. An r_hat outside
    [1, min(n, d)) raises.
    """
    n, d = obs.shape
    if rank != "auto" and not (1 <= rank < min(n, d)):
        raise ValueError(f"rank must be in [1, {min(n, d) - 1}], got {rank}")
    if obs.nnz == 0:
        raise ValueError("cannot estimate from an empty mask")
    p_hat = observed_fraction(obs)
    spectrum = None
    if rank == "auto":
        spectrum = right_ladder(obs)
        rank = estimate_rank(spectrum, p_hat, n, d, c_const).r_hat
        if not (1 <= rank < min(n, d)):
            raise ValueError(f"automatic rank selection gave r_hat={rank}; "
                             "pass an explicit rank")
    X = obs.to_csr()
    right = top_gram_eigenpairs(X.T, rank, p_hat)
    left = top_gram_eigenpairs(X, rank, p_hat)
    tau_hat = trailing_eig_mean(right, rank)
    lambda_hat, n_clamped = singular_values_from_eigs(right.values, tau_hat, p_hat)
    est = SpectralEstimate(
        U_hat=left.vectors,
        V_hat=right.vectors,
        lambda_hat=lambda_hat,
        p_hat=p_hat,
        tau_hat=tau_hat,
        rank=rank,
        left_ladder=left,
        n_clamped=n_clamped,
        obs=obs,
    )
    if spectrum is not None:
        est._keep_right(spectrum)
    return est
