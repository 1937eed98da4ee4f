"""Symmetric eigendecomposition and the debiased singular triplet estimator.

The estimator: debias both gram matrices with the observed fraction, take
their leading eigenvectors as the singular vector estimates, and recover the
singular values from the leading eigenvalues after subtracting the mean
trailing eigenvalue (a noise-floor estimate) and rescaling by the observed
fraction.

The n x n left gram is never formed: its top-r eigenpairs come from Lanczos
iterations (ARPACK) on an operator that costs O(nnz) per product. The right
side takes one of two paths, chosen from the input's shape and density:

- where the dense d x d right gram costs little next to the data,
  n * d^2 <= _DENSE_RIGHT * nnz (equivalently d <= _DENSE_RIGHT * p_hat),
  it is formed once and diagonalised by LAPACK: its whole value ladder,
  which serves the noise floor, rank selection and
  `SpectralEstimate.right_ladder`, and its top-r vectors. Where the whole
  matrix is also one gram block, n * d <= gram._BLOCK_CELLS, it is
  zero-imputed once into a dense array: the right gram is that array's
  X^T X, the left Lanczos runs on it (its two products are cheaper there
  than sparse ones), and no CSR copy is built;
- elsewhere the top-r eigenpairs come from Lanczos as on the left, the noise
  floor uses the trace shortcut, and the d x d gram is formed (by
  `right_ladder`) only where its whole ladder is read: rank selection, the
  scree, rank="auto" and `SpectralEstimate.right_ladder`.

ARPACK's restarted Lanczos keeps a basis of about 20 vectors and runs many
small products, so on a small right gram one dense eigensystem is faster.
Each Lanczos solve runs with scipy's OpenBLAS held at one thread
(_one_blas_thread), which changes its speed on a shared core, not its bytes.
Memory stays O(nnz + (n + d) * r) on both paths: the dense one holds d^2
<= _DENSE_RIGHT * nnz / n floats, which is O(nnz) for n >= _DENSE_RIGHT,
and at most _BLOCK_CELLS floats of dense data.
"""

import functools
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import ObservedMatrix, check_int
from .gram import _BLOCK_CELLS, bias_adjust, gram_right, observed_fraction
from .rank import check_c_const, estimate_rank

_SYM_TOL = 1e-10
# The right side is diagonalised densely where n * d^2 <= _DENSE_RIGHT * nnz:
# the measured crossover between the dense eigensystem (gram, eigvalsh and
# the top-r vectors) and a Lanczos solve on a 2-core host.
_DENSE_RIGHT = 200


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
    with V_hat as its vectors. The estimator passes it as `_right` when it
    formed the d x d gram anyway (the dense right path, rank="auto");
    otherwise it is computed from `obs` on each read. Nothing is set after
    construction.
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
    _right: EigenLadder | None = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return (self.U_hat.shape[0], self.V_hat.shape[0])

    @property
    def right_ladder(self):
        """Full spectrum of the debiased right gram, with V_hat as its vectors."""
        if self._right is not None:
            return self._right
        if self.obs is None:
            raise ValueError("right_ladder needs the observations (obs)")
        spectrum = right_ladder(self.obs)
        return EigenLadder(spectrum.values, self.V_hat, spectrum.full_trace)

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


@functools.cache
def _scipy_blas_threads():
    """(get, set) thread-count functions of scipy's OpenBLAS, or None.

    Looked up in the shared object that scipy.linalg.blas loads, which
    ARPACK's BLAS calls resolve to as well. None where scipy is built on
    another BLAS (MKL, Accelerate, a system OpenBLAS) or the load fails.
    """
    import ctypes

    from scipy.linalg import _fblas
    try:
        lib = ctypes.CDLL(_fblas.__file__)
        get = lib.scipy_openblas_get_num_threads
        put = lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# The thread count is one setting of the whole process, so the solves that
# overlap (simulate's --workers threads) share one scope: the first to enter
# saves the count and sets 1, the last to leave puts it back.
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = None


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread while the block runs.

    ARPACK's BLAS-2 updates on n x ncv arrays (ncv about 20) are large
    enough for OpenBLAS to hand to its worker thread, which then spins
    beside the caller's own (numpy's) BLAS worker and oversubscribes the
    cores. Does nothing where the count cannot be set.
    """
    global _blas_users, _blas_saved
    threads = _scipy_blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


def top_gram_eigenpairs(X, k, p_hat=1.0):
    """Top-k eigenpairs of the debiased gram of X, without forming it.

    X is a dense ndarray or a scipy.sparse matrix or array.

    The gram is X X^T with its diagonal scaled by p_hat, i.e.
    bias_adjust(X X^T, p_hat); p_hat=1 leaves it unadjusted. It is applied
    as x -> X (X^T x) - (1 - p_hat) * rowsq * x, where rowsq holds the row
    sums of squares of X, and its top k eigenpairs come from Lanczos
    iterations (ARPACK via `eigsh`) at full precision. The largest
    algebraic eigenvalues are requested because the debiased gram is
    indefinite. The start vector and the restart draws are fixed, so equal
    input gives equal bytes, whatever the BLAS thread count; the solve runs
    on one thread of scipy's OpenBLAS (_one_blas_thread). Returns a top-k
    EigenLadder with dim = X.shape[0] and the trace p_hat * sum(rowsq).
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.sparse import issparse
    from scipy.sparse.linalg import LinearOperator, eigsh
    dim = X.shape[0]
    if not (1 <= k < dim):
        raise ValueError(f"k must be in [1, {dim - 1}], got {k}")
    Xt = X.T  # a view: the product X^T x needs no transposed copy
    # row sums of squares: X * X would be a matrix product for a
    # scipy.sparse csr_matrix, and einsum takes no n x d temporary
    rowsq = (np.asarray(X.power(2).sum(axis=1), dtype=np.float64).ravel()
             if issparse(X) else np.einsum("ij,ij->i", X, X))
    shift = (1.0 - p_hat) * rowsq

    def matvec(x):
        x = np.ravel(x)
        return X @ (Xt @ x) - shift * x

    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    # a ones start vector can lie in the null space of a rank-one gram
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
    with _one_blas_thread():
        w, Q = eigsh(op, k=k, which="LA", v0=v0, tol=0, rng=0)
    order = np.argsort(w, kind="stable")[::-1]
    return EigenLadder(values=w[order], vectors=_canonical_signs(Q[:, order]),
                       full_trace=p_hat * float(rowsq.sum()), dim=dim)


def right_ladder(obs):
    """Descending spectrum of the debiased right gram, values only.

    The gram is bias_adjust(gram_right(obs), p_hat); it is formed densely and
    diagonalised by `eigvalsh`, at O(n*d^2 + d^3) time and O(d^2) memory.
    `estimate_singular_triplets` takes the same bytes from the gram it forms
    where n*d^2 <= _DENSE_RIGHT*nnz; elsewhere this is called only where
    the whole ladder is read.
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


def _top_dense_eigvecs(gram, k):
    """Top-k eigenvectors of a dense symmetric matrix, descending, by LAPACK.

    scipy's dsyevr on the requested index range: numpy's `eigh` would wake
    numpy's own OpenBLAS worker (see gram.crossprod).
    """
    # imported on first call: scipy adds ~0.3 s to a cold import of specmc
    from scipy.linalg import eigh
    dim = gram.shape[0]
    _, Q = eigh(gram, subset_by_index=[dim - k, dim - 1], driver="evr",
                check_finite=False)
    return _canonical_signs(Q[:, ::-1].copy())


def estimate_singular_triplets(obs: ObservedMatrix, rank: int | str,
                               c_const: float = 1.0) -> SpectralEstimate:
    """Estimate the top-`rank` singular triplets from observed entries.

    Steps: observed fraction -> top-`rank` eigenpairs of the debiased right
    and left grams -> noise floor -> singular values. The left gram is never
    formed: its eigenpairs come from Lanczos. Where n * d^2 <=
    _DENSE_RIGHT * nnz the debiased right gram is formed once, its whole
    ladder (`sym_eig_desc(., 0)`, the same bytes as `right_ladder(obs)`)
    gives the noise floor and the singular values and is kept as
    `SpectralEstimate.right_ladder`, and LAPACK gives its top-`rank`
    vectors; if n * d <= _BLOCK_CELLS too, the data is zero-imputed once
    (`obs.to_dense()`), the gram and the left Lanczos both read that array,
    and no CSR copy is built.
    Elsewhere the right side is a Lanczos solve too, the noise floor uses
    the trace shortcut, and the full right ladder is computed only when
    read. Memory is O(nnz + (n + d) * rank) either way.

    rank="auto" picks r_hat by rank.estimate_rank (floor constant c_const)
    on the values-only right ladder, which the estimate then keeps; the
    result equals that of rank=r_hat. An r_hat outside [1, min(n, d))
    raises, as does any c_const that is not positive and finite.
    """
    check_c_const(c_const)
    n, d = obs.shape
    if rank != "auto" and not (1 <= check_int(rank, "rank") < min(n, d)):
        raise ValueError(f"rank must be in [1, {min(n, d) - 1}], got {rank}")
    if obs.nnz == 0:
        raise ValueError("cannot estimate from an empty mask")
    p_hat = observed_fraction(obs)
    dense_right = n * d * d <= _DENSE_RIGHT * obs.nnz
    # one gram block is small enough to hold densely, and there the dense
    # products of the left Lanczos beat sparse ones
    one_block = dense_right and n * d <= _BLOCK_CELLS
    X = obs.to_dense() if one_block else obs.to_csr()
    spectrum = None
    if dense_right:
        gram = bias_adjust(X.T @ X if one_block else gram_right(obs), p_hat)
        spectrum = sym_eig_desc(gram, 0)
    elif rank == "auto":
        spectrum = right_ladder(obs)
    if rank == "auto":
        rank = estimate_rank(spectrum, p_hat, n, d, c_const).r_hat
        if not (1 <= rank < min(n, d)):
            raise ValueError(f"automatic rank selection gave r_hat={rank}; "
                             "pass an explicit rank")
    if dense_right:
        right = EigenLadder(spectrum.values, _top_dense_eigvecs(gram, rank),
                            spectrum.full_trace)
    else:
        right = top_gram_eigenpairs(X.T, rank, p_hat)
    left = top_gram_eigenpairs(X, rank, p_hat)
    tau_hat = trailing_eig_mean(right, rank)
    lambda_hat, n_clamped = singular_values_from_eigs(right.values[:rank],
                                                      tau_hat, p_hat)
    return SpectralEstimate(
        U_hat=left.vectors,
        V_hat=right.vectors,
        lambda_hat=lambda_hat,
        p_hat=p_hat,
        tau_hat=tau_hat,
        rank=rank,
        left_ladder=left,
        n_clamped=n_clamped,
        obs=obs,
        _right=None if spectrum is None else EigenLadder(
            spectrum.values, right.vectors, spectrum.full_trace),
    )
