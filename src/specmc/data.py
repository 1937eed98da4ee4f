"""Core containers: sparse observed matrices and synthetic ground truth."""

from dataclasses import dataclass, fields

import numpy as np

_ORTHO_TOL = 1e-10


def _frozen_array(a, dtype):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


def check_int(value, name):
    """value as an int; ValueError naming `name` unless it is an integer
    (a Python or numpy one; a bool is not)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def index_array(values, name):
    """values as a flat int64 array. A non-empty array needs an integer
    dtype: casting 0.9 or 1.2 would silently truncate it to another cell."""
    index = np.asarray(values).ravel()
    if index.size and not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got {index.dtype} "
                         f"(first entry {index[:1].tolist()[0]!r})")
    return index.astype(np.int64, copy=False)


def _strictly_row_major(rows, cols):
    """True when each (row, col) pair is greater than the one before it."""
    r0, r1, c0, c1 = rows[:-1], rows[1:], cols[:-1], cols[1:]
    return bool(np.all((r1 > r0) | ((r1 == r0) & (c1 > c0))))


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """A partially observed matrix stored as (row, col, value) triplets.

    The Bernoulli mask is implicit: a cell is observed iff it appears in the
    triplet arrays. Entries are canonicalized to row-major order at
    construction and the arrays are frozen, so instances are immutable and
    safe to share across threads. Indices are 0-based; values must be finite.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if check_int(self.n_rows, "n_rows") < 0 or check_int(self.n_cols, "n_cols") < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = index_array(self.rows, "rows")
        cols = index_array(self.cols, "cols")
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            for what, index, bound in (("row", rows, self.n_rows),
                                       ("column", cols, self.n_cols)):
                if index.min() < 0 or index.max() >= bound:
                    k = int(np.flatnonzero((index < 0) | (index >= bound))[0])
                    raise ValueError(f"{what} index {index[k]} out of range [0, {bound})")
            bad = ~np.isfinite(vals)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"non-finite value {vals[k]} at (row={rows[k]}, col={cols[k]})"
                )
        if _strictly_row_major(rows, cols):
            # already canonical (from_mask gives this order): copies only
            rows, cols, vals = rows.copy(), cols.copy(), vals.copy()
        else:
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(
                    f"duplicate entry at (row={rows[k]}, col={cols[k]})"
                )
        object.__setattr__(self, "rows", _frozen_array(rows, np.int64))
        object.__setattr__(self, "cols", _frozen_array(cols, np.int64))
        object.__setattr__(self, "vals", _frozen_array(vals, np.float64))

    @property
    def nnz(self):
        return int(self.vals.size)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row_ptr(self):
        """CSR-style row pointer into the sorted triplet arrays."""
        return np.searchsorted(self.rows, np.arange(self.n_rows + 1)).astype(np.int64)

    def transpose(self):
        return ObservedMatrix(self.n_cols, self.n_rows, self.cols, self.rows, self.vals)

    def to_dense(self):
        """Zero-imputed dense realization, a fresh n x d array on each call."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.vals
        return out

    def to_csr(self):
        """Zero-imputed realization as a scipy.sparse CSR array."""
        # imported on first call: scipy adds ~0.3 s to a cold import of specmc
        from scipy.sparse import csr_array
        return csr_array((self.vals, self.cols, self.row_ptr()), shape=self.shape)

    @classmethod
    def from_mask(cls, dense, mask):
        """Build from a dense array and a boolean observation mask."""
        dense = np.asarray(dense, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if dense.shape != mask.shape:
            raise ValueError("dense and mask shapes differ")
        rows, cols = np.nonzero(mask)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    def __eq__(self, other):
        if not isinstance(other, ObservedMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.vals, other.vals)
        )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Exact low rank matrix plus the observation/noise model parameters.

    Holds the dense matrix together with its singular value decomposition,
    the noise standard deviation and the per-cell observation probability.
    Used by the simulation harness and by oracle tests; estimators never see
    these fields.
    """

    M0: np.ndarray
    U: np.ndarray
    V: np.ndarray
    lambdas: np.ndarray
    sigma: float
    p: float

    def __post_init__(self):
        self._check_and_freeze(check_product=True)

    def _check_and_freeze(self, check_product):
        M0 = np.asarray(self.M0, dtype=np.float64)
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64)
        lam = np.asarray(self.lambdas, dtype=np.float64).ravel()
        n, d = M0.shape
        r = lam.size
        if U.shape != (n, r) or V.shape != (d, r):
            raise ValueError("factor shapes inconsistent with M0 and lambdas")
        if not (self.sigma >= 0):
            raise ValueError("sigma must be non-negative")
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        if r and (np.any(lam <= 0) or np.any(np.diff(lam) > 0)):
            raise ValueError("lambdas must be positive and non-increasing")
        for name, Z in (("U", U), ("V", V)):
            err = np.abs(Z.T @ Z - np.eye(r)).max() if r else 0.0
            if err > _ORTHO_TOL:
                raise ValueError(f"{name} columns not orthonormal (err={err:.2e})")
        if check_product:
            recon_err = np.abs(M0 - (U * lam) @ V.T).max()
            if recon_err > _ORTHO_TOL * max(1.0, np.abs(M0).max()):
                raise ValueError("M0 does not match U diag(lambdas) V^T "
                                 f"(err={recon_err:.2e})")
        object.__setattr__(self, "M0", _frozen_array(M0, np.float64))
        object.__setattr__(self, "U", _frozen_array(U, np.float64))
        object.__setattr__(self, "V", _frozen_array(V, np.float64))
        object.__setattr__(self, "lambdas", _frozen_array(lam, np.float64))

    @property
    def shape(self):
        return self.M0.shape

    @property
    def rank(self):
        return int(self.lambdas.size)

    def signal_scales(self):
        """Singular values normalized by sqrt(n*d)."""
        n, d = self.shape
        return self.lambdas / np.sqrt(n * d)

    @classmethod
    def from_matrix(cls, M0, rank, sigma, p):
        """Build from a dense matrix via its exact SVD, keeping `rank` factors."""
        M0 = np.asarray(M0, dtype=np.float64)
        if not (1 <= check_int(rank, "rank") <= min(M0.shape)):
            raise ValueError("rank out of range")
        Uf, s, Vt = np.linalg.svd(M0, full_matrices=False)
        return cls._signed(M0, Uf[:, :rank], s[:rank], Vt[:rank].T, sigma, p)

    @classmethod
    def from_factors(cls, A, B, sigma, p):
        """Build from raw factors M0 = A B^T. The SVD comes from thin QRs of A
        and B and the SVD of the r x r core, O((n + d) r^2) flops."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
            raise ValueError("factor shapes incompatible")
        if not (1 <= A.shape[1] <= min(A.shape[0], B.shape[0])):
            raise ValueError("rank out of range")
        (Qa, Ra), (Qb, Rb) = np.linalg.qr(A), np.linalg.qr(B)
        Uc, s, Vct = np.linalg.svd(Ra @ Rb.T)
        # A B^T = U diag(s) V^T holds by construction, so the O(n d) check
        # of the product is skipped (it took ~1 ms of a 1000 x 63 instance)
        return cls._signed(A @ B.T, Qa @ Uc, s, Qb @ Vct.T, sigma, p,
                           check_product=False)

    @classmethod
    def _signed(cls, M0, U, lam, V, sigma, p, check_product=True):
        # joint sign canonicalization keeps U diag(lam) V^T unchanged
        j = np.argmax(np.abs(U), axis=0)
        flip = np.where(U[j, np.arange(U.shape[1])] < 0, -1.0, 1.0)
        truth = object.__new__(cls)  # the constructor's checks, run below
        for f, value in zip(fields(cls), (M0, U * flip, V * flip, lam,
                                          float(sigma), float(p))):
            object.__setattr__(truth, f.name, value)
        truth._check_and_freeze(check_product)
        return truth
