"""Core containers: sparse observed matrices and synthetic ground truth."""

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-10


def _frozen_array(a, dtype):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


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
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
            bad = ~np.isfinite(vals)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"non-finite value {vals[k]} at (row={rows[k]}, col={cols[k]})"
                )
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
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
        """Zero-imputed dense realization."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.vals
        return out

    def to_csr(self):
        """Zero-imputed realization as a scipy.sparse CSR array."""
        # imported on first call: scipy adds ~0.3 s to a cold import of specmc
        from scipy.sparse import csr_array
        return csr_array((self.vals, self.cols, self.row_ptr()), shape=self.shape)

    def matvec(self, x):
        """Product of the zero-imputed matrix with a vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError("vector length must equal n_cols")
        return np.bincount(self.rows, weights=self.vals * x[self.cols],
                           minlength=self.n_rows)

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
        recon_err = np.abs(M0 - (U * lam) @ V.T).max()
        if recon_err > _ORTHO_TOL * max(1.0, np.abs(M0).max()):
            raise ValueError(f"M0 does not match U diag(lambdas) V^T (err={recon_err:.2e})")
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
        if not (1 <= rank <= min(M0.shape)):
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
        return cls._signed(A @ B.T, Qa @ Uc, s, Qb @ Vct.T, sigma, p)

    @classmethod
    def _signed(cls, M0, U, lam, V, sigma, p):
        # joint sign canonicalization keeps U diag(lam) V^T unchanged
        j = np.argmax(np.abs(U), axis=0)
        flip = np.where(U[j, np.arange(U.shape[1])] < 0, -1.0, 1.0)
        return cls(M0, U * flip, V * flip, lam, float(sigma), float(p))
