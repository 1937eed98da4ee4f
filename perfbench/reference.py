"""Dense reference computations and output checks, in plain numpy.

Nothing here imports specmc: the reference is an independent dense
realisation of the estimator (zero-imputed matrix -> debiased grams -> full
`numpy.linalg.eigh`), and every check compares a program output with it.
Checks return a list of failure messages; an empty list means the output
passed.

Only top-r and top-k quantities are compared, never the length of a full
eigenvalue ladder, so a program that returns top-k ladders passes.
"""

import itertools

import numpy as np

# sin^2 of the angle between the program's and the reference's top-r spans
SIN2_TOL = 1e-6
# relative error of the singular values (and of an RMSE derived from them);
# loose enough for a deliberate noise-floor correction, tight enough to catch
# a wrong eigenpair or scale
LAMBDA_RTOL = 1e-2
# ladders, predictions and pair sums computed by the same formula
EXACT_RTOL = 1e-8


def debiased_eigh(gram, p_hat):
    """Descending eigenvalues, eigenvectors and trace of a debiased gram."""
    gram[np.diag_indices_from(gram)] *= p_hat
    w, Q = np.linalg.eigh(gram)
    return w[::-1].copy(), Q[:, ::-1].copy(), float(np.trace(gram))


def singular_values(values, trace, r, p_hat):
    tau = (trace - values[:r].sum()) / (values.size - r)
    return np.sqrt(np.clip(values[:r] - tau, 0.0, None)) / p_hat


def spectral_reference(n, d, rows, cols, vals):
    """Right and left debiased-gram eigensystems of the zero-imputed matrix."""
    X = np.zeros((n, d))
    X[rows, cols] = vals
    p_hat = rows.size / (n * d)
    return p_hat, debiased_eigh(X.T @ X, p_hat), debiased_eigh(X @ X.T, p_hat)


def sin2(A, B):
    """Squared Frobenius sine distance between two orthonormal column spans."""
    return max(A.shape[1] - float(np.linalg.norm(A.T @ B) ** 2), 0.0)


def sign_residuals(U, V, lam, rows, cols, vals):
    """(candidates, squared residual on the cells) for every sign vector.

    Closed form ||y||^2 - 2 s.(P^T y) + s^T (P^T P) s with P the per-cell
    factor products, so all 2^r candidates cost O(nnz r^2 + 2^r r^2).
    """
    r = lam.size
    P = lam * U[rows] * V[cols]
    cand = np.array(list(itertools.product((1.0, -1.0), repeat=r)))
    g, H = P.T @ vals, P.T @ P
    res = vals @ vals - 2.0 * cand @ g + np.einsum("ci,ij,cj->c", cand, H, cand)
    return cand, res


def best_signs(U, V, lam, rows, cols, vals):
    cand, res = sign_residuals(U, V, lam, rows, cols, vals)
    return cand[int(np.argmin(res))]


def predict(U, V, coef, rows, cols):
    return np.einsum("ki,ki->k", U[rows] * coef, V[cols])


def rmse(pred, vals):
    return float(np.sqrt(np.mean((pred - vals) ** 2)))


def pair_m2_sums(U, V, coef):
    """S_ij = sum_{k,h} M_kh^2 U_ki V_hi U_kj V_hj for M = U diag(coef) V^T.

    Uses the row-wise Kronecker squares A, B of U, V:
    S = reshape((c (x) c) . (A^T A o B^T B)).
    """
    r = coef.size
    A = (U[:, :, None] * U[:, None, :]).reshape(U.shape[0], r * r)
    B = (V[:, :, None] * V[:, None, :]).reshape(V.shape[0], r * r)
    return (np.outer(coef, coef).ravel() @ ((A.T @ A) * (B.T @ B))).reshape(r, r)


def _rel(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def check_close(what, got, ref, rtol):
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape} != reference {ref.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite values"]
    err = _rel(got, ref)
    return [f"{what}: relative error {err:.3g} > {rtol:g}"] if err > rtol else []


def check_triplets(U, V, lam, ref_U, ref_V, ref_lam):
    """U, V within SIN2_TOL of the reference spans; lambda within LAMBDA_RTOL."""
    out = []
    for name, Z, R in (("U_hat", U, ref_U), ("V_hat", V, ref_V)):
        Z = np.asarray(Z, dtype=np.float64)
        if Z.shape != R.shape:
            out.append(f"{name}: shape {Z.shape} != reference {R.shape}")
        elif (s := sin2(Z, R)) > SIN2_TOL:
            out.append(f"{name}: sin^2 theta {s:.3g} > {SIN2_TOL:g}")
    return out + check_close("lambda_hat", lam, ref_lam, LAMBDA_RTOL)


def check_signs(U, V, lam, signs, rows, cols, vals):
    """The chosen signs reach the minimum observed-cell residual."""
    cand, res = sign_residuals(U, V, lam, rows, cols, vals)
    chosen = float(res[np.flatnonzero((cand == signs).all(axis=1))[0]])
    best = float(res.min())
    if chosen > best + 1e-9 * float(vals @ vals):
        return [f"signs: residual {chosen:.17g} above the minimum {best:.17g}"]
    return []


def check_report(report, U, V, coef, lam, p_hat, n, d):
    """Plug-in covariance and energy variance against the closed form."""
    b = lam / np.sqrt(n * d)
    S = pair_m2_sums(U, V, coef)
    cov = (1.0 - p_hat) / p_hat * (S - np.outer(b, b))
    cov[np.diag_indices_from(cov)] += report.noise_variance / p_hat
    b2 = float(b @ b)
    energy = (4.0 * (1.0 - p_hat) / p_hat * (float(b @ S @ b) - b2 ** 2)
              + 4.0 * report.noise_variance / p_hat * b2)
    out = check_close("covariance", report.covariance, (cov + cov.T) / 2.0, EXACT_RTOL)
    out += check_close("energy_variance", report.energy_variance, energy, EXACT_RTOL)
    return out + check_intervals(report.intervals, lam)


def check_intervals(intervals, lam):
    iv = np.asarray(intervals, dtype=np.float64)
    if iv.shape != (lam.size, 2) or not np.all(np.isfinite(iv)):
        return [f"intervals: bad shape {iv.shape} or non-finite values"]
    if np.any(iv[:, 0] > lam) or np.any(iv[:, 1] < lam):
        return ["intervals: lambda_hat outside its own interval"]
    return []
