"""Rank selection on the debiased-gram spectrum, plus scree export.

The paper's threshold p_hat^2 * n * c * log(d) serves as a floor: the
eigenvalues clearing it bound the rank from above. Among those candidates
the rank is read off the largest eigenvalue ratio (Ahn & Horenstein 2013),
taken after shifting the ladder by its last value so that the choice does
not depend on the scale of the data or on a common noise shift.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankDecision:
    """Selected rank: the largest shifted eigenvalue ratio among the values
    clearing the floor p_hat^2 * n * c * log(d) (`threshold`)."""

    r_hat: int
    threshold: float
    eigenvalues: np.ndarray
    c_const: float


def _require_full(ladder, what):
    if not ladder.is_full:
        raise ValueError(
            f"{what} needs the full eigenvalue ladder; got the top "
            f"{ladder.values.size} of {ladder.dim} values")


def check_c_const(c_const):
    if not (0 < c_const < np.inf):
        raise ValueError(f"c_const must be positive and finite, got {c_const}")


def estimate_rank(ladder, p_hat, n, d, c_const=1.0):
    """Estimated rank from the debiased right-gram eigenvalue ladder.

    `ladder` holds the descending spectrum mu_1 >= ... >= mu_dim of the
    d x d debiased gram built from n rows. Let `count` be the number of
    eigenvalues >= the floor p_hat^2 * n * c_const * log(d). If count <= 1,
    r_hat = count. Otherwise r_hat is the k <= min(count, dim // 2) that
    maximises (mu_k - mu_dim) / (mu_{k+1} - mu_dim); a zero denominator
    (the ladder is flat from k+1 on) counts as an infinite ratio, and ties
    go to the smallest k. The shift by mu_dim makes the ratio invariant to
    rescaling the data and to adding a multiple of the identity. A ladder
    holding only the top values (`not ladder.is_full`) is rejected, and so
    is a c_const that is not positive and finite.
    """
    _require_full(ladder, "estimate_rank")
    if p_hat <= 0:
        raise ValueError("p_hat must be positive")
    check_c_const(c_const)
    if d < 2:
        raise ValueError("need d >= 2")
    if ladder.dim > d:
        raise ValueError(f"ladder has {ladder.dim} eigenvalues for d={d}")
    threshold = p_hat**2 * n * c_const * np.log(d)
    values = ladder.values
    r_hat = int((values >= threshold).sum())
    if r_hat > 1:
        k_max = min(r_hat, ladder.dim // 2)
        shifted = values - values[-1]
        num, den = shifted[:k_max], shifted[1:k_max + 1]
        ratios = np.divide(num, den, out=np.full(k_max, np.inf), where=den > 0)
        r_hat = int(np.argmax(ratios)) + 1
    return RankDecision(r_hat=r_hat, threshold=float(threshold),
                        eigenvalues=values.copy(), c_const=float(c_const))


def scree(ladder, k):
    """Top-k (1-based index, eigenvalue) pairs for external plotting.

    The ladder must hold its full spectrum.
    """
    _require_full(ladder, "scree")
    if not (0 <= k <= ladder.dim):
        raise ValueError(f"k must be in [0, {ladder.dim}]")
    return [(i + 1, float(ladder.values[i])) for i in range(k)]
