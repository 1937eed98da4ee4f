"""Replicated synthetic experiments.

Each instance draws two uniform factor matrices, forms the rank-r product,
reveals every cell independently with probability p, and adds i.i.d. normal
noise at the observed cells only. All randomness comes from a counter-based
Philox stream keyed by (seed, replicate index), so any subset of replicates
can be regenerated bit-identically, in any order and on any worker count.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import GroundTruth, ObservedMatrix
from .metrics import (MetricRow, frobenius_mse, sign_align, sin_theta_sq,
                      standardized_sv_stat, true_sv_sum_variance)
from .rank import estimate_rank
from .signs import assemble, reference_signs, resolve_signs_exhaustive
from .spectral import estimate_singular_triplets


def default_dim(n):
    """Column count 2*sqrt(n), rounded half up."""
    return int(np.floor(2.0 * np.sqrt(n) + 0.5))


@dataclass
class SimConfig:
    n: int
    p: float
    sigma: float
    replicates: int
    seed: int
    d: Optional[int] = None
    true_rank: int = 2
    factor_range: float = 5.0
    metrics_m: Optional[int] = None

    def __post_init__(self):
        if self.d is None:
            self.d = default_dim(self.n)
        if self.metrics_m is None:
            self.metrics_m = self.true_rank
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (1 <= self.metrics_m <= self.true_rank):
            raise ValueError("metrics_m must be in [1, true_rank]")
        if self.d > self.n:
            warnings.warn(f"d={self.d} exceeds n={self.n}; the tall-matrix regime is "
                          "the intended one", UserWarning, stacklevel=2)

    def to_dict(self):
        return {
            "n": self.n, "d": self.d, "p": self.p, "sigma": self.sigma,
            "true_rank": self.true_rank, "factor_range": self.factor_range,
            "replicates": self.replicates, "seed": self.seed,
            "metrics_m": self.metrics_m,
        }


@dataclass
class SimResult:
    config: SimConfig
    rows: list
    aggregates: dict = field(default_factory=dict)

    def to_rows(self):
        return [dict(replicate=i, **row.to_dict()) for i, row in enumerate(self.rows)]

    def aggregate_rows(self):
        return [dict(metric=k, mean=v[0], stderr=v[1])
                for k, v in self.aggregates.items()]

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "rows": self.to_rows(),
            "aggregates": {k: {"mean": v[0], "stderr": v[1]}
                           for k, v in self.aggregates.items()},
        }


def _stream(seed, replicate_index):
    key = np.array([seed, replicate_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_instance(config, replicate_index):
    """One (GroundTruth, ObservedMatrix) draw for the given replicate."""
    rng = _stream(config.seed, replicate_index)
    n, d, r = config.n, config.d, config.true_rank
    lim = config.factor_range
    A = rng.uniform(-lim, lim, (n, r))
    B = rng.uniform(-lim, lim, (d, r))
    truth = GroundTruth.from_factors(A, B, config.sigma, config.p)
    mask = rng.random((n, d)) < config.p
    noisy = truth.M0.copy()
    noisy[mask] += rng.normal(0.0, config.sigma, int(mask.sum()))
    return truth, ObservedMatrix.from_mask(noisy, mask)


def run_replicate(config, replicate_index):
    """Full pipeline on one instance, reduced to a MetricRow."""
    truth, obs = generate_instance(config, replicate_index)
    n, d, m = config.n, config.d, config.metrics_m
    est = estimate_singular_triplets(obs, config.true_rank)
    signs = resolve_signs_exhaustive(est, obs)
    cm = assemble(est, signs)
    s0 = reference_signs(est, truth)
    # the variance functional vanishes only in the exact-recovery corner
    # (p=1, sigma=0), where the centered statistic is identically zero
    z = (standardized_sv_stat(est, truth, m)
         if true_sv_sum_variance(truth, m) > 0 else 0.0)
    return MetricRow(
        mse_matrix=frobenius_mse(cm.dense(), truth.M0, n * d),
        mse_lambda=float(((est.lambda_hat - truth.lambdas) ** 2).sum()),
        mse_v=frobenius_mse(sign_align(est.V_hat, truth.V), truth.V, 1.0),
        mse_u=frobenius_mse(sign_align(est.U_hat, truth.U), truth.U, 1.0),
        sin2_v=sin_theta_sq(est.V_hat[:, :m], truth.V[:, :m]),
        sin2_u=sin_theta_sq(est.U_hat[:, :m], truth.U[:, :m]),
        z_stat=z,
        r_hat=estimate_rank(est.right_ladder, est.p_hat, n, d, 1.0).r_hat,
        sign_correct=bool(np.array_equal(signs, s0)),
        n_clamped=est.n_clamped,
    )


def _aggregate(rows):
    out = {}
    names = ["mse_matrix", "mse_lambda", "mse_v", "mse_u", "sin2_v", "sin2_u",
             "z_stat", "r_hat", "sign_correct", "n_clamped"]
    for name in names:
        x = np.array([float(getattr(row, name)) for row in rows])
        se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
        out[name] = (float(x.mean()), se)
    return out


def run_replicates(config, workers=1):
    """Run all replicates and aggregate. Results are gathered in replicate
    order, so the output is identical for any worker count."""
    if config.replicates < 1:
        raise ValueError("need at least one replicate")

    def job(i):
        try:
            return run_replicate(config, i)
        except Exception as exc:
            raise RuntimeError(f"replicate {i} failed: {exc}") from exc

    indices = range(config.replicates)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, indices))
    else:
        rows = [job(i) for i in indices]
    return SimResult(config=config, rows=rows, aggregates=_aggregate(rows))
