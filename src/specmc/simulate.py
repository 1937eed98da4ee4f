"""Replicated synthetic experiments.

Each instance draws two uniform factor matrices, forms the rank-r product,
reveals every cell independently with probability p, and adds i.i.d. normal
noise at the observed cells only. All randomness comes from a counter-based
Philox stream keyed by (seed, replicate index), so any subset of replicates
can be regenerated bit-identically, in any order and on any worker count.
"""

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import GroundTruth, ObservedMatrix, check_int
from .metrics import (MetricRow, frobenius_mse, sign_align, sin_theta_sq,
                      standardized_sv_stat, true_sv_sum_variance)
from .rank import estimate_rank
from .signs import complete, reference_signs
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
            self.d = default_dim(check_int(self.n, "n"))
        if self.metrics_m is None:
            self.metrics_m = self.true_rank
        for name in ("n", "d", "replicates", "seed", "true_rank", "metrics_m"):
            check_int(getattr(self, name), name)
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        if not (0 <= self.sigma < np.inf):
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (1 <= self.true_rank < min(self.n, self.d)):
            raise ValueError(f"true_rank must be in [1, {min(self.n, self.d) - 1}] "
                             f"for n={self.n}, d={self.d}, got {self.true_rank}")
        if not (0 < self.factor_range < np.inf):
            raise ValueError("factor_range must be positive and finite, "
                             f"got {self.factor_range}")
        if not (1 <= self.metrics_m <= self.true_rank):
            raise ValueError("metrics_m must be in [1, true_rank]")
        if self.d > self.n:
            warnings.warn(f"d={self.d} exceeds n={self.n}; the tall-matrix regime is "
                          "the intended one", UserWarning, stacklevel=2)


@dataclass
class SimResult:
    config: SimConfig
    rows: list
    aggregates: dict = field(default_factory=dict)

    def to_rows(self):
        return [dict(replicate=i, **vars(row)) for i, row in enumerate(self.rows)]

    def aggregate_rows(self):
        return [dict(metric=k, mean=v[0], stderr=v[1])
                for k, v in self.aggregates.items()]

    def to_dict(self):
        return {
            "config": vars(self.config),
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
    # flat indices of the observed cells, in the row-major order np.nonzero gives
    cells = np.flatnonzero(rng.random((n, d)) < config.p)
    rows, cols = np.divmod(cells, d)
    vals = truth.M0.ravel()[cells] + rng.normal(0.0, config.sigma, cells.size)
    return truth, ObservedMatrix(n, d, rows, cols, vals)


def run_replicate(config, replicate_index):
    """Full pipeline on one instance, reduced to a MetricRow."""
    truth, obs = generate_instance(config, replicate_index)
    n, d, m = config.n, config.d, config.metrics_m
    est = estimate_singular_triplets(obs, config.true_rank)
    cm = complete(obs, est)
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
        sign_correct=bool(np.array_equal(cm.signs, s0)),
        n_clamped=est.n_clamped,
    )


def _aggregate(rows):
    out = {}
    for name in vars(rows[0]):
        x = np.array([float(getattr(row, name)) for row in rows])
        se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
        out[name] = (float(x.mean()), se)
    return out


def check_workers(workers):
    if check_int(workers, "workers") < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def run_replicates(config, workers=1):
    """Run all replicates and aggregate. Results are gathered in replicate
    order, so the output is identical for any worker count."""
    check_workers(workers)

    def job(i):
        try:
            return run_replicate(config, i)
        except Exception as exc:
            raise RuntimeError(f"replicate {i} failed: {exc}") from exc

    indices = range(config.replicates)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # a threaded batch only
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(job, indices))
    else:
        rows = [job(i) for i in indices]
    return SimResult(config=config, rows=rows, aggregates=_aggregate(rows))
