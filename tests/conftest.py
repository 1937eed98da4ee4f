"""Shared fixtures."""

import numpy as np
import pytest

from specmc import ObservedMatrix, SimConfig, generate_instance


def _low_rank_cells(seed, n, d, count, rank=3, factor_range=2.0):
    """`count` distinct cells of a rank-`rank` product plus N(0, 1) noise."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-factor_range, factor_range, (n, rank))
    B = rng.uniform(-factor_range, factor_range, (d, rank))
    cells = rng.choice(n * d, count, replace=False)
    rows, cols = cells // d, cells % d
    vals = np.einsum("ki,ki->k", A[rows], B[cols]) + rng.normal(size=count)
    return ObservedMatrix(n, d, rows, cols, vals)


@pytest.fixture(scope="session")
def workload_obs():
    """The benchmark workloads' input shapes, generated on first use.

    ml: 943 x 1682 with ~80k cells (wide, sparse); cli: 2000 x 800 with 80k
    cells; sim: a 1000 x 63 instance at p = 0.5 (tall, dense).
    """
    made = {}
    build = {
        "ml": lambda: _low_rank_cells(1, 943, 1682, 80000),
        "cli": lambda: _low_rank_cells(2, 2000, 800, 80000),
        "sim": lambda: generate_instance(
            SimConfig(n=1000, d=63, p=0.5, sigma=1.0, true_rank=2,
                      replicates=1, seed=3), 0)[1],
    }

    def get(name):
        if name not in made:
            made[name] = build[name]()
        return made[name]

    return get
