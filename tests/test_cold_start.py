"""Fresh interpreters: what importing specmc and running a subcommand load.

scipy costs about 0.3 s of import time, so the package imports it only
inside the functions that call it; each test runs in a new process.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import specmc

SRC = os.path.dirname(os.path.dirname(specmc.__file__))
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _fresh(code):
    """stdout of `code` run in a new interpreter on the specmc under test."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["specmc", "specmc.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import sys, {module}; print({SCIPY_LOADED})") == "[]"


def test_import_loads_no_unused_stdlib():
    # statistics serves intervals, concurrent.futures threaded batches, csv
    # dense input and json reports; each is imported where it is used
    code = ("import sys, specmc; "
            "print([m for m in ('statistics', 'concurrent.futures', 'csv', 'json') "
            "if m in sys.modules])")
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("argv", [["rank", "--scree-out", "{tmp}/scree.csv"],
                                  ["scree", "--k", "5"]], ids=["rank", "scree"])
def test_rank_and_scree_load_no_scipy(tmp_path, argv):
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 15))
    rows, cols = np.nonzero(rng.random((40, 15)) < 0.6)
    (tmp_path / "m.tsv").write_text("".join(f"{i + 1}\t{j + 1}\t{dense[i, j]:.17g}\n"
                                            for i, j in zip(rows, cols)))
    args = [a.format(tmp=tmp_path) for a in argv]
    args += ["--input", str(tmp_path / "m.tsv"), "--output", str(tmp_path / "out")]
    code = (f"import sys; from specmc.cli import main; "
            f"print(main({args!r}), {SCIPY_LOADED})")
    assert _fresh(code) == "0 []"
    assert (tmp_path / "out").stat().st_size > 0


def test_first_threaded_batch_equals_serial():
    # both worker threads reach their first scipy import at the same moment
    code = ("import sys\n"
            "from specmc import SimConfig, dumps_csv, run_replicates\n"
            "cfg = SimConfig(n=50, p=0.6, sigma=1.0, replicates=6, seed=9)\n"
            "assert 'scipy' not in sys.modules\n"
            "threaded = dumps_csv(run_replicates(cfg, workers=2).to_rows())\n"
            "serial = dumps_csv(run_replicates(cfg, workers=1).to_rows())\n"
            "print(threaded == serial)\n")
    assert _fresh(code) == "True"
