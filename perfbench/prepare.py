"""Generate one workload's inputs from a seed and its dense reference.

    python3 perfbench/prepare.py WORKLOAD SEED WORKDIR

Writes into WORKDIR: `spec.json` (shapes and parameters every other process
reads), the input files the program is given, and `ref.npz` / `ref.json`
with the reference quantities the checks compare against. The same seed
always gives the same files.
"""

import json
import sys
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent

# The paper's real-data shape (MovieLens 100k): wide, so the d x d right gram
# and its eigh dominate; rank 12 is the exhaustive sign budget.
ML = dict(n=943, d=1682, p=0.063, true_rank=3, sigma=1.0, factor_range=2.0,
          heldout=0.1, ranks=[3, 12])
# The C3/C4 simulation configuration: tall and denser, left gram dominates.
SIM = dict(n=1000, d=63, p=0.5, sigma=1.0, true_rank=2, references=4, batch=4,
           workers=2)
# The CLI case: one generated triplet file, two subcommands.
CLI = dict(n=2000, d=800, nnz=80000, true_rank=3, sigma=1.0, factor_range=2.0,
           rank=3, scree_k=50)


def _low_rank_cells(rng, n, d, count, true_rank, factor_range, sigma):
    A = rng.uniform(-factor_range, factor_range, (n, true_rank))
    B = rng.uniform(-factor_range, factor_range, (d, true_rank))
    cells = rng.choice(n * d, count, replace=False)
    rows, cols = cells // d, cells % d
    vals = np.einsum("ki,ki->k", A[rows], B[cols]) + rng.normal(0.0, sigma, count)
    return rows, cols, vals


def write_triplets(path, rows, cols, vals):
    # the benchmark's own writer, so the inputs do not depend on the code under test
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{r + 1}\t{c + 1}\t{v!r}\n" for r, c, v in
                         zip(rows.tolist(), cols.tolist(), vals.tolist())))


def prepare_ml(seed, work):
    n, d = ML["n"], ML["d"]
    rng = np.random.default_rng([seed, 1])
    rows, cols, vals = _low_rank_cells(rng, n, d, round(ML["p"] * n * d),
                                       ML["true_rank"], ML["factor_range"], ML["sigma"])
    test = np.zeros(rows.size, dtype=bool)
    test[:round(ML["heldout"] * rows.size)] = True
    write_triplets(work / "train.tsv", rows[~test], cols[~test], vals[~test])
    np.savez(work / "heldout.npz", rows=rows[test], cols=cols[test], vals=vals[test])
    tr = (rows[~test], cols[~test], vals[~test])
    p_hat, (rv, rQ, rtr), (_, lQ, _) = ref.spectral_reference(n, d, *tr)
    out = {"p_hat": p_hat}
    for r in ML["ranks"]:
        U, V = lQ[:, :r], rQ[:, :r]
        lam = ref.singular_values(rv, rtr, r, p_hat)
        coef = ref.best_signs(U, V, lam, *tr) * lam
        out.update({f"U{r}": U, f"V{r}": V, f"lam{r}": lam,
                    f"rmse{r}": ref.rmse(ref.predict(U, V, coef, rows[test], cols[test]),
                                         vals[test])})
    np.savez(work / "ref.npz", **out)
    return dict(ML, input="train.tsv")


def prepare_cli(seed, work):
    n, d = CLI["n"], CLI["d"]
    rng = np.random.default_rng([seed, 3])
    rows, cols, vals = _low_rank_cells(rng, n, d, CLI["nnz"], CLI["true_rank"],
                                       CLI["factor_range"], CLI["sigma"])
    write_triplets(work / "input.tsv", rows, cols, vals)
    p_hat, (rv, _, rtr), _ = ref.spectral_reference(n, d, rows, cols, vals)
    np.savez(work / "ref.npz", lam=ref.singular_values(rv, rtr, CLI["rank"], p_hat),
             ladder=rv[:CLI["scree_k"]])
    return dict(CLI, input="input.tsv")


def _sign_of(x):
    return np.where(x < 0, -1.0, 1.0)


def prepare_sim(seed, work):
    sys.path.insert(0, str(ROOT / "src"))
    import specmc

    cfg = specmc.SimConfig(n=SIM["n"], d=SIM["d"], p=SIM["p"], sigma=SIM["sigma"],
                           replicates=SIM["batch"], seed=seed,
                           true_rank=SIM["true_rank"])
    r, m = cfg.true_rank, cfg.metrics_m
    rows = []
    for i in range(SIM["references"]):
        truth, obs = specmc.generate_instance(cfg, i)
        cells = (np.asarray(obs.rows), np.asarray(obs.cols), np.asarray(obs.vals))
        p_hat, (rv, rQ, rtr), (_, lQ, _) = ref.spectral_reference(cfg.n, cfg.d, *cells)
        U, V = lQ[:, :r], rQ[:, :r]
        lam = ref.singular_values(rv, rtr, r, p_hat)
        s0 = (_sign_of(np.einsum("ki,ki->i", V, truth.V))
              * _sign_of(np.einsum("ki,ki->i", U, truth.U)))
        rows.append({
            "sin2_u": ref.sin2(U[:, :m], truth.U[:, :m]),
            "sin2_v": ref.sin2(V[:, :m], truth.V[:, :m]),
            "lam_err": float(np.linalg.norm(lam - truth.lambdas)),
            "lam_norm": float(np.linalg.norm(lam)),
            "sign_correct": bool(np.array_equal(ref.best_signs(U, V, lam, *cells), s0)),
        })
    (work / "ref.json").write_text(json.dumps(rows))
    return dict(SIM)


PREPARE = {"ml": prepare_ml, "sim": prepare_sim, "cli": prepare_cli}


def main(argv):
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    spec = PREPARE[workload](seed, work)
    spec.update(workload=workload, seed=seed)
    (work / "spec.json").write_text(json.dumps(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
