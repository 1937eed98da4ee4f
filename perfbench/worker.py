"""Closed-loop request runner for the in-process workloads.

    python3 perfbench/worker.py WORKLOAD WORKDIR SECONDS TRACE

`ml` and `sim` run their requests here, one after another from this single
process, for SECONDS of wall time after one warm-up request; every output
is checked against the reference written by prepare.py, outside the timed
region. With TRACE=1 the first half of the time runs untraced and the second
half traced, followed by the probe pass; for `cli` only the probe pass runs
here (its requests are separate processes started by run.py). The result
goes to WORKDIR/result.json.
"""

import json
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

import numpy as np

import reference as ref
import tracing
from prepare import write_triplets

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import specmc as S  # noqa: E402


class Ml:
    """estimate -> complete(auto) -> build_report -> predict held-out cells
    -> write_report, alternating rank 3 and rank 12."""

    kinds = ("infer", "infer_r12")

    def __init__(self, spec, work):
        self.spec, self.n, self.d = spec, spec["n"], spec["d"]
        self.obs = S.load_triplets(str(work / spec["input"]),
                                   S.IoOptions(n_rows=self.n, n_cols=self.d))
        held = np.load(work / "heldout.npz")
        self.test = (held["rows"], held["cols"], held["vals"])
        self.ref = dict(np.load(work / "ref.npz"))
        self.report_path = str(work / "report.json")
        self.heldout_rmse = {}

    def request(self, i):
        kind, r = self.kinds[i % 2], self.spec["ranks"][i % 2]
        rows, cols, _ = self.test

        def run():
            est = S.estimate_singular_triplets(self.obs, r)
            cm = S.complete(self.obs, est)
            report = S.build_report(cm)
            pred = S.predict_entries(cm, rows, cols)
            S.write_report(report, self.report_path, "json")
            return est, cm, report, pred

        def check(out):
            est, cm, report, pred = out
            U, V, lam = est.U_hat, est.V_hat, est.lambda_hat
            R = self.ref
            cells = (self.obs.rows, self.obs.cols, self.obs.vals)
            coef = cm.signs * lam
            fails = ref.check_triplets(U, V, lam, R[f"U{r}"], R[f"V{r}"], R[f"lam{r}"])
            if fails:
                return fails
            fails += ref.check_signs(U, V, lam, cm.signs, *cells)
            fails += ref.check_close("predict_entries", pred,
                                     ref.predict(U, V, coef, rows, cols), ref.EXACT_RTOL)
            rmse = ref.rmse(pred, self.test[2])
            if rmse > float(R[f"rmse{r}"]) * (1 + ref.LAMBDA_RTOL):
                fails.append(f"held-out rmse {rmse:.6g} above reference {float(R[f'rmse{r}']):.6g}")
            self.heldout_rmse[kind] = rmse
            return fails + ref.check_report(report, U, V, coef, lam, float(R["p_hat"]),
                                            self.n, self.d)

        return kind, run, check


class Sim:
    """run_replicate one at a time, with a run_replicates(workers=2) batch
    after every four."""

    kinds = ("replicate", "batch")

    def __init__(self, spec, work):
        self.spec, self.n, self.d = spec, spec["n"], spec["d"]
        self.cfg = S.SimConfig(n=spec["n"], d=spec["d"], p=spec["p"], sigma=spec["sigma"],
                               replicates=spec["batch"], seed=spec["seed"],
                               true_rank=spec["true_rank"])
        self.ref = json.loads((work / "ref.json").read_text())

    def check_row(self, row, rf):
        fields = [row.mse_matrix, row.mse_lambda, row.mse_v, row.mse_u,
                  row.sin2_v, row.sin2_u, row.z_stat]
        if not np.all(np.isfinite(fields)):
            return ["replicate metrics not finite"]
        fails = []
        for key in ("sin2_u", "sin2_v"):
            tol = ref.SIN2_TOL + 2 * np.sqrt(ref.SIN2_TOL * rf[key])
            if abs(getattr(row, key) - rf[key]) > tol:
                fails.append(f"{key} {getattr(row, key):.6g} vs reference {rf[key]:.6g}")
        if abs(np.sqrt(row.mse_lambda) - rf["lam_err"]) > ref.LAMBDA_RTOL * rf["lam_norm"]:
            fails.append(f"lambda error {np.sqrt(row.mse_lambda):.6g} vs reference "
                         f"{rf['lam_err']:.6g}")
        if bool(row.sign_correct) != rf["sign_correct"]:
            fails.append("sign_correct differs from the minimum-residual reference")
        return fails

    def request(self, i):
        if i % 5 == 4:
            def run():
                return S.run_replicates(self.cfg, workers=self.spec["workers"])

            def check(result):
                if len(result.rows) != self.cfg.replicates:
                    return [f"batch returned {len(result.rows)} rows"]
                return [f for j, row in enumerate(result.rows)
                        for f in self.check_row(row, self.ref[j])]

            return "batch", run, check
        j = (i - i // 5) % len(self.ref)
        return ("replicate", lambda: S.run_replicate(self.cfg, j),
                lambda row: self.check_row(row, self.ref[j]))


class Loop:
    """Runs requests in a closed loop and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors = []
        self.i = 0

    def one(self, tracer=None):
        kind, run, check = self.workload.request(self.i)
        self.i += 1
        self.attempted += 1
        root = None
        try:
            start = time.perf_counter()
            if tracer:
                with tracer.span("request") as root:
                    out = run()
            else:
                out = run()
            wall = time.perf_counter() - start
            fails = check(out)
        except Exception:
            self.failed += 1
            self.errors.append(f"{kind}: {traceback.format_exc(limit=3)}")
            return kind, None, root
        if fails:
            self.failed += 1
            self.errors.append(f"{kind}: {'; '.join(fails)}")
        return kind, wall, root

    def run_for(self, seconds, tracer=None):
        samples = {k: [] for k in self.workload.kinds}
        roots = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            kind, wall, root = self.one(tracer)
            if wall is not None:
                samples[kind].append(wall)
                if root:
                    roots.append((kind, root))
        return samples, roots


def probe(spec, work, tracer):
    """Call every layer once, in pipeline order, on this workload's input."""
    n, d = spec["n"], spec["d"]
    r = spec.get("rank", spec["true_rank"])
    cfg = S.SimConfig(n=n, d=d, p=spec.get("p", spec.get("nnz", 0) / (n * d)),
                      sigma=spec["sigma"], replicates=1, seed=spec["seed"], true_rank=r)
    with tracer.span("probe"):
        path = work / spec.get("input", "probe.tsv")
        if "input" not in spec:
            _, obs = S.generate_instance(cfg, 0)
            write_triplets(path, np.asarray(obs.rows), np.asarray(obs.cols),
                           np.asarray(obs.vals))
        obs = S.load_triplets(str(path), S.IoOptions(n_rows=n, n_cols=d))
        est = S.estimate_singular_triplets(obs, r)
        S.estimate_rank(est.right_ladder, est.p_hat, n, d)
        S.scree(est.right_ladder, min(50, d))
        signs = S.resolve_signs_exhaustive(est, obs)
        S.resolve_signs_heuristic(est, obs)
        cm = S.assemble(est, signs)
        k = min(1000, obs.nnz)
        S.rmse_on_omega(cm, S.ObservedMatrix(n, d, obs.rows[:k], obs.cols[:k], obs.vals[:k]))
        S.write_report(S.build_report(cm), str(work / "probe.json"), "json")
        S.run_replicate(cfg, 0)


WORKLOADS = {"ml": Ml, "sim": Sim}


def main(argv):
    name, work, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    warnings.simplefilter("ignore")
    spec = json.loads((work / "spec.json").read_text())
    result = {}
    tracer = tracing.Tracer(spec["n"]) if trace else None
    if name in WORKLOADS:
        loop = Loop(WORKLOADS[name](spec, work))
        loop.one()  # warm-up: first-call costs are paid once per process
        if trace:
            untraced, _ = loop.run_for(seconds / 2)
            tracer.install(S)
            _, roots = loop.run_for(seconds / 2, tracer)
            # req1 requests only: a sim batch runs its replicates on pool threads
            roots = [r for k, r in roots if k == loop.workload.kinds[0]]
            result.update(
                overhead_s=(median(r["end"] - r["start"] for r in roots)
                            - median(untraced[loop.workload.kinds[0]])),
                coverage=[tracing.covered(tracer.spans, r["id"]) / (r["end"] - r["start"])
                          for r in roots])
        else:
            result["samples"], _ = loop.run_for(seconds)
        result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
                      heldout_rmse=getattr(loop.workload, "heldout_rmse", None))
    if trace:
        if name not in WORKLOADS:
            tracer.install(S)
        probe(spec, work, tracer)
        tracer.uninstall()
        result["spans"] = tracer.spans
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
