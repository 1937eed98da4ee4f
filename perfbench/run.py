"""Pipeline benchmark for specmc.

    python3 perfbench/run.py --workload {ml,sim,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
./src, nothing is installed. Inputs are generated from --seed; the program
only ever sees those inputs. Requests run in a closed loop (each starts when
the previous one has finished) from one client for S seconds, and every
output is checked against an independent dense numpy reference.

Workloads and their two request kinds (req1, req2):
  ml   MovieLens-shaped 943 x 1682, ~90k training cells, 10% held out.
       req1 = infer at rank 3, req2 = infer at rank 12 (the exhaustive sign
       budget); each is estimate -> complete -> build_report -> predict the
       held-out cells -> write the report. Run in one worker process.
  sim  SimConfig(n=1000, d=63, p=0.5, sigma=1, true_rank=2).
       req1 = run_replicate, req2 = run_replicates batch of 4, workers=2.
  cli  a 2000 x 800, 80k-cell triplet file; every request is a fresh
       `python -m specmc.cli` process. req1 = infer --rank 3,
       req2 = rank --scree-out.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
a traced run gives the per-layer ones. The line before it holds the same
figures under workload-specific names, with sample counts and the
environment.
"""

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from importlib.util import find_spec
from pathlib import Path
from statistics import median

import numpy as np

import reference as ref
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170.0

REQUESTS = {"ml": ("infer", "infer_r12"), "sim": ("replicate", "batch"),
            "cli": ("cli_infer", "cli_rank")}


class Failure(Exception):
    """A step of the benchmark itself could not run."""


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv, stderr_path=None, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion; (exit code, wall seconds, peak RSS MB)."""
    err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0
    finally:
        if stderr_path:
            err.close()


def python(script, *args):
    return [sys.executable, str(BENCH / script), *map(str, args)]


def tail(samples):
    """The value with ten samples above it, never below the upper median."""
    xs = sorted(samples)
    return xs[max(len(xs) - 11, len(xs) // 2)]


def timing(name, samples):
    return {f"{name}_p50_s": (median(samples), "s", len(samples)),
            f"{name}_tail_s": (tail(samples), "s", len(samples))}


def environment(backend):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    commit = None  # the checkout may not be a git repository
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba_importable": find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_lines": src_lines,
        "backend": backend,
    }


class Run:
    def __init__(self, args, work):
        self.args, self.work = args, work
        self.attempted = self.failed = 0
        self.errors = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def prepare(self):
        code, _, _ = spawn(python("prepare.py", self.args.workload, self.args.seed, self.work),
                           self.work / "prepare.err")
        if code != 0:
            raise Failure("input generation failed:\n"
                          + (self.work / "prepare.err").read_text()[-2000:])
        self.spec = json.loads((self.work / "spec.json").read_text())
        # the first import compiles bytecode and fills the file cache
        first = subprocess.run([sys.executable, "-c", "import specmc; "
                                "print(getattr(specmc, 'BACKEND', None))"],
                               cwd=ROOT, env=child_env(), capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        if first.returncode != 0:
            raise Failure("import specmc failed:\n" + first.stderr[-2000:])
        self.backend = first.stdout.strip()

    def setup_times(self):
        """Fresh interpreter: import specmc, then load the input file."""
        code = "import specmc"
        if "input" in self.spec:
            code += (f"; specmc.load_triplets({str(self.work / self.spec['input'])!r}, "
                     f"specmc.IoOptions(n_rows={self.spec['n']}, n_cols={self.spec['d']}))")
        argv = [sys.executable, "-c", code]
        walls = []
        for _ in range(SETUP_REPEATS):
            rc, wall, _ = spawn(argv)
            self.op(rc == 0, f"setup exited {rc}")
            walls.append(wall)
        return walls

    def import_times(self):
        specmc_s, stats_s = [], []
        err = self.work / "importtime.err"
        for _ in range(IMPORTTIME_REPEATS):
            spawn([sys.executable, "-X", "importtime", "-c", "import specmc"], err)
            a, b = tracing.import_times(err.read_text())
            specmc_s.append(a)
            stats_s.append(b)
        return median(specmc_s), median(stats_s)

    def worker(self, seconds, trace):
        out = self.work / "result.json"
        out.unlink(missing_ok=True)
        code, _, rss = spawn(python("worker.py", self.args.workload, self.work, seconds,
                                    int(trace)), self.work / "worker.err")
        if code != 0 or not out.is_file():
            raise Failure(f"worker exited {code}:\n"
                          + (self.work / "worker.err").read_text()[-3000:])
        result = json.loads(out.read_text())
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.errors += result.get("errors", [])
        return result, rss

    # -- cli: every request is a process -------------------------------------

    def cli_argv(self, kind):
        s, w = self.spec, self.work
        common = ["--input", str(w / s["input"]), "--rows", str(s["n"]), "--cols", str(s["d"])]
        if kind == "cli_infer":
            return ["infer", *common, "--rank", str(s["rank"]), "--output", str(w / "infer.json")]
        return ["rank", *common, "--scree-out", str(w / "scree.csv"),
                "--output", str(w / "rank.json")]

    def cli_check(self, kind):
        w, R = self.work, self.ref
        if kind == "cli_infer":
            rep = json.loads((w / "infer.json").read_text())
            lam = np.asarray(rep["lambda_hat"], dtype=np.float64)
            return (ref.check_close("lambda_hat", lam, R["lam"], ref.LAMBDA_RTOL)
                    + ref.check_intervals(rep["intervals"], lam))
        ladder = np.asarray(json.loads((w / "rank.json").read_text())["eigenvalues"])
        k = min(ladder.size, R["ladder"].size)
        fails = ref.check_close("rank eigenvalues", ladder[:k], R["ladder"][:k], ref.EXACT_RTOL)
        with open(w / "scree.csv", newline="") as fh:
            scree = list(csv.DictReader(fh))
        if [int(row["index"]) for row in scree] != list(range(1, R["ladder"].size + 1)):
            return fails + [f"scree: {len(scree)} rows, expected {R['ladder'].size}"]
        return fails + ref.check_close("scree", [float(row["eigenvalue"]) for row in scree],
                                       R["ladder"], ref.EXACT_RTOL)

    def cli_request(self, kind, spans_path=None):
        for name in ("infer.json", "rank.json", "scree.csv"):
            (self.work / name).unlink(missing_ok=True)
        argv = [sys.executable, "-m", "specmc.cli", *self.cli_argv(kind)]
        if spans_path:
            argv = python("tracing.py", spans_path, self.spec["n"], "--", *self.cli_argv(kind))
        code, wall, rss = spawn(argv, self.work / "cli.err")
        try:
            fails = [f"exit code {code}"] if code else self.cli_check(kind)
        except (OSError, ValueError, KeyError) as exc:
            fails = [f"unreadable output: {exc!r}"]
        self.op(not fails, f"{kind}: {'; '.join(fails)}")
        return (None if code else wall), rss

    def cli_loop(self, seconds, traced=False):
        samples = {k: [] for k in REQUESTS["cli"]}
        rss, spans, coverage = [], [], []
        end, i = time.perf_counter() + seconds, 0
        while time.perf_counter() < end:
            kind = REQUESTS["cli"][i % 2]
            i += 1
            spans_path = self.work / "spans.json" if traced else None
            wall, peak = self.cli_request(kind, spans_path)
            if wall is None:
                continue
            samples[kind].append(wall)
            rss.append(peak)
            if traced:
                data = json.loads(spans_path.read_text())
                spans += data["spans"]
                if kind == REQUESTS["cli"][0]:
                    coverage.append(data["covered"] / wall)
                spans_path.unlink()
        return samples, rss, spans, coverage

    # -- the two kinds of run ------------------------------------------------

    def measure(self):
        a = self.args
        req1, req2 = REQUESTS[a.workload]
        setup = self.setup_times()
        if a.workload == "cli":
            samples, rss, _, _ = self.cli_loop(a.seconds)
            peak, result = max(rss, default=0.0), {}
        else:
            result, peak = self.worker(a.seconds, False)
            samples = result["samples"]
        if not samples[req1] or not samples[req2]:
            raise Failure(f"no completed request of each kind: {self.errors[:3]}")
        count = sum(map(len, samples.values()))
        named = {"setup_s": (median(setup), "s", len(setup))}
        if a.workload == "sim":
            batches = samples["batch"]
            throughput = self.spec["batch"] * len(batches) / sum(batches)
            named["replicates_per_s"] = (throughput, "1/s", len(batches))
        else:
            throughput = count / sum(map(sum, samples.values()))
            named["requests_per_s"] = (throughput, "1/s", count)
        if a.workload == "ml":
            named["heldout_rmse"] = (result["heldout_rmse"].get("infer", float("nan")), "1", 1)
        named.update(timing(req1, samples[req1]))
        named.update(timing(req2, samples[req2]))
        named["peak_rss_mb"] = (peak, "MB", 1)
        named["error_rate"] = (self.failed / max(self.attempted, 1), "1", self.attempted)
        metrics = {
            "setup_s": named["setup_s"],
            "req1_p50_s": named[f"{req1}_p50_s"], "req1_tail_s": named[f"{req1}_tail_s"],
            "req2_p50_s": named[f"{req2}_p50_s"], "req2_tail_s": named[f"{req2}_tail_s"],
            "throughput_per_s": (throughput, "1/s", count),
            "peak_rss_mb": named["peak_rss_mb"],
        }
        return named, metrics

    def trace(self):
        a = self.args
        import_s, stats_s = self.import_times()
        if a.workload == "cli":
            untraced, _, _, _ = self.cli_loop(a.seconds / 2)
            traced, _, spans, coverage = self.cli_loop(a.seconds / 2, traced=True)
            overhead = median(traced["cli_infer"]) - median(untraced["cli_infer"])
            result, _ = self.worker(0, True)
            spans += result["spans"]
        else:
            result, _ = self.worker(a.seconds, True)
            spans, coverage, overhead = result["spans"], result["coverage"], result["overhead_s"]
        metrics = {name: (value, unit, 1)
                   for name, (value, unit) in tracing.layer_metrics(spans).items()}
        metrics["cli.import_s"] = (import_s, "s", IMPORTTIME_REPEATS)
        metrics["cli.import_scipy_stats_s"] = (stats_s, "s", IMPORTTIME_REPEATS)
        metrics["trace.coverage"] = (median(coverage), "ratio", len(coverage))
        metrics["trace.overhead_s"] = (overhead, "s", len(coverage))
        return metrics, metrics

    def run(self):
        self.prepare()
        if self.args.workload == "cli":
            self.ref = dict(np.load(self.work / "ref.npz"))
        named, metrics = self.trace() if self.args.trace else self.measure()
        print(f"{self.args.workload} seed={self.args.seed}: {self.attempted} operations, "
              f"{self.failed} failed", file=sys.stderr)
        for err in self.errors[:5]:
            print("  " + err.strip().replace("\n", "\n  "), file=sys.stderr)
        print(json.dumps({
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "environment": environment(self.backend),
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in named.items()},
        }))
        print(json.dumps({
            "correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }))
        return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(REQUESTS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "specmc" / "__init__.py").is_file():
        print(f"error: no specmc package under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return Run(args, work).run()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
