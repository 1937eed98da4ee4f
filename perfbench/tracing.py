"""Spans around calls into specmc's public functions, recorded from outside.

`Tracer.install(specmc)` replaces every binding of an exported layer function
inside the specmc package's loaded modules with a wrapper that records a
span, so calls the pipeline makes internally are timed where they happen and
nest under the call that made them. Library code is not changed; `uninstall`
puts the original functions back.

A span records its name, start, end, parent span and the root it belongs to:
a `request` (one benchmark operation) or the `probe` pass, which calls each
layer once on the workload's input so that every layer has a number.

Run as a script, it executes the specmc CLI under tracing and writes the
spans as JSON:

    python3 perfbench/tracing.py SPANS_OUT N_ROWS -- <specmc cli arguments>
"""

import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# exported name -> span name (module.function)
LAYERS = {
    "load_triplets": "io.load_triplets",
    "write_report": "io.write_report",
    "gram_left": "gram.gram_left",
    "gram_right": "gram.gram_right",
    "bias_adjust": "gram.bias_adjust",
    "sym_eig_desc": "spectral.sym_eig_desc",
    "estimate_singular_triplets": "spectral.estimate_singular_triplets",
    "estimate_rank": "rank.estimate_rank",
    "scree": "rank.scree",
    "resolve_signs_exhaustive": "signs.resolve_signs_exhaustive",
    "resolve_signs_heuristic": "signs.resolve_signs_heuristic",
    "predict_entries": "signs.predict_entries",
    "singular_value_covariance": "inference.singular_value_covariance",
    "squared_sv_sum_variance_plugin": "inference.squared_sv_sum_variance_plugin",
    "build_report": "inference.build_report",
    "generate_instance": "simulate.generate_instance",
    "run_replicate": "simulate.run_replicate",
    "standardized_sv_stat": "metrics.standardized_sv_stat",
    "rmse_on_omega": "metrics.rmse_on_omega",
}
OBSERVED_MATRIX = "data.ObservedMatrix"


def _sum_sq_counts(index, size):
    return int((np.bincount(np.asarray(index), minlength=size).astype(np.int64) ** 2).sum())


def _gram_counts(by_rows):
    def count(args, out):
        obs = args[0]
        idx, size = (obs.rows, obs.n_rows) if by_rows else (obs.cols, obs.n_cols)
        return {"dim": out.shape[0], "dense_bytes": out.nbytes,
                "outer_adds": _sum_sq_counts(idx, size)}
    return count


def _eig_counts(args, out):
    return {"eig_dim": args[0].shape[0], "kept": out.vectors.shape[1]}


def _sign_counts(args, out):
    est, obs = args[0], args[1]
    return {"candidates": 2 ** est.rank, "candidate_cells": 2 ** est.rank * obs.nnz}


def _pair_counts(args, out):
    n, d = args[0].shape
    return {"pair_cells": n * d * args[0].estimate.rank ** 2}


def _write_counts(args, out):
    path = args[1] if len(args) > 1 else "-"
    return {"bytes_written": os.path.getsize(path) if path != "-" else 0}


COUNTERS = {
    "gram_right": _gram_counts(True),
    "gram_left": _gram_counts(False),
    "sym_eig_desc": _eig_counts,
    "resolve_signs_exhaustive": _sign_counts,
    "singular_value_covariance": _pair_counts,
    "write_report": _write_counts,
}


class Tracer:
    """In-memory span recorder; spans of one thread nest by call order."""

    def __init__(self, n_rows):
        self.spans = []
        self._n_rows = n_rows  # tells a left gram (n x n) from a right one
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "name": name, "depth": len(stack),
               "parent": stack[-1]["id"] if stack else None,
               "root": stack[0]["name"] if stack else name}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def _wrap(self, name, fn):
        span_name, counter = LAYERS[name], COUNTERS.get(name)

        def traced(*args, **kwargs):
            label = span_name
            if name == "sym_eig_desc":
                label += "_left" if np.shape(args[0])[0] == self._n_rows else "_right"
            with self.span(label) as rec:
                out = fn(*args, **kwargs)
            if counter:
                rec["counts"] = counter(args, out)
            return out

        return traced

    def install(self, package):
        """Wrap every binding of the exported layer functions in the package."""
        exported = {name: getattr(package, name) for name in LAYERS
                    if hasattr(package, name)}
        wrapped = {name: self._wrap(name, fn) for name, fn in exported.items()}
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for name, fn in exported.items():
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapped[name])
                    self._undo.append((mod, name, fn))
        cls = package.ObservedMatrix
        post_init = cls.__post_init__

        def traced_post_init(obj):
            with self.span(OBSERVED_MATRIX):
                post_init(obj)

        cls.__post_init__ = traced_post_init
        self._undo.append((cls, "__post_init__", post_init))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def covered(spans, root_id):
    """Seconds of a root span covered by its direct children."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] == root_id)


# per-layer time metrics: metric name -> span name
TIME_METRICS = {f"{span}_s": span for span in [
    "io.load_triplets", "io.write_report", OBSERVED_MATRIX,
    "gram.gram_left", "gram.gram_right", "gram.bias_adjust",
    "spectral.sym_eig_desc_left", "spectral.sym_eig_desc_right",
    "spectral.estimate_singular_triplets", "rank.estimate_rank", "rank.scree",
    "signs.resolve_signs_exhaustive", "signs.resolve_signs_heuristic",
    "signs.predict_entries", "inference.singular_value_covariance",
    "inference.squared_sv_sum_variance_plugin", "inference.build_report",
    "simulate.generate_instance", "simulate.run_replicate",
    "metrics.standardized_sv_stat", "metrics.rmse_on_omega"]}
# per-layer count metrics: metric name -> (unit, span names, count key)
COUNT_METRICS = {
    "io.bytes_written": ("bytes", ["io.write_report"], "bytes_written"),
    "gram.left_dim": ("count", ["gram.gram_left"], "dim"),
    "gram.right_dim": ("count", ["gram.gram_right"], "dim"),
    "gram.outer_adds": ("count", ["gram.gram_left", "gram.gram_right"], "outer_adds"),
    "gram.dense_bytes": ("bytes", ["gram.gram_left", "gram.gram_right"], "dense_bytes"),
    "spectral.eig_dim": ("count", ["spectral.sym_eig_desc_left",
                                   "spectral.sym_eig_desc_right"], "eig_dim"),
    "signs.candidates": ("count", ["signs.resolve_signs_exhaustive"], "candidates"),
    "signs.candidate_cells": ("count", ["signs.resolve_signs_exhaustive"], "candidate_cells"),
    "inference.pair_cells": ("count", ["inference.singular_value_covariance"], "pair_cells"),
}


def layer_metrics(spans):
    """Per-call means of each layer's time and counts.

    A layer's calls inside requests are used when there are any; otherwise
    its calls in the probe pass.
    """
    calls = {}
    for s in spans:
        if s["depth"] > 0:
            calls.setdefault(s["name"], {}).setdefault(s["root"], []).append(s)

    def chosen(names):
        out = []
        for name in names:
            by_root = calls.get(name, {})
            out += by_root.get("request") or by_root.get("probe") or []
        return out

    metrics = {}
    for metric, name in TIME_METRICS.items():
        ss = chosen([name])
        metrics[metric] = (sum(s["end"] - s["start"] for s in ss) / len(ss)
                           if ss else 0.0, "s")
    for metric, (unit, names, key) in COUNT_METRICS.items():
        vals = [s["counts"][key] for s in chosen(names)]
        metrics[metric] = (sum(vals) / len(vals) if vals else 0.0, unit)
    eigs = chosen(["spectral.sym_eig_desc_left", "spectral.sym_eig_desc_right"])
    dims = sum(s["counts"]["eig_dim"] for s in eigs)
    metrics["spectral.useful_eig_ratio"] = (
        sum(s["counts"]["kept"] for s in eigs) / dims if dims else 0.0, "ratio")
    return metrics


def import_times(stderr_text):
    """Cumulative seconds of `specmc` and `scipy.stats` from -X importtime."""
    cumulative = {}
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:  # the header line
                pass
    return cumulative.get("specmc", 0.0), cumulative.get("scipy.stats", 0.0)


def main(argv):
    spans_out, n_rows, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(n_rows)
    with tracer.span("request") as root:
        with tracer.span("cli.import"):
            import specmc
            import specmc.cli
        tracer.install(specmc)
        with tracer.span("cli.main"):
            code = specmc.cli.main(cli_args)
    Path(spans_out).write_text(json.dumps({"spans": tracer.spans,
                                           "covered": covered(tracer.spans, root["id"])}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
