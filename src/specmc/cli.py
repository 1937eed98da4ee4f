"""Command line front end.

Subcommands: estimate, complete, rank, infer, eval, scree, simulate.
Machine-readable results go to --output (default stdout); progress notes go
to stderr. Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

import argparse
import os
import sys

import numpy as np

from .data import ObservedMatrix
from .gram import observed_fraction
from .inference import build_report, check_alpha
from .io import IoOptions, load_dense, load_triplets, write_report
from .metrics import rmse_on_omega
from .rank import check_c_const, estimate_rank, scree
from .signs import check_cells, complete, predict_entry
from .simulate import SimConfig, check_workers, run_replicates
from .spectral import estimate_singular_triplets, right_ladder


def _log(msg):
    print(msg, file=sys.stderr)


_CD_CONST_HELP = ("constant c of the rank-selection floor p_hat^2*n*c*log(d); "
                  "the rank is the largest eigenvalue ratio among the "
                  "values above it")


def _rank_arg(text):
    if text.lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rank {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("rank must be >= 1 or 'auto'")
    return value


def _predict_arg(text):
    try:
        k, h = text.split(",")
        return int(k), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--predict expects 'row,col', got {text!r}") from None


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _delimiter(text, dense=False):
    """--delimiter as the loaders take it; None splits on any whitespace."""
    if text is None:
        return "," if dense else "\t"
    if text == "\\t":
        return "\t"
    if dense and len(text) != 1:
        # csv.reader, which reads dense input, splits on one character only
        raise ValueError(f"--delimiter {text!r}: dense input takes one character; "
                         "'ws' is for triplet input only")
    return None if text == "ws" else text


def _add_input_flags(sp):
    sp.add_argument("--input", required=True, help="input matrix file")
    sp.add_argument("--input-format", choices=("triplets", "dense"),
                    default="triplets")
    sp.add_argument("--rows", type=int, default=None,
                    help="override row count (triplets only)")
    sp.add_argument("--cols", type=int, default=None,
                    help="override column count (triplets only)")
    sp.add_argument("--delimiter", default=None,
                    help=r"field delimiter (default: tab for triplets, comma "
                         r"for dense); '\t' for tab, 'ws' for whitespace "
                         r"(triplets only)")
    sp.add_argument("--missing-token", default="NA",
                    help="missing-cell token (dense only)")
    sp.add_argument("--dedup", choices=("error", "average"), default="error",
                    help="duplicate (row, col) policy (triplets only)")


def _add_estimate_flags(sp):
    sp.add_argument("--rank", type=_rank_arg, required=True,
                    help="factor count, or 'auto'")
    sp.add_argument("--cd-const", type=float, default=1.0, help=_CD_CONST_HELP)


def _load_input(args):
    if args.input_format == "dense":
        obs = load_dense(args.input, args.missing_token,
                         _delimiter(args.delimiter, dense=True))
    else:
        opts = IoOptions(delimiter=_delimiter(args.delimiter),
                         dedup=args.dedup, n_rows=args.rows, n_cols=args.cols)
        obs = load_triplets(args.input, opts)
    _log(f"loaded {obs.nnz} entries from {args.input} "
         f"({obs.n_rows} x {obs.n_cols})")
    _check_fits(obs, args.input)
    return obs


def _check_fits(obs, path):
    """Refuse a shape whose row and column vectors memory cannot hold.

    Every command allocates float64 arrays as long as a row or a column (the
    row pointer, the factors, the Lanczos basis), so an id far beyond the
    data fails here, before the first of them is allocated.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # the platform does not say
        return
    need = 8 * (obs.n_rows + obs.n_cols)
    if need > have:
        raise ValueError(
            f"{path}: {obs.n_rows} x {obs.n_cols} is too large: one float64 "
            f"vector per row and column takes {need} bytes, more than the "
            f"{have} bytes of memory; check the largest ids or --rows/--cols")


def _estimate(args, obs):
    est = estimate_singular_triplets(obs, args.rank, args.cd_const)
    if args.rank == "auto":
        _log(f"rank selection: r_hat={est.rank} (c={args.cd_const})")
    return est


def cmd_estimate(args):
    obs = _load_input(args)
    est = _estimate(args, obs)
    write_report(est, args.output, "json")
    return 0


def _completed(args, obs):
    cm = complete(obs, _estimate(args, obs))
    _log(f"signs ({cm.method}): {' '.join('%+d' % s for s in cm.signs)}")
    return cm


def cmd_complete(args):
    obs = _load_input(args)
    if args.predict:
        check_cells(obs.shape, *np.array(args.predict).T)
    cm = _completed(args, obs)
    if not args.dense_out:
        write_report(cm, args.output, "json")
    else:
        # opened first, so a bad dense path fails before --output is written
        with open(args.dense_out, "w", encoding="utf-8") as fh:
            try:
                write_report(cm, args.output, "json")
            except BaseException:
                os.remove(args.dense_out)
                raise
            np.savetxt(fh, cm.dense(), delimiter=",", fmt="%.17g")
        _log(f"dense completion written to {args.dense_out}")
    for k, h in args.predict or ():
        print(format(predict_entry(cm, k, h), ".17g"))
    return 0


def _scree_rows(args, ladder):
    k = args.k if args.k is not None else min(50, ladder.dim)
    return [{"index": i, "eigenvalue": v} for i, v in scree(ladder, k)]


def cmd_rank(args):
    obs = _load_input(args)
    ladder = right_ladder(obs)
    decision = estimate_rank(ladder, observed_fraction(obs),
                             obs.n_rows, obs.n_cols, args.cd_const)
    # a bad --k fails here, before either file is written
    rows = _scree_rows(args, ladder) if args.scree_out else None
    write_report(decision, args.output, "json")
    if rows is not None:
        write_report(rows, args.scree_out, "csv")
    return 0


def cmd_scree(args):
    obs = _load_input(args)
    write_report(_scree_rows(args, right_ladder(obs)), args.output, args.format)
    return 0


def cmd_infer(args):
    obs = _load_input(args)
    cm = _completed(args, obs)
    report = build_report(cm, alpha=args.alpha)
    write_report(report, args.output, "json")
    return 0


def _unify_dims(train, test):
    n = max(train.n_rows, test.n_rows)
    d = max(train.n_cols, test.n_cols)
    def grow(obs):
        if obs.shape == (n, d):
            return obs
        return ObservedMatrix(n, d, obs.rows, obs.cols, obs.vals)
    return grow(train), grow(test)


def cmd_eval(args):
    if args.folds:
        pairs = []
        for tok in args.folds.split(","):
            train_path, _, test_path = tok.partition(":")
            if not test_path:
                raise ValueError(f"--folds expects 'train:test' pairs, got {tok!r}")
            pairs.append((train_path, test_path))
    elif args.train and args.test:
        pairs = [(args.train, args.test)]
    else:
        raise ValueError("eval needs --train and --test, or --folds")

    opts_proto = dict(delimiter=_delimiter(args.delimiter), dedup=args.dedup)
    folds = []
    for train_path, test_path in pairs:
        train = load_triplets(train_path, IoOptions(**opts_proto))
        test = load_triplets(test_path, IoOptions(**opts_proto))
        _check_fits(train, train_path)
        _check_fits(test, test_path)
        train, test = _unify_dims(train, test)
        cm = complete(train, _estimate(args, train))
        value = rmse_on_omega(cm, test)
        _log(f"fold {train_path} -> {test_path}: rmse={value:.6f}")
        folds.append({"train": train_path, "test": test_path, "rmse": value})
    if args.format == "csv":
        write_report(folds, args.output, "csv")
    else:
        report = {
            "rank": args.rank,
            "folds": folds,
            "rmse_mean": float(np.mean([f["rmse"] for f in folds])),
        }
        write_report(report, args.output, "json")
    return 0


def cmd_simulate(args):
    # every grid cell's settings are checked before the first cell runs
    grid = [(n, p) for n in args.n_list for p in args.p_list]
    configs = [SimConfig(n=n, p=p, sigma=args.sigma, replicates=args.reps,
                         seed=args.seed + cell, true_rank=args.true_rank,
                         factor_range=args.factor_range)
               for cell, (n, p) in enumerate(grid)]
    check_workers(args.workers)
    for config in configs:
        result = run_replicates(config, workers=args.workers)
        # made once a grid cell has a result, so a failed first cell leaves none
        os.makedirs(args.output, exist_ok=True)
        base = os.path.join(args.output, f"sim_n{config.n}_p{config.p:g}")
        write_report(result.to_rows(), base + ".csv", "csv")
        write_report(result.aggregate_rows(), base + ".aggregates.csv", "csv")
        write_report(result, base + ".json", "json")
        _log(f"n={config.n} p={config.p:g}: wrote {base}.csv ({config.replicates} replicates)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specmc",
        description="Spectral estimation and completion of partially "
                    "observed low rank matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(sp):
        sp.add_argument("--output", default="-",
                        help="output path ('-' for stdout)")

    sp = sub.add_parser("estimate", help="estimate singular triplets")
    _add_input_flags(sp)
    _add_estimate_flags(sp)
    common_out(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("complete", help="estimate, resolve signs, assemble")
    _add_input_flags(sp)
    _add_estimate_flags(sp)
    sp.add_argument("--dense-out", default=None,
                    help="also write the dense completion as CSV")
    sp.add_argument("--predict", type=_predict_arg, action="append",
                    help="print the completion at 'row,col' (0-based); repeatable")
    common_out(sp)
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("rank", help="rank selection and scree export")
    _add_input_flags(sp)
    sp.add_argument("--cd-const", type=float, default=1.0, help=_CD_CONST_HELP)
    sp.add_argument("--k", type=int, default=None, help="scree length")
    sp.add_argument("--scree-out", default=None, help="scree CSV path")
    common_out(sp)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("infer", help="confidence intervals for singular values")
    _add_input_flags(sp)
    _add_estimate_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    common_out(sp)
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("eval", help="held-out RMSE of the completion")
    sp.add_argument("--train", default=None)
    sp.add_argument("--test", default=None)
    sp.add_argument("--folds", default=None,
                    help="comma-separated train:test pairs")
    sp.add_argument("--delimiter", default=None)
    sp.add_argument("--dedup", choices=("error", "average"), default="error")
    _add_estimate_flags(sp)
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="json report or CSV of per-fold rows")
    common_out(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("scree", help="export leading eigenvalues")
    _add_input_flags(sp)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    common_out(sp)
    sp.set_defaults(func=cmd_scree)

    sp = sub.add_parser("simulate", help="replicated synthetic experiments")
    sp.add_argument("--n-list", type=_int_list, required=True)
    sp.add_argument("--p-list", type=_float_list, required=True)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--reps", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--true-rank", type=int, default=2)
    sp.add_argument("--factor-range", type=float, default=5.0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--output", required=True, help="output directory")
    sp.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # settings are checked before any input is read
        if "cd_const" in args:
            check_c_const(args.cd_const)
        if "alpha" in args:
            check_alpha(args.alpha)
        return args.func(args)
    except (ValueError, OSError, IndexError, RuntimeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
