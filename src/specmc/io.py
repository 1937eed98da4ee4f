"""File ingestion and report serialization.

Triplet files are delimited text with 1-based (row-id, col-id, value) fields;
extra fields are ignored. numpy's C reader (np.loadtxt) parses a well-formed
file; a file it rejects, or one with an id below 1 or a non-finite value, is
read again by a Python line loop, the reference parser, which accepts what
Python's int() and float() accept and names the file and line of an error.
Dense files are CSV with a configurable missing token. Reports are written
as JSON (sorted keys, floats in Python's shortest round-trip form) or CSV
(floats at 17 significant digits, as are triplet files), so identical inputs
always produce identical bytes.
"""

import sys
import warnings
from dataclasses import dataclass, is_dataclass
from math import isfinite

import numpy as np

from .data import ObservedMatrix

_TRIPLET = np.dtype([("r", np.int64), ("c", np.int64), ("v", np.float64)])
_MAX_ID = np.iinfo(np.int64).max


@dataclass(frozen=True)
class IoOptions:
    """Triplet parsing options.

    delimiter=None splits on any whitespace. dedup is "error" or "average".
    n_rows/n_cols override the dimensions inferred from the largest ids.
    """

    delimiter: str | None = "\t"
    dedup: str = "error"
    n_rows: int | None = None
    n_cols: int | None = None

    def __post_init__(self):
        if self.dedup not in ("error", "average"):
            raise ValueError("dedup must be 'error' or 'average'")


def load_triplets(path, options=IoOptions()):
    """Read a delimited triplet file into an ObservedMatrix.

    numpy's C reader parses the file. When it rejects the file, or reads an
    id below 1 or a non-finite value, the line loop reads it again; the loop
    raises the located message, or parses what the C reader rejects
    (whitespace-only lines, ids written as "1_0").
    """
    delimiter = options.delimiter or None
    cells = _parse_c(path, delimiter)
    rows, cols, vals = cells if cells is not None else _parse_lines(path, delimiter)
    if options.dedup == "average" and rows.size:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # a repeated cell is a run of equal (row, col) in the sorted order
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        start = np.flatnonzero(first)
        vals = _run_means(vals, start)
        rows, cols = rows[start], cols[start]
    n_rows = options.n_rows if options.n_rows is not None else (int(rows.max()) + 1 if rows.size else 0)
    n_cols = options.n_cols if options.n_cols is not None else (int(cols.max()) + 1 if cols.size else 0)
    try:
        return ObservedMatrix(n_rows, n_cols, rows, cols, vals)
    except ValueError as exc:  # an id past n_rows/n_cols, or a duplicate cell
        raise ValueError(f"{path}: {exc}") from None


def _run_means(vals, start):
    """Mean of each run vals[start[i]:start[i + 1]]; finite for finite vals."""
    counts = np.diff(start, append=vals.size)
    # dividing before adding keeps the sum of values near the float maximum
    # finite; the clip undoes rounding that carries a mean out of its run's
    # range (to inf at worst)
    with np.errstate(over="ignore"):
        means = np.add.reduceat(vals / np.repeat(counts, counts), start)
    return np.clip(means, np.minimum.reduceat(vals, start),
                   np.maximum.reduceat(vals, start))


def _parse_c(path, delimiter):
    """0-based (rows, cols, vals) from np.loadtxt, or None to use the loop."""
    if delimiter is not None and len(delimiter) != 1:
        return None
    # a binary handle parses faster than a path, which loadtxt would also
    # decompress when it ends in .gz
    with open(path, "rb") as fh, warnings.catch_warnings():
        # numpy 1.x parses "1.0" as an int id with a DeprecationWarning
        warnings.simplefilter("error")
        try:
            cells = np.loadtxt(fh, dtype=_TRIPLET, delimiter=delimiter,
                               usecols=(0, 1, 2), comments=None, ndmin=1,
                               encoding="utf-8")
        except (ValueError, Warning):  # an empty file warns
            return None
    rows, cols, vals = cells["r"], cells["c"], cells["v"]
    if rows.size and (min(rows.min(), cols.min()) < 1 or not np.isfinite(vals).all()):
        return None
    return rows - 1, cols - 1, vals


def _parse_lines(path, delimiter):
    """0-based (rows, cols, vals) read line by line; raises path:line errors."""
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split(delimiter)
            if len(parts) < 3:
                raise ValueError(f"{path}:{lineno}: expected at least 3 fields")
            try:
                r = int(parts[0])
                c = int(parts[1])
                v = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if r < 1 or c < 1:
                raise ValueError(f"{path}:{lineno}: ids are 1-based, got ({r}, {c})")
            if r > _MAX_ID or c > _MAX_ID:
                raise ValueError(f"{path}:{lineno}: id out of range, got ({r}, {c})")
            if not isfinite(v):
                raise ValueError(f"{path}:{lineno}: non-finite value {parts[2].strip()!r}")
            rows.append(r - 1)
            cols.append(c - 1)
            vals.append(v)
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))


def load_dense(path, missing_token="NA", delimiter=","):
    """Read a rectangular CSV; cells equal to missing_token are unobserved."""
    import csv  # loaded only for dense input
    rows, cols, vals = [], [], []
    width = None
    n_rows = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ValueError(f"{path}:{lineno}: ragged row "
                                 f"({len(record)} fields, expected {width})")
            for j, cell in enumerate(record):
                if cell.strip() == missing_token:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad cell {cell!r}") from None
                if not isfinite(v):
                    raise ValueError(f"{path}:{lineno}: non-finite cell {cell!r}")
                rows.append(lineno - 1)
                cols.append(j)
                vals.append(v)
            n_rows = lineno
    return ObservedMatrix(n_rows, width or 0, rows, cols, vals)


def write_triplets(obs, path, delimiter="\t"):
    """Write an ObservedMatrix as a 1-based triplet file (round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(obs.rows, obs.cols, obs.vals):
            fh.write(f"{r + 1}{delimiter}{c + 1}{delimiter}{_fmt(v)}\n")


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def _plain(obj):
    """What json cannot write itself, as something it can."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj):
    """Bit-stable JSON: sorted keys, compact separators, floats in Python's
    shortest round-trip form; a non-finite float, which JSON has no token
    for, raises ValueError."""
    import json  # loaded only when a report is written
    try:
        return json.dumps(obj, default=_plain, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, ensure_ascii=False)
    except ValueError as exc:
        raise ValueError(f"JSON has no token for a non-finite value ({exc})") from None


def _csv_cell(x):
    if isinstance(x, (float, np.floating)):
        text = _fmt(x)
    elif isinstance(x, (bool, np.bool_)):
        text = "true" if x else "false"
    else:
        text = str(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def dumps_csv(rows):
    """CSV with header from the first row's keys (insertion order), one line
    per row; a cell holding a comma, a quote, a carriage return or a line
    feed is quoted, its quotes doubled, so csv.reader reads the row back
    whole. (csv.writer with a "\\n" terminator leaves a carriage return
    unquoted on Python 3.11.)"""
    rows = list(rows)
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [header] + [[row[k] for k in header] for row in rows]
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in lines)


def write_report(report, path, format="json"):
    """Serialize a result to path ("-" writes to stdout).

    JSON takes nested dicts/lists/arrays, an object with to_dict(), or a
    dataclass without one (written from its fields); CSV takes flat dict rows.
    """
    if format == "json":
        text = dumps_json(report) + "\n"
    elif format == "csv":
        text = dumps_csv(report)
    else:
        raise ValueError(f"unknown format {format!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
