"""Ingestion, projection, and deterministic serialization."""

import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmc.io as sio
from specmc import (IoOptions, ObservedMatrix, dumps_json, load_dense,
                    load_triplets, project_omega, write_report, write_triplets)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadTriplets:
    def test_basic_tab_file(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "1\t1\t5\n2\t3\t4.5\n1\t2\t3\n")
        obs = load_triplets(path)
        assert obs.shape == (2, 3)
        assert obs.nnz == 3
        # canonical row-major order
        assert obs.rows.tolist() == [0, 0, 1]
        assert obs.cols.tolist() == [0, 1, 2]
        assert obs.vals.tolist() == [5.0, 3.0, 4.5]

    def test_empty_file_with_explicit_dims(self, tmp_path):
        path = _write(tmp_path, "empty.tsv", "")
        obs = load_triplets(path, IoOptions(n_rows=2, n_cols=2))
        assert obs.shape == (2, 2)
        assert obs.nnz == 0

    def test_dedup_average(self, tmp_path):
        path = _write(tmp_path, "dup.txt", "1 1 5\n1 1 3\n")
        obs = load_triplets(path, IoOptions(delimiter=" ", dedup="average"))
        assert obs.nnz == 1
        assert (obs.rows[0], obs.cols[0], obs.vals[0]) == (0, 0, 4.0)

    def test_duplicates_error_by_default(self, tmp_path):
        path = _write(tmp_path, "dup.txt", "1 1 5\n1 1 3\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_triplets(path, IoOptions(delimiter=" "))

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = _write(tmp_path, "bad.tsv", "1\t1\t5\n2\t2\n")
        with pytest.raises(ValueError, match=":2:"):
            load_triplets(path)

    def test_non_numeric_value_reports_lineno(self, tmp_path):
        path = _write(tmp_path, "bad.tsv", "1\t1\tfive\n")
        with pytest.raises(ValueError, match=":1:"):
            load_triplets(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_value_reports_lineno(self, tmp_path, token):
        path = _write(tmp_path, "nf.tsv", f"1\t1\t5\n\n2\t2\t{token}\n")
        with pytest.raises(ValueError, match=r"nf\.tsv:3: non-finite value"):
            load_triplets(path)

    def test_ids_are_one_based(self, tmp_path):
        path = _write(tmp_path, "zero.tsv", "0\t1\t5\n")
        with pytest.raises(ValueError, match="1-based"):
            load_triplets(path)

    def test_id_beyond_int64_reports_lineno(self, tmp_path):
        path = _write(tmp_path, "big.tsv", "1\t1\t5\n2\t99999999999999999999\t1\n")
        with pytest.raises(ValueError, match=r"big\.tsv:2: id out of range"):
            load_triplets(path)

    def test_largest_int64_id_accepted(self, tmp_path):
        path = _write(tmp_path, "max.tsv", "9223372036854775807\t1\t5\n")
        assert load_triplets(path).shape == (2**63 - 1, 1)

    def test_extra_fields_ignored(self, tmp_path):
        path = _write(tmp_path, "ml.tsv", "1\t1\t5\t874965758\n")
        obs = load_triplets(path)
        assert obs.vals.tolist() == [5.0]

    def test_dims_override_too_small(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "3\t1\t5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_triplets(path, IoOptions(n_rows=2, n_cols=2))


def _line_loop_only():
    # load_triplets with the C reader off: the line loop parses every file
    return mock.patch.object(sio, "_parse_c", return_value=None)


def _outcome(path, options):
    """load_triplets' ObservedMatrix or ValueError message, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = load_triplets(path, options)
        except ValueError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


def _same_as_line_loop(path, options):
    got = _outcome(path, options)
    with _line_loop_only():
        assert got == _outcome(path, options)
    return got


class TestCReader:
    """The C-parsed path gives what the line loop gives, on any input."""

    # (file text, delimiter, the result's shape or its error pattern); the C
    # reader rejects each of these, and the line loop reads it again
    FALLBACKS = [
        ("", "\t", (0, 0)),
        ("1\t1\t5\n  \t\n2\t2\t4\n", "\t", (2, 2)),
        ("# r\tc\tv\n1\t1\t5\n", "\t", r"t\.tsv:1: invalid literal for int"),
        ("1.0\t1\t5\n", "\t", r"t\.tsv:1: invalid literal for int"),
        ("1_0\t1\t5\n", "\t", (10, 1)),
        ("1\t1\t5\n2\t2\tnan\n", "\t", r"t\.tsv:2: non-finite value 'nan'"),
        ("1\t1\t5\n2\t2\n", "\t", r"t\.tsv:2: expected at least 3 fields"),
        ("1,1,5\n1,2\n", ",", r"t\.tsv:2: expected at least 3 fields"),
        ("0\t1\t5\n", "\t", r"t\.tsv:1: ids are 1-based"),
        ("99999999999999999999\t1\t5\n", "\t", r"t\.tsv:1: id out of range"),
        ("1\t1\t5\r2\t2\t4\r", "\t", (2, 2)),
        ("\ufeff1\t1\t5\n", "\t", r"t\.tsv:1: invalid literal for int"),
        ("1::1::5\n", "::", (1, 1)),
    ]

    @pytest.mark.parametrize("text, delimiter, expected", FALLBACKS)
    def test_fallback_matches_line_loop(self, tmp_path, text, delimiter, expected):
        path = tmp_path / "t.tsv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sio._parse_c(path, delimiter) is None
        got, caught = _same_as_line_loop(path, IoOptions(delimiter=delimiter))
        assert caught == []
        if isinstance(expected, tuple):
            assert got.shape == expected
        else:
            assert re.search(expected, got), got

    @pytest.mark.parametrize("workload", ["cli", "ml"])
    def test_benchmark_files_parse_in_c(self, tmp_path, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import prepare
        cfg = {"cli": prepare.CLI, "ml": prepare.ML}[workload]
        n, d = cfg["n"], cfg["d"]
        count = cfg.get("nnz") or round(cfg["p"] * n * d)
        cells = prepare._low_rank_cells(np.random.default_rng(1), n, d, count,
                                        cfg["true_rank"], cfg["factor_range"],
                                        cfg["sigma"])
        path = tmp_path / "in.tsv"
        prepare.write_triplets(path, *cells)
        assert sio._parse_c(path, "\t") is not None
        got, caught = _same_as_line_loop(path, IoOptions(n_rows=n, n_cols=d))
        assert got.nnz == count and caught == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_file_matches_line_loop(self, data):
        draw = data.draw
        delimiter = draw(st.sampled_from(["\t", ",", None]), label="delimiter")
        n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        value = st.floats(allow_nan=False, allow_infinity=False)
        cells = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, d), value),
                              max_size=10))
        dedup = draw(st.sampled_from(["error", "average"]))
        if cells and dedup == "average":
            repeats = draw(st.lists(st.tuples(st.sampled_from(cells), value), max_size=4))
            cells += [(r, c, v) for (r, c, _), v in repeats]
        lines = []
        for r, c, v in cells:
            text = draw(st.sampled_from([repr(v), format(v, ".17g"), format(v, "e")]))
            fields = [str(r), str(c), text]
            fields += draw(st.lists(st.sampled_from(["874965758", "x", "-2.5"]), max_size=2))
            sep = delimiter or draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            lines.append(sep.join(fields))
            if draw(st.integers(0, 4)) == 0:
                lines.append(draw(st.sampled_from(["", "   "])))
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        options = IoOptions(delimiter=delimiter, dedup=dedup,
                            n_rows=draw(st.none() | st.integers(0, 7)),
                            n_cols=draw(st.none() | st.integers(0, 7)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            path.write_bytes((eol.join(lines) + eol).encode("utf-8"))
            _same_as_line_loop(path, options)


class TestLoadDense:
    def test_missing_token(self, tmp_path):
        path = _write(tmp_path, "m.csv", "1,NA\n3,4\n")
        obs = load_dense(path, "NA")
        assert obs.shape == (2, 2)
        assert list(zip(obs.rows, obs.cols, obs.vals)) == [(0, 0, 1.0), (1, 0, 3.0), (1, 1, 4.0)]

    def test_all_missing(self, tmp_path):
        path = _write(tmp_path, "m.csv", "NA,NA,NA\nNA,NA,NA\nNA,NA,NA\n")
        obs = load_dense(path, "NA")
        assert obs.shape == (3, 3)
        assert obs.nnz == 0

    def test_fully_observed(self, tmp_path):
        path = _write(tmp_path, "m.csv", "1,2\n3,4\n")
        obs = load_dense(path, "NA")
        assert obs.nnz == 4
        assert np.array_equal(obs.to_dense(), [[1, 2], [3, 4]])

    def test_ragged_rows(self, tmp_path):
        path = _write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_dense(path, "NA")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_lineno(self, tmp_path, token):
        path = _write(tmp_path, "nf.csv", f"1,NA\n3,{token}\n")
        with pytest.raises(ValueError, match=r"nf\.csv:2: non-finite cell"):
            load_dense(path, "NA")


class TestProjectOmega:
    def test_single_cell(self):
        mask = ObservedMatrix(2, 2, [0], [1], [9.0])
        assert project_omega([[1, 2], [3, 4]], mask) == [(0, 1, 2.0)]

    def test_full_mask(self):
        obs = ObservedMatrix.from_mask(np.arange(4.0).reshape(2, 2), np.ones((2, 2), bool))
        assert len(project_omega([[1, 2], [3, 4]], obs)) == 4

    def test_empty_mask(self):
        mask = ObservedMatrix(2, 2, [], [], [])
        assert project_omega([[1, 2], [3, 4]], mask) == []

    def test_dim_mismatch(self):
        mask = ObservedMatrix(2, 2, [0], [0], [1.0])
        with pytest.raises(ValueError):
            project_omega(np.zeros((3, 2)), mask)

    def test_returns_stored_values_on_own_mask(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(5, 4))
        obs = ObservedMatrix.from_mask(dense, rng.random((5, 4)) < 0.5)
        got = project_omega(dense, obs)
        assert np.array_equal([v for _, _, v in got], obs.vals)


class TestRoundTrip:
    def test_triplet_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(7, 5)) * 1e3
        obs = ObservedMatrix.from_mask(dense, rng.random((7, 5)) < 0.4)
        path = str(tmp_path / "rt.tsv")
        write_triplets(obs, path)
        back = load_triplets(path, IoOptions(n_rows=7, n_cols=5))
        assert back == obs


class TestWriteReport:
    def test_json_keys_sorted_and_stable(self, tmp_path):
        a = dumps_json({"b": 1.5, "a": [1, 2]})
        b = dumps_json({"a": [1, 2], "b": 1.5})
        assert a == b == '{"a":[1,2],"b":1.5}'

    def test_float_round_trip(self):
        rng = np.random.default_rng(5)
        for x in rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, 50):
            assert float(dumps_json(float(x))) == x

    def test_estimate_schema(self, tmp_path):
        import json

        from specmc import estimate_singular_triplets
        obs = ObservedMatrix.from_mask(np.array([[1.0, 2], [3, 4], [5, 6]]),
                                       np.ones((3, 2), bool))
        est = estimate_singular_triplets(obs, 1)
        path = str(tmp_path / "est.json")
        write_report(est, path, "json")
        loaded = json.loads(open(path).read())
        for key in ("p_hat", "lambda_hat", "U_hat", "V_hat", "tau_hat"):
            assert key in loaded

    def test_csv_rows(self, tmp_path):
        rows = [{"x": 1, "y": 0.5}, {"x": 2, "y": 1.5}]
        path = str(tmp_path / "rows.csv")
        write_report(rows, path, "csv")
        text = open(path).read().splitlines()
        assert text[0] == "x,y"
        assert len(text) == 3

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            write_report({"a": 1}, "/nonexistent-dir/report.json", "json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report({"a": 1}, str(tmp_path / "x"), "yaml")


class TestObservedMatrix:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservedMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_entries_sorted_row_major_regardless_of_input_order(self):
        a = ObservedMatrix(2, 2, [1, 0, 0], [0, 1, 0], [3.0, 2.0, 1.0])
        assert a.rows.tolist() == [0, 0, 1]
        assert a.cols.tolist() == [0, 1, 0]
        assert a.vals.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_cell(self, bad):
        with pytest.raises(ValueError, match=r"non-finite value .* \(row=2, col=0\)"):
            ObservedMatrix(3, 2, [0, 2, 1], [1, 0, 1], [1.0, bad, 2.0])

    def test_arrays_frozen(self):
        a = ObservedMatrix(1, 1, [0], [0], [1.0])
        with pytest.raises(ValueError):
            a.vals[0] = 2.0

    def test_transpose_round_trip(self):
        rng = np.random.default_rng(0)
        obs = ObservedMatrix.from_mask(rng.normal(size=(4, 6)), rng.random((4, 6)) < 0.5)
        assert obs.transpose().transpose() == obs
