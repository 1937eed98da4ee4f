"""Ingestion, projection, and deterministic serialization."""

import numpy as np
import pytest

from specmc import (IoOptions, ObservedMatrix, dumps_json, load_dense,
                    load_triplets, project_omega, write_report, write_triplets)


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

    def test_extra_fields_ignored(self, tmp_path):
        path = _write(tmp_path, "ml.tsv", "1\t1\t5\t874965758\n")
        obs = load_triplets(path)
        assert obs.vals.tolist() == [5.0]

    def test_dims_override_too_small(self, tmp_path):
        path = _write(tmp_path, "r.tsv", "3\t1\t5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_triplets(path, IoOptions(n_rows=2, n_cols=2))


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
