"""Command line interface: subcommands, outputs, exit codes."""

import csv
import json

import numpy as np
import pytest

from specmc import (ObservedMatrix, estimate_singular_triplets, load_triplets,
                    resolve_signs_heuristic)
from specmc.cli import main


def _rank1_file(tmp_path, name="m.tsv"):
    # 2x2 rank-1 matrix 6 * (0.6, 0.8) (0, 1)^T, fully observed
    path = tmp_path / name
    path.write_text("1\t1\t0\n1\t2\t3.6\n2\t1\t0\n2\t2\t4.8\n")
    return str(path)


def _rank3_file(tmp_path, name="r3.tsv"):
    # 300 x 60 rank-3 product of U(-2, 2) factors, N(0, 1) noise, p = 0.5
    rng = np.random.default_rng(20261018)
    n, d = 300, 60
    dense = (rng.uniform(-2.0, 2.0, (n, 3)) @ rng.uniform(-2.0, 2.0, (d, 3)).T
             + rng.normal(0.0, 1.0, (n, d)))
    rows, cols = np.nonzero(rng.random((n, d)) < 0.5)
    path = tmp_path / name
    path.write_text("".join(f"{i + 1}\t{j + 1}\t{dense[i, j]:.17g}\n"
                            for i, j in zip(rows, cols)))
    return str(path)


def _run(argv):
    return main(argv)


class TestEstimate:
    def test_writes_json(self, tmp_path):
        out = tmp_path / "est.json"
        code = _run(["estimate", "--input", _rank1_file(tmp_path),
                     "--rank", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["lambda_hat"][0] - 6.0) <= 1e-8
        assert report["p_hat"] == 1.0
        assert len(report["U_hat"]) == 2

    def test_rank_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            _run(["estimate", "--input", _rank1_file(tmp_path), "--rank", "0"])
        assert err.value.code == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        code = _run(["estimate", "--input", str(tmp_path / "nope.tsv"),
                     "--rank", "1", "--output", "-"])
        assert code == 1

    def test_id_beyond_int64_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "big.tsv"
        path.write_text("99999999999999999999\t1\t1.0\n")
        code = _run(["estimate", "--input", str(path), "--rank", "1", "--output", "-"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:1: id out of range")

    @pytest.mark.parametrize("argv", [["rank"], ["estimate", "--rank", "1"],
                                      ["eval", "--rank", "1", "--test", "{path}"]])
    def test_id_beyond_memory_is_runtime_error(self, tmp_path, capsys, monkeypatch,
                                               argv):
        # an id of 10^18 makes every row-long array 8 EB: refuse the shape
        # before the row pointer, or any array like it, is built
        path = tmp_path / "huge.tsv"
        path.write_text("1\t1\t1.0\n2\t2\t2.0\n1000000000000000000\t1\t3.0\n")
        monkeypatch.setattr(ObservedMatrix, "row_ptr", None)
        flag = "--train" if argv[0] == "eval" else "--input"
        argv = [a.format(path=path) for a in argv]
        code = _run([*argv, flag, str(path), "--output", str(tmp_path / "out")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {path}: 1000000000000000000 x 2 is too large")

    @pytest.mark.parametrize("flag,message", [
        ("--rows", "row index 5 out of range [0, 5)"),
        ("--cols", "column index 5 out of range [0, 5)"),
    ])
    def test_id_past_dims_names_file_id_and_limit(self, tmp_path, capsys, flag, message):
        path = _rank3_file(tmp_path)
        code = _run(["estimate", "--input", path, flag, "5", "--rank", "1",
                     "--output", str(tmp_path / "est.json")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: {path}: {message}"]
        assert not (tmp_path / "est.json").exists()

    def test_auto_rank(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        code = _run(["estimate", "--input", _rank1_file(tmp_path),
                     "--rank", "auto", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["rank"] == 1
        assert "rank selection" in capsys.readouterr().err

    def test_dense_input(self, tmp_path):
        dense = tmp_path / "m.csv"
        dense.write_text("0,3.6\nNA,4.8\n")
        out = tmp_path / "est.json"
        code = _run(["estimate", "--input", str(dense), "--input-format",
                     "dense", "--rank", "1", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["n_cols"] == 2


    def test_whitespace_delimiter_dense_is_one_error_line(self, tmp_path, capsys):
        dense = tmp_path / "m.txt"
        dense.write_text("0 3.6\nNA 4.8\n")
        code = _run(["estimate", "--input", str(dense), "--input-format", "dense",
                     "--delimiter", "ws", "--rank", "1"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --delimiter 'ws'")

    @pytest.mark.parametrize("flag,dense", [(None, False), ("ws", False), (",", True),
                                            ("\\t", False), ("\\t", True)])
    def test_delimiter_spellings(self, tmp_path, flag, dense):
        sep = {None: "\t", "ws": "  ", ",": ",", "\\t": "\t"}[flag]
        path = tmp_path / "m.txt"
        if dense:
            path.write_text(f"0{sep}3.6\n0{sep}4.8\n")
        else:
            path.write_text("".join(f"{r}{sep}{c}{sep}{v}\n" for r, c, v in
                                    [(1, 1, 0), (1, 2, 3.6), (2, 1, 0), (2, 2, 4.8)]))
        argv = ["estimate", "--input", str(path), "--rank", "1",
                "--output", str(tmp_path / "est.json")]
        argv += ["--input-format", "dense"] if dense else []
        argv += ["--delimiter", flag] if flag is not None else []
        assert _run(argv) == 0
        report = json.loads((tmp_path / "est.json").read_text())
        assert (report["n_rows"], report["n_cols"]) == (2, 2)


class TestComplete:
    def test_predict_and_dense_out(self, tmp_path, capsys):
        out = tmp_path / "cm.json"
        dense_out = tmp_path / "dense.csv"
        code = _run(["complete", "--input", _rank1_file(tmp_path),
                     "--rank", "1", "--output", str(out),
                     "--dense-out", str(dense_out),
                     "--predict", "1,1", "--predict", "0,0"])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert abs(float(printed[0]) - 4.8) <= 1e-8
        assert abs(float(printed[1])) <= 1e-8
        report = json.loads(out.read_text())
        assert report["signs"] == [1.0]
        dense = np.loadtxt(str(dense_out), delimiter=",")
        assert np.allclose(dense, [[0, 3.6], [0, 4.8]], atol=1e-8)

    def test_predict_outside_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the cells are checked against the loaded shape before estimating
        monkeypatch.setattr("specmc.cli.complete", None)
        out, dense_out = tmp_path / "cm.json", tmp_path / "dense.csv"
        code = _run(["complete", "--input", _rank3_file(tmp_path), "--rank", "2",
                     "--predict", "1,1", "--predict", "500,1", "--output", str(out),
                     "--dense-out", str(dense_out)])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: entry (500, 1) outside 300x60"]
        assert not out.exists() and not dense_out.exists()

    def test_bad_dense_out_writes_nothing(self, tmp_path, capsys):
        out, dense_out = tmp_path / "cm.json", tmp_path / "missing" / "d.csv"
        code = _run(["complete", "--input", _rank1_file(tmp_path), "--rank", "1",
                     "--output", str(out), "--dense-out", str(dense_out)])
        assert code == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists() and not dense_out.exists()

    def test_bad_output_leaves_no_dense_file(self, tmp_path):
        out, dense_out = tmp_path / "missing" / "cm.json", tmp_path / "d.csv"
        code = _run(["complete", "--input", _rank1_file(tmp_path), "--rank", "1",
                     "--output", str(out), "--dense-out", str(dense_out)])
        assert code == 1
        assert not out.exists() and not dense_out.exists()

    def test_sign_rule_follows_the_rank(self, tmp_path):
        # above SIGN_BUDGET = 12 factors the heuristic resolves the signs
        path = _rank3_file(tmp_path)
        out = tmp_path / "cm.json"
        assert _run(["complete", "--input", path, "--rank", "13",
                     "--output", str(out)]) == 0
        assert '"sign_method":"heuristic"' in out.read_text()
        obs = load_triplets(path)
        expected = resolve_signs_heuristic(estimate_singular_triplets(obs, 13), obs)
        assert json.loads(out.read_text())["signs"] == expected.tolist()
        assert _run(["complete", "--input", path, "--rank", "2",
                     "--output", str(out)]) == 0
        assert '"sign_method":"exhaustive"' in out.read_text()

    def test_sign_method_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            _run(["complete", "--input", _rank1_file(tmp_path), "--rank", "1",
                  "--sign-method", "heuristic"])
        assert err.value.code == 2


class TestRankAndScree:
    def test_rank_decision_and_scree_file(self, tmp_path):
        out = tmp_path / "rank.json"
        scree_out = tmp_path / "scree.csv"
        code = _run(["rank", "--input", _rank1_file(tmp_path),
                     "--output", str(out), "--scree-out", str(scree_out)])
        assert code == 0
        decision = json.loads(out.read_text())
        assert "r_hat" in decision and "threshold" in decision
        lines = scree_out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 3

    def test_rank_json_keys(self, tmp_path):
        out = tmp_path / "rank.json"
        assert _run(["rank", "--input", _rank1_file(tmp_path), "--output", str(out)]) == 0
        assert sorted(json.loads(out.read_text())) == ["c_const", "eigenvalues",
                                                      "r_hat", "threshold"]

    def test_bad_k_writes_nothing(self, tmp_path, capsys):
        out, scree_out = tmp_path / "rank.json", tmp_path / "scree.csv"
        code = _run(["rank", "--input", _rank3_file(tmp_path), "--k", "-1",
                     "--scree-out", str(scree_out), "--output", str(out)])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: k must be in [0, 60]"]
        assert not out.exists() and not scree_out.exists()

    def test_rank3_file_selects_three(self, tmp_path):
        path = _rank3_file(tmp_path)
        out = tmp_path / "rank.json"
        assert _run(["rank", "--input", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["r_hat"] == 3
        est_out = tmp_path / "est.json"
        assert _run(["estimate", "--input", path, "--rank", "auto",
                     "--output", str(est_out)]) == 0
        assert json.loads(est_out.read_text())["rank"] == 3

    def test_scree_command(self, tmp_path, capsys):
        code = _run(["scree", "--input", _rank1_file(tmp_path), "--k", "2",
                     "--output", "-"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 3

    @pytest.mark.parametrize("command", [["rank"], ["estimate", "--rank", "auto"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_cd_const_is_one_error_line(self, tmp_path, capsys, command, value):
        code = _run([*command, "--input", _rank3_file(tmp_path),
                     "--cd-const", value, "--output", str(tmp_path / "out.json")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: c_const must be positive and finite, got {float(value)}"]
        assert not (tmp_path / "out.json").exists()

    def test_scree_json_format(self, tmp_path, capsys):
        code = _run(["scree", "--input", _rank1_file(tmp_path), "--k", "1",
                     "--format", "json", "--output", "-"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["index"] == 1

    @pytest.mark.parametrize("command", ["rank", "scree"])
    def test_empty_file_is_one_error_line(self, tmp_path, capsys, command):
        # a 0 x 5 matrix: the ladder's gram is empty, the observed fraction fails
        path = tmp_path / "empty.tsv"
        path.write_text("")
        code = _run([command, "--input", str(path), "--cols", "5", "--output", "-"])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: zero-size matrix has no observed fraction"]


class TestSettingsCheckedFirst:
    """--cd-const and --alpha are checked before the input is read."""

    @pytest.mark.parametrize("flags,message", [
        (["estimate", "--rank", "3", "--cd-const", "-1"],
         "error: c_const must be positive and finite, got -1.0"),
        (["complete", "--rank", "3", "--cd-const", "nan"],
         "error: c_const must be positive and finite, got nan"),
        (["rank", "--cd-const", "0"], "error: c_const must be positive and finite, got 0.0"),
        (["infer", "--rank", "3", "--alpha", "1.5"], "error: alpha must be in (0, 1), got 1.5"),
        (["infer", "--rank", "3", "--alpha", "0"], "error: alpha must be in (0, 1), got 0.0"),
        (["infer", "--rank", "3", "--alpha", "nan"], "error: alpha must be in (0, 1), got nan"),
    ])
    def test_bad_setting_fails_before_input_is_read(self, tmp_path, capsys, flags, message):
        # the input does not exist: the setting's error comes first
        code = _run([*flags, "--input", str(tmp_path / "missing.tsv"),
                     "--output", str(tmp_path / "out.json")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [message]
        assert not (tmp_path / "out.json").exists()

    def test_eval_bad_cd_const_with_explicit_rank(self, tmp_path, capsys):
        path = _rank3_file(tmp_path)
        code = _run(["eval", "--train", path, "--test", path, "--rank", "3",
                     "--cd-const", "inf", "--output", str(tmp_path / "out.json")])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: c_const must be positive and finite, got inf"]
        assert not (tmp_path / "out.json").exists()


class TestAutoRank:
    """--rank auto picks r_hat from the estimator's own eigendecomposition."""

    @pytest.mark.parametrize("command", ["estimate", "complete", "infer"])
    def test_same_bytes_as_explicit_rank(self, tmp_path, command):
        path = _rank3_file(tmp_path)
        reports = []
        for rank in ("auto", "3"):
            out = tmp_path / f"{command}_{rank}.json"
            assert _run([command, "--input", path, "--rank", rank,
                         "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_same_rmse_as_explicit_rank(self, tmp_path):
        with open(_rank3_file(tmp_path)) as f:
            lines = f.readlines()
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        train.write_text("".join(line for i, line in enumerate(lines) if i % 5))
        test.write_text("".join(lines[::5]))
        rmse = {}
        for rank in ("auto", "3"):
            out = tmp_path / f"eval_{rank}.json"
            assert _run(["eval", "--train", str(train), "--test", str(test),
                         "--rank", rank, "--output", str(out)]) == 0
            rmse[rank] = json.loads(out.read_text())["rmse_mean"]
        assert rmse["auto"] == rmse["3"]

    def test_one_eigensolve_per_estimate(self, tmp_path, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        assert _run(["estimate", "--input", _rank3_file(tmp_path), "--rank",
                     "auto", "--output", str(tmp_path / "est.json")]) == 0
        assert calls == ["eigvalsh"]

    def test_pure_noise_names_r_hat(self):
        rng = np.random.default_rng(5)
        obs = ObservedMatrix.from_mask(rng.normal(size=(300, 60)),
                                       rng.random((300, 60)) < 0.5)
        with pytest.raises(ValueError, match="r_hat=0"):
            estimate_singular_triplets(obs, "auto")


class TestInfer:
    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = _run(["infer", "--input", _rank1_file(tmp_path),
                     "--rank", "1", "--alpha", "0.05", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["intervals"]) == 1
        lo, hi = report["intervals"][0]
        assert lo <= report["lambda_hat"][0] <= hi

    def test_report_keys(self, tmp_path):
        # one key per InferenceReport field, m the rank
        out = tmp_path / "report.json"
        assert _run(["infer", "--input", _rank3_file(tmp_path), "--rank", "3",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert list(report) == ["alpha", "covariance", "energy_variance", "intervals",
                                "lambda_hat", "m", "noise_variance", "signal_scales",
                                "variances_clamped"]
        assert report["m"] == 3
        assert report["variances_clamped"] == [max(row[i], 0.0) for i, row
                                               in enumerate(report["covariance"])]


class TestEval:
    def test_train_equals_test_perfect(self, tmp_path):
        path = _rank1_file(tmp_path)
        out = tmp_path / "eval.json"
        code = _run(["eval", "--train", path, "--test", path,
                     "--rank", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rmse_mean"] <= 1e-8

    def test_folds(self, tmp_path):
        a = _rank1_file(tmp_path, "a.tsv")
        b = _rank1_file(tmp_path, "b.tsv")
        out = tmp_path / "eval.json"
        code = _run(["eval", "--folds", f"{a}:{b},{b}:{a}", "--rank", "1",
                     "--output", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["folds"]) == 2

    def test_folds_csv_format(self, tmp_path):
        a = _rank1_file(tmp_path, "a.tsv")
        out = tmp_path / "eval.csv"
        code = _run(["eval", "--folds", f"{a}:{a}", "--rank", "1",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "train,test,rmse"
        assert len(lines) == 2

    @pytest.mark.parametrize("name", ["a,b.tsv", 'a"b.tsv', "a\nb.tsv", "a\rb.tsv"])
    def test_csv_quotes_paths(self, tmp_path, name):
        a = _rank1_file(tmp_path, name)
        out = tmp_path / "eval.csv"
        code = _run(["eval", "--train", a, "--test", a, "--rank", "1",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["train"], row["test"]) for row in rows] == [(a, a)]
        assert float(rows[0]["rmse"]) <= 1e-8

    def test_missing_inputs(self, tmp_path):
        assert _run(["eval", "--rank", "1"]) == 1


class TestSimulate:
    def test_zero_noise_rows(self, tmp_path):
        out = tmp_path / "sims"
        code = _run(["simulate", "--n-list", "40", "--p-list", "1.0",
                     "--sigma", "0", "--reps", "3", "--seed", "1",
                     "--output", str(out)])
        assert code == 0
        csv_path = out / "sim_n40_p1.csv"
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        mse_idx = header.index("mse_matrix")
        for line in lines[1:]:
            assert float(line.split(",")[mse_idx]) <= 1e-12
        assert (out / "sim_n40_p1.aggregates.csv").exists()
        assert (out / "sim_n40_p1.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--true-rank", "40"], "error: true_rank must be in [1, 10]"),
        (["--true-rank", "0"], "error: true_rank must be in [1, 10]"),
        (["--factor-range", "0"], "error: factor_range must be positive"),
        (["--factor-range", "inf"], "error: factor_range must be positive"),
        (["--workers", "0"], "error: workers must be at least 1"),
    ])
    def test_bad_settings_are_one_error_line(self, tmp_path, capsys, flags, message):
        code = _run(["simulate", "--n-list", "30", "--p-list", "0.5", "--reps", "2",
                     "--output", str(tmp_path / "sims"), *flags])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)

    @pytest.mark.parametrize("flags,message", [
        (["--n-list", "30", "--true-rank", "40"], "error: true_rank must be in [1, 10]"),
        (["--n-list", "100,2"], "error: true_rank must be in [1, 1]"),
        (["--n-list", "30", "--sigma", "nan"], "error: sigma must be non-negative and finite"),
        (["--n-list", "30", "--sigma", "inf"], "error: sigma must be non-negative and finite"),
        (["--n-list", "30", "--reps", "0"], "error: need at least one replicate"),
        (["--n-list", "30", "--workers", "0"], "error: workers must be at least 1"),
    ])
    def test_bad_settings_write_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sims"
        code = _run(["simulate", "--p-list", "0.5", "--reps", "2",
                     "--output", str(out), *flags])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()

    def test_failed_replicate_is_one_error_line(self, tmp_path, capsys):
        # seed 0 draws an empty mask at p = 0.001
        out = tmp_path / "sims"
        code = _run(["simulate", "--n-list", "30", "--p-list", "0.001", "--reps", "1",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: replicate 0 failed: cannot estimate from an empty mask"]
        assert not out.exists()

    def test_grid_files(self, tmp_path):
        out = tmp_path / "sims"
        code = _run(["simulate", "--n-list", "30,40", "--p-list", "0.5,1.0",
                     "--sigma", "1", "--reps", "2", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        assert len(list(out.glob("*.csv"))) == 8  # 4 cells x (rows + aggregates)

    def test_output_schemas(self, tmp_path):
        out = tmp_path / "sims"
        assert _run(["simulate", "--n-list", "30", "--p-list", "0.5", "--reps", "2",
                     "--output", str(out)]) == 0
        metrics = ["mse_matrix", "mse_lambda", "mse_v", "mse_u", "sin2_v", "sin2_u",
                   "z_stat", "r_hat", "sign_correct", "n_clamped"]
        rows = (out / "sim_n30_p0.5.csv").read_text().splitlines()
        assert rows[0] == ",".join(["replicate", *metrics])
        assert [line.split(",")[0] for line in rows[1:]] == ["0", "1"]
        aggregates = (out / "sim_n30_p0.5.aggregates.csv").read_text().splitlines()
        assert aggregates[0] == "metric,mean,stderr"
        assert [line.split(",")[0] for line in aggregates[1:]] == metrics
        report = json.loads((out / "sim_n30_p0.5.json").read_text())
        assert sorted(report) == ["aggregates", "config", "rows"]
        assert sorted(report["config"]) == sorted([
            "n", "d", "p", "sigma", "true_rank", "factor_range", "replicates",
            "seed", "metrics_m"])
        assert [sorted(row) for row in report["rows"]] == [sorted(["replicate", *metrics])] * 2
        assert sorted(report["aggregates"]) == sorted(metrics)
        assert all(sorted(v) == ["mean", "stderr"] for v in report["aggregates"].values())
