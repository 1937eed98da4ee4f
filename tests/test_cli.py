"""Command line interface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from specmc import ObservedMatrix, estimate_singular_triplets
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

    def test_sign_method_flag(self, tmp_path):
        code = _run(["complete", "--input", _rank1_file(tmp_path),
                     "--rank", "1", "--sign-method", "heuristic",
                     "--output", str(tmp_path / "cm.json")])
        assert code == 0


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

    def test_scree_json_format(self, tmp_path, capsys):
        code = _run(["scree", "--input", _rank1_file(tmp_path), "--k", "1",
                     "--format", "json", "--output", "-"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["index"] == 1


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

    def test_grid_files(self, tmp_path):
        out = tmp_path / "sims"
        code = _run(["simulate", "--n-list", "30,40", "--p-list", "0.5,1.0",
                     "--sigma", "1", "--reps", "2", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        assert len(list(out.glob("*.csv"))) == 8  # 4 cells x (rows + aggregates)
