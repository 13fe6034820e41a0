import json
import logging

import numpy as np
import pytest

from fixtures import make_benchmark_dataset, write_keel_file
from mdenc import encoders
from mdenc.cli import main
from mdenc.probe import EvalReport


@pytest.fixture()
def keel_file(tmp_path):
    ds = make_benchmark_dataset("cryotherapy")
    return write_keel_file(ds, tmp_path / "cryotherapy.dat")


@pytest.fixture()
def csv_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,label"]
    for i in range(24):
        cls = i % 2
        lines.append(f"{rng.normal(3 * cls):.6f},{rng.normal(-2 * cls):.6f},{cls}")
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def fake_report(tmp_path, dataset, encoder, bacs):
    report = EvalReport(dataset, encoder, tuple(bacs), float(np.mean(bacs)),
                        tuple(), {"seed": 0})
    path = tmp_path / f"{dataset}_{encoder}.json"
    report.save_json(path)
    return path


class TestFit:
    def test_fit_writes_model(self, tmp_path, keel_file):
        out = tmp_path / "model.json"
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--out", str(out)])
        assert code == 0
        model = encoders.load_model(out)
        assert model.kind == "retire"
        assert model.layout.n == 6

    def test_bad_path_exits_2(self, tmp_path):
        code = main(["fit", "--dataset", str(tmp_path / "missing.dat"),
                     "--encoder", "retire", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_bad_bounds_exit_2(self, tmp_path, keel_file):
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--l", "0.9", "--u", "0.2", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_unknown_encoder_usage_error(self, tmp_path, keel_file):
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "cnn",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestVerbose:
    def fit(self, capsys, keel_file, out, *flags):
        assert main([*flags, "fit", "--dataset", str(keel_file), "--encoder", "igtd",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, out.read_bytes()

    def test_verbose_logs_the_search_and_keeps_stdout(self, tmp_path, keel_file, capsys):
        out = tmp_path / "model.json"
        quiet_out, quiet_err, quiet_model = self.fit(capsys, keel_file, out)
        loud_out, loud_err, loud_model = self.fit(capsys, keel_file, out, "-v")
        assert "igtd search" not in quiet_err
        assert loud_out == quiet_out
        assert loud_model == quiet_model
        assert "mdenc.encoders: igtd search: 6 features, " in loud_err
        assert "converged" in loud_err or "stopped at max_iters" in loud_err
        assert logging.getLogger("mdenc").level == logging.NOTSET
        assert self.fit(capsys, keel_file, out)[1] == quiet_err

    def test_verbose_reports_dropped_rows(self, tmp_path, capsys):
        path = tmp_path / "holes.csv"
        path.write_text("a,b,label\n1,2,x\n?,3,y\n4,5,y\n6,,x\n")
        assert main(["--verbose", "fit", "--dataset", str(path), "--encoder", "retire",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert "holes.csv: dropped 2 rows with missing values" in capsys.readouterr().err


class TestEncode:
    def encode(self, tmp_path, keel_file, extra=()):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--size", "64x64", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "imgs"
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--rows", "0:5", "--out", str(out_dir), *extra])
        return code, out_dir

    def test_writes_one_file_per_row(self, tmp_path, keel_file):
        code, out_dir = self.encode(tmp_path, keel_file)
        assert code == 0
        files = sorted(out_dir.glob("*.pgm"))
        assert [f.name for f in files] == [f"cryotherapy_{i}.pgm" for i in range(5)]
        assert files[0].read_bytes().startswith(b"P5\n64 64\n255\n")

    def test_rerun_byte_identical(self, tmp_path, keel_file):
        code, out_dir = self.encode(tmp_path, keel_file)
        first = {f.name: f.read_bytes() for f in out_dir.glob("*.pgm")}
        code, out_dir = self.encode(tmp_path, keel_file)
        second = {f.name: f.read_bytes() for f in out_dir.glob("*.pgm")}
        assert first == second

    def test_three_channels_writes_ppm(self, tmp_path, keel_file):
        code, out_dir = self.encode(tmp_path, keel_file, extra=["--channels", "3"])
        assert code == 0
        files = sorted(out_dir.glob("*.ppm"))
        assert len(files) == 5
        assert files[0].read_bytes().startswith(b"P6\n64 64\n255\n")

    def test_row_list_selection(self, tmp_path, keel_file):
        model_path = tmp_path / "model.json"
        main(["fit", "--dataset", str(keel_file), "--encoder", "stml",
              "--out", str(model_path)])
        out_dir = tmp_path / "sel"
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--rows", "3,7", "--out", str(out_dir)])
        assert code == 0
        assert {f.name for f in out_dir.glob("*.pgm")} == \
            {"cryotherapy_3.pgm", "cryotherapy_7.pgm"}

    def test_out_of_range_rows_exit_2(self, tmp_path, keel_file):
        model_path = tmp_path / "model.json"
        main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
              "--out", str(model_path)])
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--rows", "100000", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_jobs_below_one_exits_2(self, tmp_path, keel_file, capsys):
        code, _ = self.encode(tmp_path, keel_file, extra=["--jobs", "0"])
        assert code == 2
        assert "jobs" in capsys.readouterr().err

    def test_malformed_model_exits_2(self, tmp_path, keel_file, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
              "--out", str(model_path)])
        doc = json.loads(model_path.read_text())
        del doc["layout"]["n"]
        model_path.write_text(json.dumps(doc))
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "model.layout" in capsys.readouterr().err


class TestEval:
    def test_tabular_report(self, tmp_path, csv_file):
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(csv_file), "--encoder", "tabular",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["encoder"] == "tabular"
        assert len(doc["per_split_bac"]) == 10
        assert doc["config"]["seed"] == 3

    def test_retire_eval_deterministic(self, tmp_path, csv_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["eval", "--dataset", str(csv_file), "--encoder", "retire",
                         "--size", "32x32", "--out", str(out)])
            assert code == 0
            outs.append(json.loads(out.read_text())["per_split_bac"])
        assert outs[0] == outs[1]

    def test_unknown_encoder_exits_2(self, csv_file):
        assert main(["eval", "--dataset", str(csv_file), "--encoder", "mlp"]) == 2

    @pytest.mark.parametrize("encoder", ["tabular", "retire"])
    def test_jobs_below_one_exits_2_before_fitting(self, tmp_path, csv_file, capsys,
                                                   monkeypatch, encoder):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the jobs check")

        monkeypatch.setattr(encoders, "fit", no_fit)
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(csv_file), "--encoder", encoder,
                     "--jobs", "0", "--out", str(out)])
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()


class TestStats:
    def test_identical_reports_no_significance(self, tmp_path, capsys):
        bacs = [0.8, 0.82, 0.79, 0.81, 0.8, 0.8, 0.83, 0.78, 0.8, 0.81]
        fake_report(tmp_path, "d1", "retire", bacs)
        fake_report(tmp_path, "d1", "stml", bacs)
        out = tmp_path / "cmp.json"
        code = main(["stats", "--reports",
                     str(tmp_path / "d1_retire.json"), str(tmp_path / "d1_stml.json"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        ftest = doc["datasets"]["d1"]["f_tests"]["retire vs stml"]
        assert not ftest["significant"]
        assert ftest["degenerate"]  # identical scores: all differences zero

    def test_constant_margin_flagged_degenerate_significant(self, tmp_path):
        base = [0.8, 0.82, 0.79, 0.81, 0.8, 0.8, 0.83, 0.78, 0.8, 0.81]
        fake_report(tmp_path, "d1", "retire", [b + 0.05 for b in base])
        fake_report(tmp_path, "d1", "stml", base)
        out = tmp_path / "cmp.json"
        code = main(["stats", "--reports",
                     str(tmp_path / "d1_retire.json"), str(tmp_path / "d1_stml.json"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        ftest = doc["datasets"]["d1"]["f_tests"]["retire vs stml"]
        assert ftest["significant"] and ftest["degenerate"]
        assert doc["datasets"]["d1"]["significantly_better_than"]["retire"] == [2]

    def test_full_matrix_mean_ranks_and_wilcoxon(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        methods = ["stml", "igtd", "di", "retire", "xgb"]
        paths = []
        for d in range(6):
            for rank, m in enumerate(methods):
                bacs = np.clip(0.5 + 0.06 * rank + rng.normal(0, 0.02, 10), 0, 1)
                paths.append(str(fake_report(tmp_path, f"ds{d}", m, bacs)))
        out = tmp_path / "cmp.json"
        assert main(["stats", "--reports", *paths, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["mean_ranks"]) == set(methods)
        assert doc["mean_ranks"]["xgb"] > doc["mean_ranks"]["stml"]
        assert "stml vs xgb" in doc["wilcoxon"]
        table = capsys.readouterr().out
        assert "mean rank" in table

    def test_missing_cell_rejected(self, tmp_path):
        fake_report(tmp_path, "d1", "retire", [0.8] * 10)
        fake_report(tmp_path, "d1", "stml", [0.7] * 10)
        fake_report(tmp_path, "d2", "retire", [0.8] * 10)
        code = main(["stats", "--reports",
                     str(tmp_path / "d1_retire.json"), str(tmp_path / "d1_stml.json"),
                     str(tmp_path / "d2_retire.json")])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-1", "nan"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        paths = [str(fake_report(tmp_path, "d1", m, [0.8 + k * 0.01] * 10))
                 for k, m in enumerate(("retire", "stml"))]
        assert main(["stats", "--reports", *paths, "--alpha", alpha]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        good = fake_report(tmp_path, "d1", "retire", [0.8] * 10)
        bad = fake_report(tmp_path, "d1", "stml", [0.7] * 10)
        doc = json.loads(bad.read_text())
        del doc["mean_bac"]
        bad.write_text(json.dumps(doc))
        assert main(["stats", "--reports", str(good), str(bad)]) == 2
        assert "mean_bac" in capsys.readouterr().err


class TestBench:
    def test_jsonl_output_and_fit_line(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(["bench", "--encoder", "retire", "--grid", "4,8,12",
                     "--samples", "8", "--repeats", "2", "--size", "32x32",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert json.loads(lines[0])["n_features"] == 4
        assert "linear fit:" in capsys.readouterr().out

    def test_bad_grid_exits_2(self):
        assert main(["bench", "--encoder", "retire", "--grid", "10,5",
                     "--samples", "8", "--repeats", "1"]) == 2
