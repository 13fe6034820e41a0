import dataclasses
import json
import logging

import numpy as np
import pytest

from fixtures import make_benchmark_dataset, save_csv, strict_loads, write_keel_file
from mdenc import encoders, read_json, scaling, write_json
from mdenc.cli import main
from mdenc.data import Dataset, load_csv, make_cv_plan
from mdenc.raster import to_pgm, to_ppm
from mdenc.probe import EvalReport, run_cv_eval


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


# files that are not UTF-8 JSON: plain text, Latin-1 bytes, and nesting too
# deep for the JSON decoder
NOT_JSON = {"text": b"kind: retire\n", "latin1": b'{"kind": "r\xe9tire"}',
            "deep": b"[" * 100_000}


def fake_report(tmp_path, dataset, encoder, bacs):
    report = EvalReport(dataset, encoder, tuple(bacs), float(np.mean(bacs)),
                        tuple(), {"seed": 0})
    path = tmp_path / f"{dataset}_{encoder}.json"
    write_json(path, report)
    return path


class TestFit:
    def test_fit_writes_model(self, tmp_path, keel_file):
        out = tmp_path / "model.json"
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--out", str(out)])
        assert code == 0
        model = read_json(out, encoders.EncoderModel)
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

    def test_seed_is_not_a_fit_option(self, tmp_path, keel_file, capsys):
        # no encoder draws random numbers; only eval and bench take a seed
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "igtd",
                     "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_igtd_iters_below_one_exits_2(self, tmp_path, keel_file, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "igtd",
                     "--igtd-iters", "0", "--out", str(out)])
        assert code == 2
        assert "max_iters must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("encoder, options, message", [
        ("stml", ["--l", "5", "--u", "-1"], "bounds must satisfy"),
        ("stml", ["--l", "0.9", "--u", "0.1"], "bounds must satisfy"),
        ("retire", ["--igtd-iters", "-5"], "max_iters must be"),
        ("stml", ["--igtd-iters", "-5"], "max_iters must be"),
        ("retire", ["--igtd-iters", "0"], "max_iters must be >= 1")])
    def test_option_the_encoder_ignores_exits_2_before_fitting(
            self, tmp_path, keel_file, capsys, monkeypatch, encoder, options, message):
        # stml scales nothing and only igtd searches, but each option is checked
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        monkeypatch.setattr(encoders, f"fit_{encoder}", no_fit)
        out = tmp_path / "m.json"
        code = main(["fit", "--dataset", str(keel_file), "--encoder", encoder, *options,
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_igtd_patience_is_not_an_option(self, tmp_path, keel_file, capsys, command):
        code = main([command, "--dataset", str(keel_file), "--encoder", "igtd",
                     "--igtd-patience", "3", "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "unrecognized arguments: --igtd-patience" in capsys.readouterr().err

    def test_unknown_encoder_usage_error(self, tmp_path, keel_file):
        code = main(["fit", "--dataset", str(keel_file), "--encoder", "cnn",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("name", ["bad.csv", "bad.dat"])
    @pytest.mark.parametrize("byte", [b"\xff", b"\xe9"])
    def test_dataset_not_utf8_exits_2(self, tmp_path, capsys, name, byte):
        path = tmp_path / name
        if name.endswith(".csv"):
            path.write_bytes(b"a,b,label\n1,2,x\n3," + byte + b",y\n")
        else:
            path.write_bytes(b"@relation r\n@attribute a real\n@attribute b real\n"
                             b"@attribute label {x, y}\n@data\n1,2,x\n3," + byte + b",y\n")
        code = main(["fit", "--dataset", str(path), "--encoder", "retire",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert f"{name} is not UTF-8 text" in capsys.readouterr().err


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
        assert "converged, float32" in loud_err or "stopped at max_iters, float32" in loud_err
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

    @pytest.mark.parametrize("channels, suffix, export", [(1, "pgm", to_pgm),
                                                          (3, "ppm", to_ppm)])
    def test_files_are_the_batch_images(self, tmp_path, keel_file, channels, suffix, export):
        code, out_dir = self.encode(tmp_path, keel_file, extra=["--channels", str(channels)])
        assert code == 0
        model = read_json(tmp_path / "model.json", encoders.EncoderModel)
        images = encoders.encode_batch(model, make_benchmark_dataset("cryotherapy").X[:5])
        for row, image in enumerate(images):
            assert (out_dir / f"cryotherapy_{row}.{suffix}").read_bytes() == export(image)

    @pytest.mark.parametrize("name", ["../escaped", "a\0b"])
    def test_name_not_a_plain_file_name_exits_2(self, tmp_path, keel_file, capsys, name):
        ds = make_benchmark_dataset("cryotherapy")
        renamed = tmp_path / "data" / "renamed.dat"
        renamed.parent.mkdir()
        write_keel_file(Dataset(name, ds.X, ds.y, ds.feature_names, ds.class_names), renamed)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--size", "32x32", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "data" / "imgs"
        assert main(["encode", "--dataset", str(renamed), "--model", str(model_path),
                     "--rows", "0:2", "--out", str(out_dir)]) == 2
        assert "is not a plain file name" in capsys.readouterr().err
        assert not out_dir.exists()
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["renamed.dat"]

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
        # encoding is serial: --jobs is not an option, whatever its value
        for value in ("0", "2"):
            code, _ = self.encode(tmp_path, keel_file, extra=["--jobs", value])
            assert code == 2
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(NOT_JSON))
    def test_model_not_json_exits_2(self, tmp_path, keel_file, capsys, case):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(NOT_JSON[case])
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"{model_path} is not a UTF-8 JSON document" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value", [
        ("layout", {"rows": 10**6, "cols": 10**6, "n": 6}), ("canvas_size", [3, 3])])
    def test_stml_cells_too_small_for_a_glyph_exit_2(self, tmp_path, keel_file, capsys,
                                                     key, value):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(keel_file), "--encoder", "stml",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc[key] = value
        model_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "x"
        code = main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--out", str(out_dir)])
        assert code == 2
        assert "glyph per cell" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("side", [10**5, 10**12])
    def test_absurd_canvas_exits_2(self, tmp_path, keel_file, capsys, side):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--size", f"{side}x{side}", "--out", str(model_path)]) == 2
        assert "exceeds 16777216 pixels" in capsys.readouterr().err
        assert main(["fit", "--dataset", str(keel_file), "--encoder", "retire",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        doc["canvas_size"] = [side, side]
        model_path.write_text(json.dumps(doc))
        assert main(["encode", "--dataset", str(keel_file), "--model", str(model_path),
                     "--out", str(tmp_path / "x")]) == 2
        assert "exceeds 16777216 pixels" in capsys.readouterr().err


class TestRowSelection:
    """``--rows`` on a 10-row CSV: ranges are Python slices, listed rows must exist."""

    def encode(self, tmp_path, rows):
        ds = make_benchmark_dataset("cryotherapy")
        csv = tmp_path / "ten.csv"
        save_csv(Dataset("ten", ds.X[:10], ds.y[:10], ds.feature_names, ds.class_names), csv)
        model_path = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(csv), "--encoder", "retire",
                     "--size", "32x32", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "imgs"
        code = main(["encode", "--dataset", str(csv), "--model", str(model_path),
                     f"--rows={rows}", "--out", str(out_dir)])
        return code, sorted(int(f.stem.split("_")[1]) for f in out_dir.glob("*.pgm"))

    @pytest.mark.parametrize("rows, expected", [
        ("-3:", [7, 8, 9]), ("2:-2", [2, 3, 4, 5, 6, 7]), ("5:1000", [5, 6, 7, 8, 9]),
        (":2", [0, 1]), ("all", list(range(10)))])
    def test_range_is_a_python_slice(self, tmp_path, rows, expected):
        assert self.encode(tmp_path, rows) == (0, expected)

    @pytest.mark.parametrize("rows", ["5:5", "8:2", "-1:-3", "20:"])
    def test_empty_range_exits_2(self, tmp_path, capsys, rows):
        assert self.encode(tmp_path, rows) == (2, [])
        assert "no rows selected" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["-1", "10", "1000", "2,10"])
    def test_listed_rows_stay_strict(self, tmp_path, capsys, rows):
        assert self.encode(tmp_path, rows) == (2, [])
        assert "out of range (dataset has 10 rows)" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["a:3", "1:2:3", "1.5:"])
    def test_bad_range_exits_2(self, tmp_path, capsys, rows):
        assert self.encode(tmp_path, rows) == (2, [])
        assert "bad row range" in capsys.readouterr().err


class TestDatasetOptions:
    def test_keel_file_with_another_suffix_needs_format(self, tmp_path):
        ds = make_benchmark_dataset("cryotherapy")
        txt = write_keel_file(ds, tmp_path / "cryotherapy.txt")
        out = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(txt), "--encoder", "stml",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert main(["fit", "--dataset", str(txt), "--format", "keel", "--encoder", "retire",
                     "--size", "32x32", "--out", str(out)]) == 0
        dat = write_keel_file(ds, tmp_path / "cryotherapy.dat")
        assert main(["fit", "--dataset", str(dat), "--encoder", "retire",
                     "--size", "32x32", "--out", str(tmp_path / "dat.json")]) == 0
        assert out.read_text() == (tmp_path / "dat.json").read_text()

    def test_parse_error_names_the_file_and_the_guessed_format(self, tmp_path, capsys):
        ds = make_benchmark_dataset("cryotherapy")
        txt = write_keel_file(ds, tmp_path / "cryotherapy.txt")
        args = ["fit", "--dataset", str(txt), "--encoder", "stml", "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "cryotherapy.txt read as csv" in err
        assert "--format keel" in err and "--format csv" in err
        # a format given on the command line was not guessed, so there is no hint
        assert main([*args, "--format", "csv"]) == 2
        assert "--format" not in capsys.readouterr().err

    def label_first_csv(self, tmp_path):
        ds = make_benchmark_dataset("cryotherapy")
        path = tmp_path / "first.csv"
        lines = ["label," + ",".join(ds.feature_names)]
        lines += [",".join([ds.class_names[label], *(repr(float(v)) for v in row)])
                  for row, label in zip(ds.X, ds.y)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_label_column_by_name_and_by_index_agree(self, tmp_path):
        path = self.label_first_csv(tmp_path)
        reports = []
        for label in ("label", "0"):
            out = tmp_path / f"report_{label}.json"
            assert main(["eval", "--dataset", str(path), "--label-column", label,
                         "--encoder", "tabular", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        by_name, by_index = reports
        assert by_name["fold_predictions"] == by_index["fold_predictions"]
        assert by_name["per_split_bac"] == by_index["per_split_bac"]
        # the picked column holds the class labels: predictions are class codes
        assert {p for fold in by_name["fold_predictions"] for p in fold} <= {0, 1}
        assert by_name["mean_bac"] > 0.9

    def test_unknown_label_column_exits_2(self, tmp_path, capsys):
        path = self.label_first_csv(tmp_path)
        assert main(["eval", "--dataset", str(path), "--label-column", "klass",
                     "--encoder", "tabular"]) == 2
        assert "label column 'klass' not in header" in capsys.readouterr().err


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

    def test_out_report_reads_back_equal(self, tmp_path, csv_file):
        # the CLI records --size as a list, which JSON keeps as it is
        out = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(csv_file), "--encoder", "stml", "--size", "32x24",
                     "--l", "0.2", "--seed", "4", "--out", str(out)]) == 0
        ds = load_csv(csv_file)
        report = run_cv_eval(ds, "stml", make_cv_plan(ds, 4), l=0.2, size=(32, 24))
        config = {"dataset": str(csv_file), "encoder": "stml", "l": 0.2, "u": scaling.DEFAULT_U,
                  "seed": 4, "size": [32, 24]}
        assert read_json(out, EvalReport) == dataclasses.replace(report, config=config)

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

    def test_negative_seed_exits_2(self, csv_file, capsys):
        assert main(["eval", "--dataset", str(csv_file), "--encoder", "stml",
                     "--size", "32x32", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == ""

    def test_stdout_is_the_report_file(self, tmp_path, csv_file, capsys):
        out = tmp_path / "report.json"
        args = ["eval", "--dataset", str(csv_file), "--encoder", "tabular"]
        assert main([*args, "--out", str(out)]) == 0
        assert "mean BAC" in capsys.readouterr().err
        assert main(args) == 0
        captured = capsys.readouterr()
        assert strict_loads(captured.out) == strict_loads(out.read_text())
        assert captured.out == out.read_text() + "\n"
        assert "tiny / tabular: mean BAC" in captured.err

    @pytest.mark.parametrize("encoder", ["tabular", "retire"])
    def test_jobs_below_one_exits_2_before_fitting(self, tmp_path, csv_file, capsys,
                                                   monkeypatch, encoder):
        # --jobs is not an option of eval any more, so argparse rejects it
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the jobs check")

        monkeypatch.setattr(encoders, "fit", no_fit)
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(csv_file), "--encoder", encoder,
                     "--jobs", "0", "--out", str(out)])
        assert code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iters", ["0", "-1", "5"])
    def test_igtd_iters_below_one_exits_2(self, tmp_path, csv_file, capsys, iters):
        # no eval searches an assignment, so eval takes no --igtd-iters, of any value
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(csv_file), "--encoder", "igtd",
                     f"--igtd-iters={iters}", "--out", str(out)])
        assert code == 2
        assert "unrecognized arguments: --igtd-iters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("encoder", ["stml", "retire", "igtd", "tabular"])
    @pytest.mark.parametrize("bounds", [("5", "-1"), ("0.9", "0.1")])
    def test_bad_bounds_exit_2_before_fitting(self, tmp_path, csv_file, capsys, monkeypatch,
                                              encoder, bounds):
        # stml scales nothing, but its eval checks --l and --u as the others do
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        monkeypatch.setattr(encoders, "fit", no_fit)
        monkeypatch.setattr(scaling, "fit", no_fit)
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(csv_file), "--encoder", encoder,
                     "--l", bounds[0], "--u", bounds[1], "--out", str(out)])
        assert code == 2
        assert "bounds must satisfy" in capsys.readouterr().err
        assert not out.exists()

    def test_igtd_one_feature_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a,label\n" + "".join(f"{i * 0.5},{i % 2}\n" for i in range(12)))
        out = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(path), "--encoder", "igtd", "--out", str(out)])
        assert code == 2
        assert "need at least 2 features" in capsys.readouterr().err
        assert not out.exists()

    def test_config_echo_has_no_jobs(self, tmp_path, csv_file):
        out = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(csv_file), "--encoder", "tabular",
                     "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["config"]) == [
            "dataset", "encoder", "l", "u", "seed", "size"]


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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mean rank" in captured.err

    def test_stdout_is_the_comparison_file(self, tmp_path, capsys):
        paths = [str(fake_report(tmp_path, "d1", m, [0.8 + k * 0.01] * 10))
                 for k, m in enumerate(("retire", "stml"))]
        out = tmp_path / "cmp.json"
        assert main(["stats", "--reports", *paths, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", "--reports", *paths]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text() + "\n"
        assert strict_loads(captured.out)["methods"] == ["retire", "stml"]
        assert "mean rank" in captured.err

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
        assert f"error: {bad}: report lacks the key 'mean_bac'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(NOT_JSON))
    def test_report_not_json_exits_2(self, tmp_path, capsys, case):
        good = fake_report(tmp_path, "d1", "retire", [0.8] * 10)
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_JSON[case])
        assert main(["stats", "--reports", str(good), str(bad)]) == 2
        assert f"{bad} is not a UTF-8 JSON document" in capsys.readouterr().err


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
        assert "linear fit:" in capsys.readouterr().err

    def test_stdout_is_jsonl(self, capsys):
        assert main(["bench", "--encoder", "stml", "--grid", "2,3,4", "--samples", "4",
                     "--repeats", "1", "--size", "32x32"]) == 0
        captured = capsys.readouterr()
        docs = [strict_loads(line) for line in captured.out.splitlines()]
        assert [d["n_features"] for d in docs] == [2, 3, 4]
        assert "linear fit:" in captured.err

    @pytest.mark.parametrize("option, value", [
        ("--l", "0.9"), ("--u", "0.1"), ("--igtd-iters", "0"), ("--igtd-patience", "0")])
    def test_fit_options_rejected(self, capsys, option, value):
        # the sweep fits with the defaults: an option it would ignore is refused
        assert main(["bench", "--encoder", "retire", "--grid", "4,8,12", "--samples", "8",
                     "--repeats", "1", "--size", "32x32", option, value]) == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["bench", "--encoder", "retire", "--grid", "4,8,12", "--samples", "8",
                     "--repeats", "1", "--size", "32x32", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == ""

    def test_bad_grid_exits_2(self):
        assert main(["bench", "--encoder", "retire", "--grid", "10,5",
                     "--samples", "8", "--repeats", "1"]) == 2

    @pytest.mark.parametrize("budget", ["nan", "0", "-1", "inf"])
    def test_budget_not_finite_positive_exits_2(self, capsys, budget):
        assert main(["bench", "--encoder", "retire", "--grid", "4,8,12",
                     "--samples", "8", "--repeats", "1", "--budget-secs", budget]) == 2
        assert "budget_secs" in capsys.readouterr().err
