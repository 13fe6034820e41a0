"""JSON artefacts: pinned file bytes, strict text and typed, checked reads."""

import copy
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mdenc
from fixtures import make_benchmark_dataset, strict_loads
from mdenc import encoders, read_json, write_json
from mdenc._doc import to_doc, to_json
from mdenc.bench import run_timing_sweep
from mdenc.cli import main
from mdenc.data import Dataset, make_cv_plan
from mdenc.errors import MetricError, ParameterError, ShapeError, StateError
from mdenc.probe import EvalReport, run_cv_eval
from mdenc.stats import combined_5x2cv_f_test

# SHA-256 of the files ``write_json`` wrote for cryotherapy models (64x64)
# and a retire report (32x32, plan seed 0) before it wrote every artefact;
# files written then must keep loading, and new ones match them. The igtd
# file is the model of one Zhu et al. descent from the identity
PINNED_ARTEFACT_DIGESTS = {
    "retire": "6fcf704ae867b02050eea0c827690dd9c95326e73d70d1ea0d6130d13a5c956e",
    "stml": "41ff8d7dd6f8b20fffb388c6f4c8e032cc8652578888c462a75b283f1dc05df0",
    "igtd": "7ed21e33d74c4e94df77ed239b7674ac6865f214935b4ccf158fbcc4a585bcb2",
    "report": "4295221340db526e4592050e54b9b045c9ea00ade40698d6988496d8d93467b5",
}
BACS = (0.8, 0.82, 0.79, 0.81, 0.8, 0.8, 0.83, 0.78, 0.8, 0.81)


def report_file(path, dataset, encoder, bacs):
    write_json(path, EvalReport(dataset, encoder, tuple(bacs), float(np.mean(bacs))))
    return path


class TestPinnedBytes:
    def check(self, tmp_path, key, value, cls):
        path = tmp_path / f"{key}.json"
        write_json(path, value)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ARTEFACT_DIGESTS[key]
        again = tmp_path / "again.json"
        write_json(again, read_json(path, cls))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_model_file(self, tmp_path, kind):
        model = encoders.fit(kind, make_benchmark_dataset("cryotherapy"), size=(64, 64))
        self.check(tmp_path, kind, model, encoders.EncoderModel)

    def test_report_file(self, tmp_path):
        ds = make_benchmark_dataset("cryotherapy")
        report = dataclasses.replace(run_cv_eval(ds, "retire", make_cv_plan(ds, 0),
                                                 size=(32, 32)), config={"seed": 0})
        self.check(tmp_path, "report", report, EvalReport)


class TestStrictJson:
    def test_non_finite_floats_become_null(self):
        value = {"a": (1.0, math.inf), "b": np.array([[math.nan, 2.0]]), "c": -math.inf}
        assert to_json(value, indent=None) == '{"a": [1.0, null], "b": [[null, 2.0]], "c": null}'

    @pytest.mark.parametrize("margin", [0.0, 0.05])
    def test_stats_out_with_a_degenerate_f_test(self, tmp_path, margin):
        # equal scores leave F undefined (NaN), a constant margin makes it infinite
        a = [b + margin for b in BACS]
        f_stat = combined_5x2cv_f_test(a, BACS).f_stat
        assert math.isinf(f_stat) if margin else math.isnan(f_stat)
        paths = [report_file(tmp_path / "a.json", "d1", "retire", a),
                 report_file(tmp_path / "b.json", "d1", "stml", BACS)]
        out = tmp_path / "cmp.json"
        assert main(["stats", "--reports", *map(str, paths), "--out", str(out)]) == 0
        f_test = strict_loads(out.read_text())["datasets"]["d1"]["f_tests"]["retire vs stml"]
        assert f_test["f_stat"] is None and f_test["degenerate"]

    def test_bench_out_with_every_point_truncated(self, tmp_path):
        options = dict(n_samples=8, repeats=2, size=(32, 32), budget_secs=1e-9)
        records = run_timing_sweep("retire", [4, 8], **options)
        assert all(math.isnan(r.encode_time) for r in records)
        out = tmp_path / "sweep.jsonl"
        assert main(["bench", "--encoder", "retire", "--grid", "4,8", "--samples", "8",
                     "--repeats", "2", "--size", "32x32", "--budget-secs", "1e-9",
                     "--out", str(out)]) == 0
        docs = [strict_loads(line) for line in out.read_text().splitlines()]
        assert [(d["encode_time"], d["truncated"]) for d in docs] == [(None, True)] * 2

    def test_only_doc_imports_json(self):
        source = Path(mdenc.__file__).parent
        importers = [p.name for p in sorted(source.glob("*.py"))
                     if re.search(r"^(import|from) json\b", p.read_text(), re.MULTILINE)]
        assert importers == ["_doc.py"]


class TestReportRange:
    @pytest.mark.parametrize("change", [
        {"per_split_bac": []}, {"per_split_bac": [7.0] * 10}, {"mean_bac": -3.0}])
    def test_loaded_report_rejected(self, tmp_path, capsys, change):
        good = report_file(tmp_path / "good.json", "d1", "retire", BACS)
        doc = to_doc(EvalReport("d1", "stml", BACS, float(np.mean(BACS))))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc | change))
        with pytest.raises(StateError):
            read_json(bad, EvalReport)
        assert main(["stats", "--reports", str(good), str(bad)]) == 2
        assert f"error: {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("bacs, mean", [((), 0.5), ((0.5, 1.5), 0.5), ((0.5,), 1.01),
                                            ((math.nan,), 0.5)])
    def test_constructed_report_rejected(self, bacs, mean):
        with pytest.raises(MetricError):
            EvalReport("d", "retire", bacs, mean)

    def test_bounds_accepted(self):
        assert EvalReport("d", "retire", (0.0, 1.0), 0.5).mean_bac == 0.5

    @pytest.mark.parametrize("dataset, encoder, bacs, mean, error", [
        (None, "retire", (0.5,), 0.5, ParameterError), (5, "retire", (0.5,), 0.5, ParameterError),
        ("d", None, (0.5,), 0.5, ParameterError), ("d", b"retire", (0.5,), 0.5, ParameterError),
        ("d", "retire", ("a",), 0.5, ShapeError), ("d", "retire", ((0.5,), (0.5, 0.5)), 0.5, ShapeError),
        ("d", "retire", (0.5, 0.5), "x", ParameterError), ("d", "retire", (0.5, 0.5), None, ParameterError),
        ("d", "retire", 0.5, 0.5, MetricError), ("d", "retire", ((0.5,), (0.5,)), 0.5, MetricError)])
    def test_fields_checked_when_built(self, dataset, encoder, bacs, mean, error):
        with pytest.raises(error):
            EvalReport(dataset, encoder, bacs, mean)

    def test_bacs_stored_as_floats_that_read_back(self, tmp_path):
        report = EvalReport("d", "retire", np.array([0.5, 0.75], dtype=np.float32), np.float32(0.625))
        assert report.per_split_bac == (0.5, 0.75) and type(report.mean_bac) is float
        write_json(tmp_path / "r.json", report)
        assert read_json(tmp_path / "r.json", EvalReport) == report


# the config values that JSON keeps as they are
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
# config keys and values, also those that JSON changes (a tuple reads back
# as a list, a non-finite float as None, an integer key as text) or cannot
# write (a set, a tuple key)
CONFIG_KEYS = st.text() | st.integers() | st.tuples(st.integers())
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sets(st.integers(), max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(CONFIG_KEYS, inner, max_size=3),
    max_leaves=8)


def json_kept(value):
    """Whether JSON reads ``value`` back unchanged: dicts with text keys,
    lists, text, integers, bools, None and finite floats."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and json_kept(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(json_kept, value))
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (str, int))  # a bool is an int


LABELS = st.lists(st.integers(0, 2**63 - 1), max_size=5)


class TestReportFields:
    @pytest.mark.parametrize("predictions", [
        5, "01", ((0, 1.5),), [[0.0]], [[True, False]], [[1, True]], [np.array([True])],
        [[1, [2]]], [{0: 1}], [[2**70]], [np.array([0.5])], [np.zeros((1, 1), dtype=int)], [None]])
    def test_bad_fold_predictions_raise_parameter_error(self, predictions):
        with pytest.raises(ParameterError, match="fold_predictions"):
            EvalReport("d", "e", (0.5, 0.6), 0.55, fold_predictions=predictions)

    @pytest.mark.parametrize("predictions", ["", {}, {"0": [0]}])
    def test_text_or_object_is_not_a_list_of_rows(self, predictions):
        with pytest.raises(ParameterError, match="fold_predictions"):
            EvalReport("d", "e", (0.5, 0.6), 0.55, fold_predictions=predictions)

    @pytest.mark.parametrize("config", [[1], None, "x", (("a", 1),)])
    def test_config_must_be_a_dict(self, config):
        with pytest.raises(ParameterError, match="config must be a dict"):
            EvalReport("d", "e", (0.5, 0.6), 0.55, config=config)

    def test_integer_arrays_stored_as_tuples_of_ints(self):
        report = EvalReport("d", "e", (0.5, 0.6), 0.55,
                            fold_predictions=np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert report.fold_predictions == ((0, 1), (1, 0))
        assert type(report.fold_predictions[0][0]) is int

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dataset=st.text(), encoder=st.text(),
           bacs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10), mean=st.floats(0.0, 1.0),
           predictions=st.lists(LABELS.map(list) | LABELS.map(tuple)
                                | LABELS.map(lambda v: np.array(v, dtype=np.int64)), max_size=4),
           config=st.dictionaries(st.text(), JSON_VALUES, max_size=4)
           | st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, max_size=4))
    def test_every_built_report_reads_back_equal(self, tmp_path, dataset, encoder, bacs, mean,
                                                 predictions, config):
        # a config that JSON would change is refused when the report is built
        if not json_kept(config):
            with pytest.raises(ParameterError, match="config must be a dict that reads back"):
                EvalReport(dataset, encoder, bacs, mean, predictions, config)
            return
        report = EvalReport(dataset, encoder, bacs, mean, predictions, config)
        write_json(tmp_path / "r.json", report)
        assert read_json(tmp_path / "r.json", EvalReport) == report

    @pytest.mark.parametrize("config", [
        {"a": {1, 2}}, {(1, 2): 0}, {"size": (32, 32)}, {"x": math.nan}, {1: 0},
        {"a": [math.inf]}, {"a": np.array([1, 2])}, {"a": np.int64(1)}])
    def test_config_that_json_changes_raises_parameter_error(self, config):
        with pytest.raises(ParameterError, match="config must be a dict that reads back"):
            EvalReport("d", "e", (0.5, 0.6), 0.55, config=config)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_strict_token_raises_state_error(self, tmp_path, token):
        # strict JSON on read: no NaN that write_json would then write as null
        path = tmp_path / "r.json"
        text = to_json(EvalReport("d", "e", (0.5, 0.6), 0.55, config={"x": 0}))
        path.write_text(text.replace('"x": 0', f'"x": {token}'))
        with pytest.raises(StateError, match=f"^{re.escape(str(path))} .*{token} is not strict"):
            read_json(path, EvalReport)


class TestModelLayout:
    """The layout type of a model document follows from the layout's keys."""

    @staticmethod
    def doc(kind):
        return to_doc(encoders.fit(kind, make_benchmark_dataset("cryotherapy"), size=(64, 64)))

    def load(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return read_json(path, encoders.EncoderModel)

    def test_layout_of_another_kind_rejected(self, tmp_path):
        doc = self.doc("retire")
        doc["layout"] = self.doc("stml")["layout"]
        with pytest.raises(StateError, match="'retire' model with a GridLayout layout"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize("layout, message", [
        ({"cx": 1.0, "cy": 1.0, "rmax": 1.0}, "model.layout lacks the key 'n'"),
        ({"cx": 1.0, "cy": 1.0, "rmax": 1.0, "n": 6, "x": 0},
         r"model.layout has unknown keys \['x'\]"),
        ({"rows": 2, "cols": 3}, "model.layout lacks the key 'n'"),
        ([], "model.layout must be a JSON object"),
        (None, "model.layout must be a JSON object"),
    ])
    def test_error_names_the_key_path(self, tmp_path, layout, message):
        doc = self.doc("retire")
        doc["layout"] = layout
        with pytest.raises(StateError, match=message):
            self.load(tmp_path, doc)


# documents to edit: a model of each kind (5 features in [0, 1]; igtd puts
# them on a 2x3 grid) and a report
UNIT_ROWS = Dataset("unit", np.random.default_rng(0).uniform(0.0, 1.0, size=(20, 5)),
                    np.tile([0, 1], 10), tuple(f"f{i}" for i in range(5)), ("0", "1"))
DOCUMENTS = {kind: to_doc(encoders.fit(kind, UNIT_ROWS, size=(64, 64))) for kind in encoders.KINDS}
DOCUMENTS["report"] = to_doc(EvalReport("d", "retire", BACS, float(np.mean(BACS)), ((0, 1),),
                                        {"seed": 0}))
PAST_FLOATS = "1" + "0" * 400  # an integer literal beyond float range


def edited_file(tmp_path, name, path, text):
    """The file of document ``name`` with the value at key ``path`` written
    as the JSON ``text``, which may be a literal that json.dumps never writes."""
    doc = copy.deepcopy(DOCUMENTS[name])
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = "<value>"
    file = tmp_path / f"{name}.json"
    file.write_text(json.dumps(doc).replace('"<value>"', text))
    return file


class TestMalformedDocuments:
    """Every value check belongs to a constructor, and a document that fails
    one raises StateError naming the file and the enclosing key path."""

    @pytest.mark.parametrize("name, path, text, where", [
        # a bool, null, text, float or out-of-range literal for a number or an int
        ("report", ("mean_bac",), "true", "report"),
        ("report", ("mean_bac",), "null", "report"),
        ("report", ("mean_bac",), '"0.8"', "report"),
        ("report", ("mean_bac",), "1e999", "report"),
        ("report", ("mean_bac",), PAST_FLOATS, "report"),
        ("retire", ("layout", "n"), "true", "model.layout"),
        ("retire", ("layout", "n"), "null", "model.layout"),
        ("retire", ("layout", "n"), '"5"', "model.layout"),
        ("retire", ("layout", "n"), "5.0", "model.layout"),
        ("retire", ("layout", "n"), "1e999", "model.layout"),
        ("retire", ("layout", "cx"), "true", "model.layout"),
        ("retire", ("layout", "cx"), "1e999", "model.layout"),
        ("retire", ("layout", "rmax"), PAST_FLOATS, "model.layout"),
        ("retire", ("scaler", "l"), "false", "model.scaler"),
        ("retire", ("scaler", "u"), "null", "model.scaler"),
        ("stml", ("layout", "rows"), "true", "model.layout"),
        ("stml", ("canvas_size", 0), "true", "model"),
        ("stml", ("canvas_size", 0), "64.0", "model"),
        ("stml", ("canvas_size", 1), '"64"', "model"),
        ("stml", ("canvas_size", 1), "null", "model"),
        ("igtd", ("layout", "cols"), "3.0", "model.layout"),
        ("igtd", ("layout", "error_trace", 0), "null", "model.layout"),
        ("igtd", ("layout", "error_trace", 0), "1e999", "model.layout"),
        ("igtd", ("layout", "error_trace", 0), '"0"', "model.layout"),
        ("igtd", ("layout", "assignment", 0), "0.0", "model.layout"),
        ("igtd", ("layout", "assignment", 0), PAST_FLOATS, "model.layout"),
        ("retire", ("scaler", "mins", 0), PAST_FLOATS, "model.scaler"),
        ("retire", ("scaler", "mins", 0), "null", "model.scaler"),
        ("retire", ("scaler", "maxs", 0), "1e999", "model.scaler"),
        # a number where text is expected, and a list kind
        ("report", ("dataset",), "5", "report"),
        ("report", ("encoder",), "null", "report"),
        ("retire", ("kind",), "5", "model"),
        ("retire", ("scaler", "fit_fingerprint"), "5", "model.scaler"),
        ("retire", ("kind",), '["retire"]', "model"),
        # bools in number lists, each of which would read as 1 or 1.0
        ("report", ("per_split_bac", 0), "true", "report"),
        ("retire", ("scaler", "maxs", 0), "true", "model.scaler"),
        ("igtd", ("layout", "error_trace", 0), "false", "model.layout"),
        ("igtd", ("layout", "assignment"), "[true, 0, 2, 3, 4]", "model.layout"),
        ("report", ("fold_predictions", 0), "[true, 0]", "report"),
        # ragged and nested arrays
        ("retire", ("scaler", "mins", 0), "[0.0]", "model.scaler"),
        ("retire", ("scaler", "mins"), "[[0.0, 0.0, 0.0, 0.0, 0.0]]", "model.scaler"),
        ("report", ("per_split_bac", 0), "[0.8]", "report"),
        ("report", ("per_split_bac",), "[[0.8, 0.8]]", "report"),
        ("igtd", ("layout", "error_trace"), "[[1.0]]", "model.layout"),
        ("igtd", ("layout", "assignment", 0), "[[2]]", "model.layout"),
        ("igtd", ("layout", "assignment"), "[[0, 1, 2, 3, 4]]", "model.layout"),
        ("report", ("fold_predictions", 0), "[0, [1]]", "report"),
        ("stml", ("canvas_size", 0), "[64]", "model"),
        # an object or text where a list is expected
        ("report", ("fold_predictions",), "{}", "report"),
        ("report", ("fold_predictions",), '""', "report"),
        ("retire", ("scaler", "mins"), "{}", "model.scaler"),
        ("igtd", ("layout", "error_trace"), "3.0", "model.layout"),
        # a config value that reads back as inf
        ("report", ("config",), '{"x": 1e999}', "report"),
    ])
    def test_refused_with_its_key_path(self, tmp_path, name, path, text, where):
        file = edited_file(tmp_path, name, path, text)
        with pytest.raises(StateError, match=f"^{re.escape(str(file))}: {re.escape(where)}[.:]"):
            read_json(file, EvalReport if name == "report" else encoders.EncoderModel)

    @pytest.mark.parametrize("name, path, text, where", [
        ("stml", ("canvas_size",), json.dumps([64] * 100_000), "model"),
        ("report", ("per_split_bac",), json.dumps([2.0] * 100_000), "report"),
        ("report", ("dataset",), json.dumps([0] * 100_000), "report"),
        ("report", ("config",), json.dumps({"x": [0.5] * 100_000}).replace("0.5", "1e999"),
         "report"),
        ("retire", ("kind",), json.dumps("x" * 100_000), "model"),
        ("retire", ("scaler", "fit_fingerprint"), json.dumps(list(range(100_000))),
         "model.scaler"),
        ("retire", ("scaler", "mins"), json.dumps(["0" * 100_000] * 5), "model.scaler"),
        ("retire", ("layout",), json.dumps({f"k{i}": 0 for i in range(100_000)}), "model.layout"),
    ], ids=["canvas_size", "per_split_bac", "dataset", "config", "kind", "fit_fingerprint",
            "text-mins", "unknown-keys"])
    def test_huge_value_gives_a_short_message(self, tmp_path, name, path, text, where):
        # messages print what the file holds, cut short
        file = edited_file(tmp_path, name, path, text)
        with pytest.raises(StateError, match=f"^{re.escape(str(file))}: {re.escape(where)}[.: ]") \
                as caught:
            read_json(file, EvalReport if name == "report" else encoders.EncoderModel)
        assert len(str(caught.value)) < 1024

    def test_config_too_deep_to_write(self, tmp_path):
        # the parser reads 600 levels, but writing them back needs more frames
        file = edited_file(tmp_path, "report", ("config",), f'{{"x": {"[" * 600}{"]" * 600}}}')
        with pytest.raises(StateError, match=f"^{re.escape(str(file))}: report: report config"):
            read_json(file, EvalReport)

    def test_integer_past_64_bits_in_a_float_list_loads_as_its_float(self, tmp_path):
        file = edited_file(tmp_path, "retire", ("scaler", "mins", 0), str(-2**70))
        model = read_json(file, encoders.EncoderModel)
        assert model.scaler.mins[0] == -2.0**70
        write_json(file, model)
        assert to_doc(read_json(file, encoders.EncoderModel)) == to_doc(model)
