import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import make_benchmark_dataset, save_csv, write_keel_file
from mdenc import data
from mdenc.data import (
    Dataset,
    generate_synthetic,
    load_csv,
    load_keel,
    make_cv_plan,
)
from mdenc.errors import (
    MdencError,
    MissingColumnError,
    ParameterError,
    ParseError,
    ShapeError,
    StratificationError,
    UnsupportedFeatureError,
)


def write(path, text):
    path.write_text(text)
    return path


SMALL_KEEL = """@relation toy
@attribute a real [0.0, 10.0]
@attribute b integer [0, 5]
@attribute cls {pos, neg}
@inputs a, b
@outputs cls
@data
1.0, 2, neg
3.5, 4, pos
0.5, 1, neg
2.0, 0, pos
"""


class TestKeelLoading:
    def test_small_file(self, tmp_path):
        ds = load_keel(write(tmp_path / "toy.dat", SMALL_KEEL))
        assert ds.name == "toy"
        assert ds.n_instances == 4
        assert ds.feature_names == ("a", "b")
        # classes in order of first appearance in the data rows
        assert ds.class_names == ("neg", "pos")
        assert ds.y.tolist() == [0, 1, 0, 1]
        assert ds.X[1].tolist() == [3.5, 4.0]

    def test_benchmark_shapes(self, tmp_path):
        for name, expected in (("banknote", (1372, 4)), ("sonar", (208, 60))):
            path = write_keel_file(make_benchmark_dataset(name), tmp_path / f"{name}.dat")
            ds = load_keel(path)
            assert (ds.n_instances, ds.n_features) == expected

    def test_keel_round_trip_exact(self, tmp_path):
        original = make_benchmark_dataset("cryotherapy")
        ds = load_keel(write_keel_file(original, tmp_path / "c.dat"))
        assert np.array_equal(ds.X, original.X)

    def test_empty_data_section(self, tmp_path):
        text = SMALL_KEEL.split("@data")[0] + "@data\n"
        with pytest.raises(ParseError, match="no instances"):
            load_keel(write(tmp_path / "e.dat", text))

    def test_malformed_attribute_reports_line(self, tmp_path):
        text = "@relation x\n@attribute broken\n@data\n1, 2\n"
        with pytest.raises(ParseError, match="line 2"):
            load_keel(write(tmp_path / "m.dat", text))

    def test_unknown_directive(self, tmp_path):
        text = "@relation x\n@bogus y\n@data\n"
        with pytest.raises(ParseError, match="line 2"):
            load_keel(write(tmp_path / "u.dat", text))

    def test_categorical_input_rejected(self, tmp_path):
        text = ("@relation x\n@attribute color {red, blue}\n"
                "@attribute cls {0, 1}\n@data\nred, 0\nblue, 1\n")
        with pytest.raises(UnsupportedFeatureError, match="color"):
            load_keel(write(tmp_path / "cat.dat", text))

    def test_non_numeric_cell(self, tmp_path):
        text = SMALL_KEEL.replace("3.5, 4, pos", "oops, 4, pos")
        with pytest.raises(UnsupportedFeatureError, match="oops"):
            load_keel(write(tmp_path / "nn.dat", text))

    def test_missing_rows_dropped_and_counted(self, tmp_path, caplog):
        text = SMALL_KEEL.replace("3.5, 4, pos", "3.5, ?, pos")
        with caplog.at_level("WARNING"):
            ds = load_keel(write(tmp_path / "q.dat", text))
        assert ds.n_instances == 3
        assert "dropped 1 rows" in caplog.text

    def test_row_width_mismatch(self, tmp_path):
        text = SMALL_KEEL.replace("3.5, 4, pos", "3.5, 4")  # data row on line 9
        with pytest.raises(ParseError, match="line 9"):
            load_keel(write(tmp_path / "w.dat", text))

    @pytest.mark.parametrize("byte", [b"\xff", b"\xe9"])
    def test_not_utf8_names_file_and_line(self, tmp_path, byte):
        path = tmp_path / "latin.dat"
        # the label of the last row, on line 10
        path.write_bytes(SMALL_KEEL.encode().replace(b"0.5, 1, neg", b"0.5, 1, n" + byte + b"g"))
        with pytest.raises(ParseError, match=r"line 10: latin.dat is not UTF-8 text"):
            load_keel(path)

    def test_output_defaults_to_last_attribute(self, tmp_path):
        text = ("@relation x\n@attribute a real [0, 1]\n@attribute k {0, 1}\n"
                "@data\n0.1, 0\n0.9, 1\n")
        ds = load_keel(write(tmp_path / "d.dat", text))
        assert ds.feature_names == ("a",)
        assert ds.class_names == ("0", "1")


class TestCsvLoading:
    def test_three_rows(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,c\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path, "c")
        assert (ds.n_instances, ds.n_features, ds.n_classes) == (3, 2, 2)
        assert ds.y.tolist() == [0, 1, 0]

    def test_label_by_index(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,c\n1,2,0\n3,4,1\n")
        ds = load_csv(path, 0)
        assert ds.feature_names == ("b", "c")

    def test_default_label_is_last_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b,c\n1,2,x\n3,4,y\n")
        assert load_csv(path).class_names == ("x", "y")

    def test_non_numeric_feature(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\nfoo,0\n1.0,1\n")
        with pytest.raises(UnsupportedFeatureError, match="foo"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,0\n2,1\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, "label")
        with pytest.raises(MissingColumnError):
            load_csv(path, 5)

    def test_missing_values_dropped(self, tmp_path, caplog):
        path = write(tmp_path / "t.csv", "a,b\n1,0\n?,1\n,0\n2,1\n")
        with caplog.at_level("WARNING"):
            ds = load_csv(path)
        assert ds.n_instances == 2
        assert "dropped 2 rows" in caplog.text

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path / "e.csv", ""))

    def test_errors_name_the_file_line(self, tmp_path):
        # the quoted cell of record 2 spans lines 2-3, so "oops" is on line 5
        path = write(tmp_path / "q.csv", 'a,b,label\n"1.0\n",2,x\n3,4,y\noops,5,x\n')
        with pytest.raises(UnsupportedFeatureError, match="line 5"):
            load_csv(path)
        # a record spanning lines is named by the line it starts on
        path = write(tmp_path / "s.csv", 'a,b,label\n\n"oo\nps",5,x\n1,2,y\n')
        with pytest.raises(UnsupportedFeatureError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("byte", [b"\xff", b"\xe9"])
    def test_not_utf8_names_file_and_line(self, tmp_path, byte):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b,label\n1,2,x\n3,4," + byte + b"\n")
        with pytest.raises(ParseError, match=r"line 3: latin.csv is not UTF-8 text"):
            load_csv(path)

    def test_round_trip_identical(self, tmp_path):
        src = write_keel_file(make_benchmark_dataset("haberman"), tmp_path / "h.dat")
        ds = load_keel(src)
        save_csv(ds, tmp_path / "h.csv")
        again = load_csv(tmp_path / "h.csv", "class")
        assert np.array_equal(ds.X, again.X)
        assert np.array_equal(ds.y, again.y)


@st.composite
def text_tables(draw):
    """(labels, rows of cell strings) with the label last: repr floats,
    ``?`` or empty cells, and 2-4 alphanumeric labels."""
    labels = draw(st.lists(st.text(string.ascii_letters + string.digits, min_size=1,
                                   max_size=4), min_size=2, max_size=4, unique=True))
    n_features = draw(st.integers(1, 4))
    missing = st.sampled_from(["?", ""])
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    feature = st.one_of(number, number, number, missing)
    label = st.one_of(st.sampled_from(labels), st.sampled_from(labels), missing)
    rows = draw(st.lists(st.tuples(st.lists(feature, min_size=n_features,
                                            max_size=n_features), label)
                         .map(lambda r: [*r[0], r[1]]), min_size=1, max_size=12))
    return labels, rows


def load_both(labels, rows):
    """Load the table written as KEEL and as CSV; per format, the dataset
    or the error raised, and the dropped-row counts logged."""
    names = [f"f{i}" for i in range(len(rows[0]) - 1)] + ["class"]
    keel = ["@relation table", *(f"@attribute {n} real" for n in names[:-1]),
            f"@attribute class {{{', '.join(labels)}}}", "@data"]
    csv = [",".join(names)]
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for loader, header, suffix in ((data.load_keel, keel, "dat"), (data.load_csv, csv, "csv")):
            path = Path(tmp) / f"table.{suffix}"
            path.write_text("\n".join(header + [",".join(r) for r in rows]) + "\n")
            with mock.patch.object(data.logger, "warning") as warning:
                try:
                    result = loader(path)
                except MdencError as exc:
                    result = exc
            outcomes.append((result, [call.args[2] for call in warning.call_args_list]))
    return outcomes, len(keel)


class TestKeelCsvAgree:
    @settings(max_examples=150, deadline=None)
    @given(text_tables())
    def test_same_table_loads_the_same(self, table):
        labels, rows = table
        ((keel, keel_dropped), (csv, csv_dropped)), _ = load_both(labels, rows)
        dropped = sum(any(c in ("?", "") for c in row) for row in rows)
        assert keel_dropped == csv_dropped == ([dropped] if dropped else [])
        if isinstance(keel, Exception):
            assert type(keel) is type(csv) and str(keel) == str(csv)
            return
        assert np.array_equal(keel.X, csv.X) and keel.X.dtype == csv.X.dtype
        assert np.array_equal(keel.y, csv.y)
        assert keel.feature_names == csv.feature_names
        assert keel.class_names == csv.class_names
        assert keel.n_instances == len(rows) - dropped

    @settings(max_examples=60, deadline=None)
    @given(text_tables(), st.data())
    def test_non_numeric_cell_named_in_both_formats(self, table, extra):
        labels, rows = table
        token = extra.draw(st.text(string.ascii_letters, min_size=1, max_size=5)
                          .filter(lambda t: not _parses(t)))
        r = extra.draw(st.integers(0, len(rows) - 1))
        c = extra.draw(st.integers(0, len(rows[0]) - 2))
        row = ["0.5"] * (len(rows[0]) - 1) + [labels[0]]
        row[c] = token
        rows = rows[:r] + [row] + rows[r + 1:]
        outcomes, keel_header = load_both(labels, rows)
        for (result, _), header_lines in zip(outcomes, (keel_header, 1)):
            assert isinstance(result, UnsupportedFeatureError)
            assert f"{token!r} in column 'f{c}' (line {header_lines + r + 1})" in str(result)


def _parses(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            Dataset("x", np.zeros((3, 2)), np.zeros(2, dtype=int), ("a", "b"), ("0", "1"))

    def test_nan_rejected(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ParameterError):
            Dataset("x", X, np.zeros(1, dtype=int), ("a", "b"), ("0", "1"))

    def test_class_index_out_of_range(self):
        with pytest.raises(ParameterError):
            Dataset("x", np.zeros((2, 1)), np.array([0, 2]), ("a",), ("0", "1"))

    @pytest.mark.parametrize("y", [[0.5, 1.7], [0.0, 1.0], ["a", "b"], [True, False],
                                   [[0, 1], [1]], [0, None]])
    def test_class_indices_must_be_integers(self, y):
        with pytest.raises(ParameterError, match=r"class indices must be integers in range\(2\)"):
            Dataset("x", np.zeros((2, 1)), y, ("f",), ("0", "1"))

    @pytest.mark.parametrize("X", [[["a"], ["b"]], [[0.0], None], [[0.0, 1.0], [2.0]]])
    def test_feature_values_must_be_numbers(self, X):
        with pytest.raises(ShapeError, match="X must be a matrix of numbers"):
            Dataset("x", X, [0, 1], ("f",), ("0", "1"))

    @pytest.mark.parametrize("name", [None, 5, b"x", ("x",)])
    def test_name_must_be_text(self, name):
        with pytest.raises(ParameterError, match="dataset name must be text"):
            Dataset(name, np.zeros((2, 2)), [0, 1], ("a", "b"), ("0", "1"))

    @pytest.mark.parametrize("features, classes", [
        (3, ("0", "1")), (("f0", "f1", 2), ("0", "1")), ("ab", ("0", "1")),
        (("a", None), ("0", "1")), (("a", "b"), None), (("a", "b"), ("0", 1)),
        (("a", "b"), 2)])
    def test_names_must_be_sequences_of_text(self, features, classes):
        with pytest.raises(ParameterError, match="must be a sequence of text"):
            Dataset("x", np.zeros((2, 2)), [0, 1], features, classes)

    def test_names_stored_as_tuples(self):
        ds = Dataset("x", np.zeros((2, 2)), [0, 1], ["a", "b"], iter(["0", "1"]))
        assert (ds.feature_names, ds.class_names) == (("a", "b"), ("0", "1"))

    def test_caller_arrays_stay_writable_and_apart(self):
        # contiguous float64 rows and int64 labels, and a view of such rows
        base = np.zeros((3, 2))
        for X in (base[:2], np.zeros((2, 2))):
            y = np.array([0, 1])
            ds = Dataset("x", X, y, ("a", "b"), ("0", "1"))
            assert X.flags.writeable and y.flags.writeable
            assert not ds.X.flags.writeable and not ds.y.flags.writeable
            X[0, 0], y[0] = 5.0, 1
            assert ds.X[0, 0] == 0.0 and ds.y[0] == 0

    def test_labels_of_any_integer_type(self):
        for y in ([0, 1], np.array([0, 1], dtype=np.uint8), (np.int32(1), np.int32(0))):
            ds = Dataset("x", np.zeros((2, 1)), y, ("f",), ("0", "1"))
            assert ds.y.dtype == np.int64
        assert Dataset("x", np.zeros((0, 1)), [], ("f",), ("0", "1")).n_instances == 0

    @pytest.mark.parametrize("indices", [np.ones(6, dtype=bool), [1.9], [100], [6], [-1],
                                         ["1"], [[0, 1], [2]]])
    def test_subset_takes_integer_row_indices(self, indices):
        ds = generate_synthetic(6, 2, seed=0)
        with pytest.raises(ParameterError, match=r"row indices must be integers in range\(6\)"):
            ds.subset(indices)

    def test_immutable_arrays(self):
        ds = generate_synthetic(10, 2, seed=0)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0

    def test_subset_keeps_metadata(self):
        ds = generate_synthetic(10, 3, seed=0)
        sub = ds.subset([0, 2, 4])
        assert sub.n_instances == 3
        assert sub.class_names == ds.class_names
        assert np.array_equal(sub.X, ds.X[[0, 2, 4]])


class TestCVPlan:
    def test_stratified_counts(self):
        y = np.array([0] * 5 + [1] * 5)
        ds = Dataset("t", np.arange(20.0).reshape(10, 2), y, ("a", "b"), ("0", "1"))
        plan = make_cv_plan(ds, seed=0)
        assert plan.assignments.shape == (5, 10)
        for repeat in range(5):
            for cls in (0, 1):
                fold0 = np.sum((plan.assignments[repeat] == 0) & (y == cls))
                assert fold0 in (2, 3)

    def test_deterministic(self):
        ds = generate_synthetic(30, 4, seed=1)
        a = make_cv_plan(ds, seed=9).assignments
        b = make_cv_plan(ds, seed=9).assignments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, make_cv_plan(ds, seed=10).assignments)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            make_cv_plan(generate_synthetic(10, 2, seed=0), seed)

    @pytest.mark.parametrize("repeat, fold", [(5, 0), (0.5, 0), (-1, 0), (0, 2), (0, -1),
                                              (True, 0), (0, None)])
    def test_split_outside_the_plan_rejected(self, repeat, fold):
        plan = make_cv_plan(generate_synthetic(10, 2, seed=0), seed=0)
        with pytest.raises(ParameterError, match="repeat|fold"):
            plan.split(repeat, fold)

    def test_split_of_last_repeat_and_fold(self):
        plan = make_cv_plan(generate_synthetic(10, 2, seed=0), seed=0)
        train_idx, test_idx = plan.split(np.int64(4), 1)
        assert np.array_equal(test_idx, np.flatnonzero(plan.assignments[4] == 1))
        assert np.array_equal(train_idx, np.flatnonzero(plan.assignments[4] == 0))

    def test_single_member_class_rejected(self):
        ds = Dataset("t", np.arange(8.0).reshape(4, 2), np.array([0, 0, 0, 1]),
                     ("a", "b"), ("0", "1"))
        with pytest.raises(StratificationError):
            make_cv_plan(ds, seed=0)

    def test_plan_invariants_on_random_datasets(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n_classes = int(rng.integers(2, 5))
            counts = rng.integers(2, 12, size=n_classes)
            y = np.repeat(np.arange(n_classes), counts)
            rng.shuffle(y)
            n = len(y)
            ds = Dataset("t", rng.normal(size=(n, 2)), y,
                         ("a", "b"), tuple(map(str, range(n_classes))))
            plan = make_cv_plan(ds, seed=trial)
            for repeat in range(plan.repeats):
                train, test = plan.split(repeat, 0)
                merged = np.sort(np.concatenate([train, test]))
                assert np.array_equal(merged, np.arange(n))  # union, disjoint
                for cls in range(n_classes):
                    sizes = [np.sum((plan.assignments[repeat] == f) & (y == cls))
                             for f in (0, 1)]
                    assert abs(sizes[0] - sizes[1]) <= 1

    def test_split_is_complementary(self):
        ds = generate_synthetic(21, 3, seed=4)
        plan = make_cv_plan(ds, seed=2)
        train, test = plan.split(3, 1)
        assert set(train) | set(test) == set(range(21))
        assert not set(train) & set(test)

    @pytest.mark.parametrize("repeats, folds, assignments", [
        (5, 0, np.zeros((5, 6), dtype=np.int8)),
        (5, 1, np.zeros((5, 6), dtype=np.int8)),
        (1, 129, np.zeros((1, 6), dtype=np.int8)),
        (0, 2, np.zeros((0, 6), dtype=np.int8)),
        (2, 2, np.zeros((1, 6), dtype=np.int8)),
        (1, 2, np.zeros(6, dtype=np.int8)),
        (1, 2, [[0, 1, 2, 0, 1, 0]]),
        (1, 2, [[0, 1, -1, 0, 1, 0]]),
        (1, 3, [[0, 1, 255, 0, 1, 2]]),
        (1, 2, [[0.0, 0.5, 1.0, 0.0, 1.0, 0.0]]),
        (1, 2, [[0.0, 1.0, 1.0, 0.0, 1.0, 0.0]]),
        (1, 2, [[False, True, True, False, True, False]]),
    ], ids=["0-folds", "1-fold", "129-folds", "0-repeats", "repeats-mismatch", "1-d",
            "fold-too-high", "fold-negative", "wraps-in-int8", "fractional", "float",
            "bool"])
    def test_bad_plan_rejected(self, repeats, folds, assignments):
        with pytest.raises(ParameterError):
            data.CVPlan(repeats, folds, 0, assignments)

    def test_hand_built_plan_kept_read_only(self):
        plan = data.CVPlan(1, 3, 0, [[0, 1, 2, 2, 1, 0]])
        assert plan.assignments.dtype == np.int8 and not plan.assignments.flags.writeable
        assert [test.tolist() for _, _, _, test in plan.iter_splits()] == [[0, 5], [1, 4], [2, 3]]


class TestSyntheticGenerator:
    def test_shape_and_classes(self):
        ds = generate_synthetic(100, 50, seed=1)
        assert (ds.n_instances, ds.n_features, ds.n_classes) == (100, 50, 2)
        assert set(np.unique(ds.y)) == {0, 1}

    def test_single_feature(self):
        ds = generate_synthetic(100, 1, seed=1)
        assert ds.n_features == 1
        assert ds.n_classes == 2

    def test_byte_identical_per_seed(self):
        a = generate_synthetic(100, 50, seed=1)
        b = generate_synthetic(100, 50, seed=1)
        assert a.X.tobytes() == b.X.tobytes()
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.X, generate_synthetic(100, 50, seed=2).X)

    def test_centroid_separation(self):
        ds = generate_synthetic(4000, 8, seed=3)
        gap = ds.X[ds.y == 1].mean(axis=0) - ds.X[ds.y == 0].mean(axis=0)
        assert np.linalg.norm(gap) == pytest.approx(2.0, abs=0.15)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            generate_synthetic(3, 5, seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic(10, 0, seed=0)

    @pytest.mark.parametrize("args", [(10.5, 3, 0), (-10, 3, 0), (10, 2.5, 0), (10, 3, -1),
                                      (10, 3, 1.5), ("10", 3, 0)])
    def test_counts_and_seed_must_be_non_negative_integers(self, args):
        with pytest.raises(ParameterError, match="must be a non-negative integer"):
            generate_synthetic(*args)

    def test_numpy_integers_accepted(self):
        ds = generate_synthetic(np.int64(10), np.int32(3), np.uint8(1))
        assert ds.X.tobytes() == generate_synthetic(10, 3, 1).X.tobytes()
