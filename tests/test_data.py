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
