"""Random edits to rows, to KEEL and CSV text and to the CLI's input files
end in a typed error or in a working result, never in any other exception.

* Rows: one to three edits to a finite row matrix (a cell replaced by text,
  NaN, ±inf, 2⁷⁰ or None, a cell nested in a list, a column dropped or
  added in one row or in all, an extra axis), then ``encode_batch`` for each
  kind and ``scaling.transform``. Rows that hold text raise ``ShapeError``.
* Text: one to four character edits to the files ``write_keel_file`` and
  ``save_csv`` write, then ``load_keel`` and ``load_csv``.
* CLI: edited CSV files through ``mdenc fit`` and ``mdenc eval --encoder
  tabular``, which exit 0 or 2, never 1 (an internal error).
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fixtures import save_csv, write_keel_file
from mdenc import cli, encoders, scaling
from mdenc.data import generate_synthetic, load_csv, load_keel
from mdenc.errors import MdencError, ShapeError

N_FEATURES = 5
MODELS = {kind: encoders.fit(kind, generate_synthetic(20, N_FEATURES, seed=0), size=(32, 32))
          for kind in encoders.KINDS}
ROWS = np.linspace(-1.0, 1.0, 2 * N_FEATURES).reshape(2, N_FEATURES).tolist()

# numeric text among them, which numpy would parse
CELLS = ["0.5", "-1e3", "", "x", b"1", float("nan"), float("inf"), -float("inf"), 2**70, None]
ROW_EDITS = st.tuples(st.sampled_from(["cell", "nest", "drop", "add", "axis"]),
                      st.integers(0, 10**6), st.sampled_from(CELLS))


def edit_rows(rows, edits):
    """``rows`` (a list of row lists) with each edit made at the cell, row
    or column its index picks, an odd index editing every row; extra axes
    go on last, so that each edit finds a matrix."""
    rows = copy.deepcopy(rows)
    wrapped_rows, wraps = [], 0
    for action, index, value in edits:
        r, c = divmod(index // 2 % (len(rows) * N_FEATURES), N_FEATURES)
        row = rows[r]
        if action == "axis" and index % 2:
            wraps += 1
        elif action == "axis":
            wrapped_rows.append(r)
        elif action in ("drop", "add"):
            for target in rows if index % 2 else [row]:
                if action == "add":
                    target.append(value)
                elif target:
                    del target[c % len(target)]
        elif row:
            c %= len(row)
            row[c] = value if action == "cell" else [row[c]]
    for r in wrapped_rows:
        rows[r] = [rows[r]]
    for _ in range(wraps):
        rows = [rows]
    return rows


def holds_text(value) -> bool:
    if isinstance(value, list):
        return any(map(holds_text, value))
    return isinstance(value, (str, bytes))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=st.lists(ROW_EDITS, min_size=1, max_size=3))
def test_edited_rows_raise_only_typed_errors(edits):
    rows = edit_rows(ROWS, edits)
    calls = [lambda kind=kind: encoders.encode_batch(MODELS[kind], rows) for kind in MODELS]
    calls.append(lambda: scaling.transform(MODELS["retire"].scaler, rows))
    for call in calls:
        try:
            call()
        except MdencError as exc:
            assert not holds_text(rows) or isinstance(exc, ShapeError)
        else:
            assert not holds_text(rows), "text was read as numbers"


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    """The KEEL and CSV text of a small synthetic dataset."""
    ds = generate_synthetic(12, 3, seed=0)
    tmp = tmp_path_factory.mktemp("written")
    save_csv(ds, tmp / "synth.csv")
    return {"keel": write_keel_file(ds, tmp / "synth.dat").read_text(),
            "csv": (tmp / "synth.csv").read_text()}


CHARS = list('@,?{}%"') + ["\n", "\r", "\0", "é", "7"]
CHAR_EDITS = st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                       st.integers(0, 10**6), st.sampled_from(CHARS))


def edit_text(text, edits):
    """``text`` with each edit made at the position its index picks."""
    for action, index, char in edits:
        i = index % (len(text) + 1)
        if action == "insert":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + (char if action == "replace" else "") + text[i + 1:]
    return text


@pytest.mark.parametrize("name", ["csv", "keel"])
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(CHAR_EDITS, min_size=1, max_size=4))
def test_edited_text_raises_only_typed_errors(tmp_path, texts, name, edits):
    path = tmp_path / "edited"
    path.write_bytes(edit_text(texts[name], edits).encode())
    for load in (load_keel, load_csv):
        try:
            load(path)
        except MdencError:
            pass


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(CHAR_EDITS, min_size=1, max_size=4), kind=st.sampled_from(encoders.KINDS))
def test_cli_exits_0_or_2_on_edited_csv(tmp_path, capsys, texts, edits, kind):
    path = tmp_path / "edited.csv"
    path.write_bytes(edit_text(texts["csv"], edits).encode())
    out = str(tmp_path / "out.json")
    for argv in (["fit", "--encoder", kind, "--size", "32x32"], ["eval", "--encoder", "tabular"]):
        status = cli.main([*argv, "--dataset", str(path), "--out", out])
        assert status in (0, 2), capsys.readouterr().err
