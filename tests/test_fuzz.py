"""Random edits to model and report documents end in a typed error or in a
working model, never in any other exception.

Each example takes the JSON of a fitted model of one kind (or of an
evaluation report), applies one to three random edits at random places in
the document, and passes the text through ``read_json`` and, for a model,
``encode_batch`` on one finite row. An ``MdencError`` anywhere is the
expected outcome of a bad document; any other exception fails the test.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mdenc import encoders
from mdenc._doc import read_json, to_doc
from mdenc.data import generate_synthetic, make_cv_plan
from mdenc.errors import MdencError
from mdenc.probe import EvalReport, run_cv_eval

N_FEATURES = 5
ROW = np.linspace(-1.0, 1.0, N_FEATURES)[None, :]
DATASET = generate_synthetic(20, N_FEATURES, seed=0)
DOCUMENTS = {kind: to_doc(encoders.fit(kind, DATASET, size=(64, 64))) for kind in encoders.KINDS}
DOCUMENTS["report"] = to_doc(run_cv_eval(DATASET, "tabular", make_cv_plan(DATASET, seed=0)))

# wrong types, non-finite tokens (json writes NaN and Infinity) and numbers
# past every fixed-width type
REPLACEMENTS = ["text", "", True, None, {}, [], [[]], 0, 1, -1, 0.5, -0.5,
                float("nan"), float("inf"), -float("inf"), 2**70, -2**70]
EDITS = st.tuples(st.sampled_from(["replace", "step", "nest", "drop", "add"]),
                  st.integers(0, 10**6), st.sampled_from(REPLACEMENTS))


def places(doc, path=()):
    """The path of every value in ``doc``, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from places(value, path + (key,))


def apply_edit(doc, edit):
    """``doc`` with one edit made at the place the edit's index picks: a
    number steps one up or down (other values are replaced), and an
    addition goes into the container there, or else beside the value."""
    action, index, value = edit
    value = copy.deepcopy(value)  # the shared empty containers stay empty
    holder = [doc]  # so that the document itself can be edited too
    paths = list(places(holder))[1:]
    path = paths[index % len(paths)]
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "add" and isinstance(parent[key], (dict, list)):
        parent, key = parent[key], None
    if action == "step" and type(parent[key]) in (int, float):  # one past a bound
        parent[key] += 1 if index % 2 else -1
    elif action in ("replace", "step"):
        parent[key] = value
    elif action == "nest":
        parent[key] = [parent[key]] if index % 2 else [[parent[key]]]
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[f"unknown_{index % 3}"] = value
    else:
        parent.append(value)
    return holder[0] if holder else None


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
def test_edited_document_raises_only_typed_errors(tmp_path, name, edits):
    doc = copy.deepcopy(DOCUMENTS[name])
    for edit in edits:
        doc = apply_edit(doc, edit)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity tokens included
    try:
        value = read_json(path, EvalReport if name == "report" else encoders.EncoderModel)
        if name != "report":
            encoders.encode_batch(value, ROW)
    except MdencError:
        pass
