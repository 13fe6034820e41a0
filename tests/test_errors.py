"""Text is not a number: every entry point that reads rows, scores or
points through ``errors.float_array`` raises ``ShapeError`` for text, numeric
text such as ``"0.5"`` included, and takes numbers as numpy converts them.
A bool is not a scalar number either, and an integer past float range is
refused with a typed error."""

import math

import numpy as np
import pytest

from mdenc import encoders, scaling, stats
from mdenc.data import Dataset, generate_synthetic
from mdenc.errors import (ParameterError, ShapeError, brief, float_array, non_negative_int,
                          real_number)
from mdenc.probe import EvalReport
from mdenc.raster import draw_polyline, fill_polygon, scanline_fill_mask

DATASET = generate_synthetic(20, 3, seed=0)
MODELS = {kind: encoders.fit(kind, DATASET, size=(32, 32)) for kind in encoders.KINDS}
ROWS = [[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]]
TRIANGLE = [[1.0, 1.0], [6.0, 1.0], [3.0, 6.0]]

# name -> (call, numeric input it accepts)
ENTRY_POINTS = {
    "Dataset X": (lambda v: Dataset("x", v, [0, 1], ("a", "b", "c"), ("0", "1")), ROWS),
    **{f"encode_batch {kind}": (lambda v, kind=kind: encoders.encode_batch(MODELS[kind], v), ROWS)
       for kind in encoders.KINDS},
    "scaling.fit": (scaling.fit, ROWS),
    "scaling.transform": (lambda v: scaling.transform(MODELS["retire"].scaler, v), ROWS),
    "ScalerParams": (lambda v: scaling.ScalerParams(v, [9.0, 9.0, 9.0], 0.1, 0.9, ""),
                     [0.5, 1.0, 2.0]),
    "mean_ranks": (stats.mean_ranks, ROWS),
    "F-test": (lambda v: stats.combined_5x2cv_f_test(v, [0.4] * 10), [0.5] * 10),
    "Wilcoxon": (lambda v: stats.wilcoxon_signed_rank(v, [0.4] * 10), [0.5] * 10),
    "EvalReport BACs": (lambda v: EvalReport("d", "e", v, 0.5), [0.4, 0.6]),
    "igtd error trace": (lambda v: encoders.IgtdMapping(1, 2, [0, 1], v), [1.0, 0.0]),
    "fill_polygon": (lambda v: fill_polygon(np.zeros((8, 8), np.uint8), v), TRIANGLE),
    "draw_polyline": (lambda v: draw_polyline(np.zeros((8, 8), np.uint8), v), TRIANGLE),
    "scanline_fill_mask": (lambda v: scanline_fill_mask(v, 8, 8), TRIANGLE),
}


def as_text(values, form):
    """``values`` with text in them: all of them as numeric text, as bytes,
    one of them as text beside numbers, or that in an object array."""
    values = np.asarray(values, dtype=np.float64)
    if form == "str":
        return values.astype(str).tolist()
    if form == "bytes":
        return values.astype(bytes)
    mixed = values.astype(object)
    mixed.flat[0] = str(values.flat[0])
    return mixed if form == "object array" else mixed.tolist()


@pytest.mark.parametrize("form", ["str", "bytes", "one str", "object array"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_text_raises_shape_error(name, form):
    call, numbers = ENTRY_POINTS[name]
    call(numbers)
    with pytest.raises(ShapeError, match="text is not a number"):
        call(as_text(numbers, form))


@pytest.mark.parametrize("values", [
    [1, 2**70], [-1, 2**64], [None, 1.0], [True, 2], [np.float32(0.1), 2], np.arange(3),
    np.array([1, 2**63], dtype=np.uint64), [[0.5, -0.0], [1e308, 5e-324]]])
def test_numbers_convert_as_numpy_converts_them(values):
    assert float_array(values, "x").tobytes() == np.asarray(values, dtype=np.float64).tobytes()


def test_float64_array_is_not_copied():
    values = np.zeros((2, 3))
    assert float_array(values, "x") is values


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_a_bool_is_not_a_scalar_number(value):
    with pytest.raises(ParameterError, match="must be a non-negative integer"):
        non_negative_int(value, "x")
    with pytest.raises(ParameterError, match="must be a number"):
        real_number(value, "x")


def test_integer_past_float_range():
    assert real_number(-2**70, "x") == -2.0**70
    with pytest.raises(ParameterError, match="x must be a number"):
        real_number(10**400, "x")
    with pytest.raises(ShapeError, match="^x: int too large"):
        float_array([1.0, 10**400], "x")


@pytest.mark.parametrize("trace", [[math.nan], [1.0, math.inf], [-math.inf, 0.0]])
def test_igtd_error_trace_must_be_finite(trace):
    with pytest.raises(ParameterError, match="igtd error trace must be finite"):
        encoders.IgtdMapping(1, 2, [0, 1], trace)


NESTED = [[[list(range(100))] * 100] * 100] * 100


@pytest.mark.parametrize("value", [
    "x" * 100_000, list(range(100_000)), {i: str(i) for i in range(100_000)}, NESTED,
    np.arange(100_000.0), -10**5000, [10**5000],
], ids=["text", "list", "dict", "nested", "array", "huge-int", "huge-int-in-list"])
def test_brief_bounds_what_a_message_prints(value):
    # str() of an int of more than 4,300 digits raises ValueError
    assert len(brief(value)) <= 200
    with pytest.raises(ParameterError, match="^x must be a non-negative integer, got "):
        non_negative_int(value, "x")
    with pytest.raises(ParameterError, match="^x must be a number, got "):
        real_number(value, "x")


def test_brief_prints_small_values_as_repr():
    for value in ("retire", (0, 64), [1.5, None], {"x": True}, 0.25, -3):
        assert brief(value) == repr(value)


def test_text_too_long_to_print_is_still_not_a_number():
    with pytest.raises(ShapeError, match="^x: text is not a number$"):
        float_array(["0" * 100_000], "x")
