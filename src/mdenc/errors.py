"""Exception hierarchy for the toolkit, and the input checks that
several modules share.

Every contract violation raises a subclass of :class:`MdencError`, so the
CLI can map validation failures to exit code 2 while anything else stays a
genuine internal error (exit code 1).
"""

import numbers
import operator
import reprlib

import numpy as np


class MdencError(Exception):
    """Base class for all validation and contract errors."""


class ParseError(MdencError):
    """Malformed dataset file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedFeatureError(MdencError):
    """Input feature is not numeric."""


class MissingColumnError(MdencError):
    """Requested label column does not exist."""


class StratificationError(MdencError):
    """A class is too small to split into stratified folds."""


class ParameterError(MdencError):
    """Argument outside its documented domain."""


class ShapeError(MdencError):
    """Array dimensions do not match the fitted or expected shape."""


class StateError(MdencError):
    """Operation applied to a model of the wrong kind or state."""


class CapacityError(MdencError):
    """Image too small to hold the requested layout."""


class MetricError(MdencError):
    """Metric input is empty or inconsistent."""


class InsufficientDataError(MdencError):
    """Too few usable observations for the statistical test."""


class FitError(MdencError):
    """Training input unusable (empty or otherwise unfittable)."""


_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 3
_BRIEF_LENGTH = 200


def brief(value) -> str:
    """``repr(value)`` for an error message, at most ``_BRIEF_LENGTH``
    characters: reprlib shows a few items of each container, three levels
    deep, and the ends of a long text, so a huge value costs little to
    print. An int past ``str``'s digit limit prints as its type."""
    try:
        text = _BRIEF.repr(value)
    except ValueError:  # str() refuses ints of more than 4,300 digits
        text = f"<{type(value).__name__}>"
    return text if len(text) <= _BRIEF_LENGTH else text[:_BRIEF_LENGTH - 3] + "..."


def non_negative_int(value, what: str) -> int:
    """``value`` as an int when it is a non-negative integer (a seed, a
    sample count, a canvas side), not a bool; ParameterError naming ``what`` if not."""
    try:
        # numpy 1.x still indexes with np.bool_, with a DeprecationWarning
        number = -1 if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:  # a float, a string, None
        number = -1
    if number < 0:
        raise ParameterError(f"{what} must be a non-negative integer, got {brief(value)}")
    return number


def real_number(value, what: str) -> float:
    """``value`` as a float when it is a real number in float range (numpy
    scalars included, bools not); ParameterError naming ``what`` if not."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):  # np.bool_ is not Real
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise ParameterError(f"{what} must be a number, got {brief(value)}")


def float_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array (a float64 array itself, not a copy);
    ShapeError starting with ``what`` when they are ragged or not numbers.
    Text is not a number here, although numpy would parse ``"0.5"``."""
    # text is found before the cast, whose error would quote all of it
    try:
        given = values if isinstance(values, np.ndarray) else np.asarray(values)
        text = given.dtype.kind in "US" or given.dtype.kind == "O" and any(
            isinstance(v, (str, bytes)) for v in given.flat)
        array = None if text else np.asarray(given, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise ShapeError(f"{what}: {exc}") from None
    if array is None:
        raise ShapeError(f"{what}: text is not a number")
    return array
