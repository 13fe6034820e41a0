"""Exception hierarchy for the toolkit.

Every contract violation raises a subclass of :class:`MdencError`, so the
CLI can map validation failures to exit code 2 while anything else stays a
genuine internal error (exit code 1).
"""


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
