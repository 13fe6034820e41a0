"""Min-max scaling into guard bounds [l, u] inside the unit interval.

Training values always land in [l, u] (minimum -> l, maximum -> u); values
seen only at prediction time may fall outside the fitted range and then
continue linearly past the bounds before being clamped to [0, 1]. Keeping
l > 0 and u < 1 leaves that headroom on the canvas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (FitError, ParameterError, ShapeError, StateError, brief, float_array,
                     real_number)

DEFAULT_L = 0.05
DEFAULT_U = 0.95


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature extrema plus the target interval [l, u].

    ``fit_fingerprint`` is a SHA-256 digest of the training matrix, kept so
    audits can prove which fold the parameters were fitted on.
    """

    mins: np.ndarray
    maxs: np.ndarray
    l: float
    u: float
    fit_fingerprint: str

    def __post_init__(self):
        mins = np.ascontiguousarray(float_array(self.mins, "mins"))
        maxs = np.ascontiguousarray(float_array(self.maxs, "maxs"))
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ParameterError("mins and maxs must be 1-d arrays of equal length")
        if np.any(mins > maxs):
            raise ParameterError("every min must be <= the corresponding max")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(maxs - mins).all():
                raise FitError("every feature needs a finite range (max - min)")
        bounds = guard_bounds(self.l, self.u)
        if not isinstance(self.fit_fingerprint, str):
            raise ParameterError(f"fit_fingerprint must be text, got {brief(self.fit_fingerprint)}")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        for name, value in zip(("mins", "maxs", "l", "u"), (mins, maxs, *bounds)):
            object.__setattr__(self, name, value)

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]


def guard_bounds(l, u) -> tuple[float, float]:
    """The guard bounds as floats; ParameterError unless 0 <= l < u <= 1."""
    l, u = real_number(l, "l"), real_number(u, "u")
    if not (0.0 <= l < u <= 1.0):
        raise ParameterError(f"bounds must satisfy 0 <= l < u <= 1, got l={l}, u={u}")
    return l, u


def matrix_fingerprint(X) -> str:
    """SHA-256 over shape and raw float64 bytes of a matrix."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(repr(X.shape).encode("ascii"))
    digest.update(X.tobytes())
    return digest.hexdigest()


def fit(X_train, l: float = DEFAULT_L, u: float = DEFAULT_U) -> ScalerParams:
    """Learn column-wise extrema from a non-empty training matrix; every
    column needs a finite range. Bad bounds are reported before X is read."""
    l, u = guard_bounds(l, u)
    X = float_array(X_train, "training values must be an array of numbers")
    if X.ndim != 2:
        raise ShapeError(f"training matrix must be 2-d, got shape {X.shape}")
    if X.size == 0:
        raise FitError("training matrix is empty")
    return ScalerParams(X.min(axis=0), X.max(axis=0), l, u, matrix_fingerprint(X))


def transform(params: ScalerParams, x) -> np.ndarray:
    """Scale a feature vector (or matrix of rows) into [0, 1].

    Each value maps to l + (x - min) / (max - min) * (u - l); results for
    values inside the fitted range are kept in [l, u] exactly, anything
    outside is clamped to [0, 1]. Degenerate features (min == max) map to
    the midpoint (l + u) / 2.
    """
    if not isinstance(params, ScalerParams):
        raise StateError("not a fitted scaler")
    x = float_array(x, "feature values must be an array of numbers")
    if x.ndim not in (1, 2) or x.shape[-1] != params.n_features:
        raise ShapeError(
            f"expected {params.n_features} features, got input of shape {x.shape}"
        )
    l, u = params.l, params.u
    span = params.maxs - params.mins
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (x - params.mins) / span
    out = np.clip(l + ratio * (u - l), 0.0, 1.0)
    # values inside the fitted range must not escape [l, u] by rounding
    in_range = (ratio >= 0.0) & (ratio <= 1.0)
    np.copyto(out, np.clip(out, l, u), where=in_range)
    np.copyto(out, 0.5 * (l + u), where=(span == 0.0))
    return out
