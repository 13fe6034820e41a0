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

from .errors import FitError, ParameterError, ShapeError

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
        mins = np.ascontiguousarray(self.mins, dtype=np.float64)
        maxs = np.ascontiguousarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ParameterError("mins and maxs must be 1-d arrays of equal length")
        if np.any(mins > maxs):
            raise ParameterError("every min must be <= the corresponding max")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(maxs - mins).all():
                raise FitError("every feature needs a finite range (max - min)")
        if not (0.0 <= self.l < self.u <= 1.0):
            raise ParameterError(
                f"bounds must satisfy 0 <= l < u <= 1, got l={self.l}, u={self.u}"
            )
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def n_features(self) -> int:
        return self.mins.shape[0]


def matrix_fingerprint(X) -> str:
    """SHA-256 over shape and raw float64 bytes of a matrix."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(repr(X.shape).encode("ascii"))
    digest.update(X.tobytes())
    return digest.hexdigest()


def fit(X_train, l: float = DEFAULT_L, u: float = DEFAULT_U) -> ScalerParams:
    """Learn column-wise extrema from a non-empty training matrix; every
    column needs a finite range."""
    if not (0.0 <= l < u <= 1.0):
        raise ParameterError(f"bounds must satisfy 0 <= l < u <= 1, got l={l}, u={u}")
    X = np.asarray(X_train, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise FitError("training matrix is empty")
    return ScalerParams(
        X.min(axis=0), X.max(axis=0), float(l), float(u), matrix_fingerprint(X)
    )


def transform(params: ScalerParams, x) -> np.ndarray:
    """Scale a feature vector (or matrix of rows) into [0, 1].

    Each value maps to l + (x - min) / (max - min) * (u - l); results for
    values inside the fitted range are kept in [l, u] exactly, anything
    outside is clamped to [0, 1]. Degenerate features (min == max) map to
    the midpoint (l + u) / 2.
    """
    x = np.asarray(x, dtype=np.float64)
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
