"""Encode-time sweeps over feature dimensionality, with a least-squares
linearity check.

Sweeps time on a monotonic clock, in rounds of one encode per point, so host
drift falls on every point alike; the median over rounds resists scheduler
noise. No thread count is set: the timed encodes make no BLAS call, and only
the igtd fit, timed apart, sums rows through BLAS at the caller's count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import encoders
from .data import generate_synthetic
from .errors import FitError, ParameterError, non_negative_int, real_number

DEFAULT_GRID = (10, 25, 50, 100, 200, 350, 500)
DEFAULT_SAMPLES = 100
DEFAULT_REPEATS = 100
DEFAULT_BUDGET_SECS = 120.0


@dataclass(frozen=True)
class TimingRecord:
    """Median time to encode one full batch at a given dimensionality."""

    encoder: str
    n_features: int
    n_samples: int
    repeats: int           # timed repeats actually completed
    encode_time: float     # median seconds per batch (nan when truncated early)
    fit_time: float
    truncated: bool = False


def run_timing_sweep(encoder_kind: str, feature_counts=DEFAULT_GRID,
                     n_samples: int = DEFAULT_SAMPLES,
                     repeats: int = DEFAULT_REPEATS, seed: int = 0,
                     budget_secs: float = DEFAULT_BUDGET_SECS,
                     size: tuple[int, int] = encoders.DEFAULT_CANVAS) -> list[TimingRecord]:
    """Per feature count: generate a synthetic dataset, fit the encoder
    (timed separately, the interesting part for the assignment search) and
    run one untimed warm-up batch. Then time ``repeats`` rounds of one
    full-batch encode per point, and record each point's median.

    A point leaves the rotation, marked truncated, once its own fit and
    timed encodes have used up ``budget_secs`` (finite and above 0); one
    whose fit alone used it up is neither warmed up nor timed (time NaN).
    """
    counts = [non_negative_int(c, "feature count") for c in feature_counts]
    if not counts:
        raise ParameterError("feature_counts must be non-empty")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ParameterError("feature_counts must be strictly ascending")
    if non_negative_int(repeats, "repeats") < 1:
        raise ParameterError("repeats must be >= 1")
    budget_secs = real_number(budget_secs, "budget_secs")
    if not 0.0 < budget_secs < math.inf:  # also NaN
        raise ParameterError(f"budget_secs must be finite and above 0, got {budget_secs}")
    points = []  # (X, model, fit time, timed encodes) per feature count
    for index, n_features in enumerate(counts):
        ds = generate_synthetic(n_samples, n_features, seed + index)
        t0 = time.perf_counter()
        model = encoders.fit(encoder_kind, ds, size=size)
        points.append((ds.X, model, time.perf_counter() - t0, []))
    for X, model, fit_time, _ in points:
        if fit_time <= budget_secs:
            encoders.encode_batch(model, X)  # warm-up, excluded from the measurement
    for _ in range(repeats):
        for X, model, fit_time, times in points:
            if fit_time + sum(times) <= budget_secs:
                t0 = time.perf_counter()
                encoders.encode_batch(model, X)
                times.append(time.perf_counter() - t0)
    return [TimingRecord(encoder_kind, n, n_samples, len(times),
                         float(np.median(times)) if times else math.nan,
                         fit_time, len(times) < repeats)
            for n, (_, _, fit_time, times) in zip(counts, points)]


def linearity_fit(records) -> tuple[float, float, float]:
    """Ordinary least squares of median encode time against feature count.

    Returns (slope, intercept, r_squared); a constant series has slope 0
    and r_squared defined as 0. Truncated records are skipped: their
    medians cover fewer repeats than the others, or none (NaN).
    """
    points = [(r.n_features, r.encode_time) for r in records if not r.truncated]
    if len(points) < 3:
        raise FitError("need at least 3 timing records")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise FitError("feature counts are constant")
    slope = float(((x - x_mean) * (y - y_mean)).sum()) / sxx
    intercept = float(y_mean - slope * x_mean)
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared
