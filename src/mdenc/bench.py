"""Encode-time sweeps over feature dimensionality, with a least-squares
linearity check.

Sweeps time on a monotonic clock; the median over repeats resists scheduler
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
    (timed separately, the interesting part for the assignment search),
    run one untimed warm-up batch, then time ``repeats`` full-batch
    encodes and record the median.

    A sweep point that exhausts ``budget_secs`` (finite and above 0) is
    cut short and marked truncated instead of hanging the sweep.
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
    records = []
    for index, n_features in enumerate(counts):
        ds = generate_synthetic(n_samples, n_features, seed + index)
        point_start = time.perf_counter()
        model = encoders.fit(encoder_kind, ds, size=size)
        fit_time = time.perf_counter() - point_start
        if fit_time > budget_secs:
            records.append(TimingRecord(encoder_kind, n_features, n_samples,
                                        0, math.nan, fit_time, True))
            continue
        encoders.encode_batch(model, ds.X)  # warm-up, excluded from the measurement
        times: list[float] = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            encoders.encode_batch(model, ds.X)
            times.append(time.perf_counter() - t0)
            if time.perf_counter() - point_start > budget_secs:
                break
        records.append(TimingRecord(encoder_kind, n_features, n_samples,
                                    len(times), float(np.median(times)),
                                    fit_time, len(times) < repeats))
    return records


def linearity_fit(records) -> tuple[float, float, float]:
    """Ordinary least squares of median encode time against feature count.

    Returns (slope, intercept, r_squared); a constant series has slope 0
    and r_squared defined as 0. Records without a finite time (truncated
    before any repeat) are skipped.
    """
    points = [(r.n_features, r.encode_time) for r in records
              if math.isfinite(r.encode_time)]
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
