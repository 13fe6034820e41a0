"""Average-rank helper shared by the pixel-assignment encoder and the
statistics module."""

from __future__ import annotations

import numpy as np


def rank_average(values) -> np.ndarray:
    """1-based ranks of ``values``; tied entries share the mean of their
    positions (so e.g. two smallest equal values both get rank 1.5). The
    tied groups are those of ``np.unique``, so the values must be finite:
    it would put every NaN in one group."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64).ravel(),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
