"""Deterministic 2-d rasterization into bare (height, width) uint8 arrays:
integer line stepping and even-odd polygon fill as numpy passes with no
loop per step or scanline (the per-step and per-scanline references live
in the tests), polar vertex placement and PGM/PPM export.

Coordinate convention: origin at the top-left corner, x rightward, y
downward; pixel (i, j) is sampled at its center (i + 0.5, j + 0.5).
Drawing operations write only 0 or 255, so any sequence of them leaves a
binarized image, and they avoid platform-dependent evaluation orders so
identical inputs produce byte-identical images everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError

MARGIN = 4.0  # pixels between the radius-1.0 circle and the canvas edge
# drawing calls reject coordinates that are not finite or beyond +-MAX_COORD
MAX_COORD = 2.0**24


def _check_image(pixels) -> None:
    if not isinstance(pixels, np.ndarray) or pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ShapeError("an image must be a 2-d uint8 array")


@dataclass(frozen=True)
class PolarLayout:
    """Polar placement: scaled value 1.0 sits at pixel radius ``rmax``
    around center (cx, cy); ``n`` is the vertex count."""

    cx: float
    cy: float
    rmax: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("vertex count must be >= 1")
        if self.rmax <= 0:
            raise ParameterError("rmax must be positive")


def polar_layout(width: int, height: int, n: int) -> PolarLayout:
    """Centered layout whose radius-1.0 circle keeps ``MARGIN`` pixels of
    clearance from the canvas edge."""
    rmax = min(width, height) / 2.0 - MARGIN
    if rmax <= 0:
        raise CapacityError(
            f"{width}x{height} canvas leaves no room inside a {MARGIN}-pixel margin"
        )
    return PolarLayout(width / 2.0, height / 2.0, rmax, n)


def polar_vertices(layout: PolarLayout, scaled) -> np.ndarray:
    """(n, 2) vertex coordinates for scaled radii in [0, 1].

    Vertex k sits at angle k * 2*pi/n measured from 12 o'clock, advancing
    clockwise on screen (y grows downward), at radius rmax * scaled[k].
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    if scaled.shape != (layout.n,):
        raise ShapeError(f"expected {layout.n} scaled values, got shape {scaled.shape}")
    angles = np.arange(layout.n) * (2.0 * math.pi / layout.n) - 0.5 * math.pi
    radii = layout.rmax * scaled
    return np.stack(
        [layout.cx + radii * np.cos(angles), layout.cy + radii * np.sin(angles)], axis=1
    )


def _check_points(pts: np.ndarray) -> None:
    # NaN fails the comparison too; the bound keeps the stroke's integer
    # products far inside int64
    if not np.all(np.abs(pts) <= MAX_COORD):
        raise ParameterError(f"point coordinates must be finite and within +-{MAX_COORD:.0f}")


def draw_polyline(pixels: np.ndarray, pts, closed: bool = False) -> np.ndarray:
    """Stroke 1-pixel-wide segments between consecutive points into
    ``pixels`` and return it.

    Endpoints are mapped to their containing pixels. Each segment plots the
    pixels of integer Bresenham stepping, endpoints inclusive, in closed
    form and only for the steps that land on the image; off-image pixels
    are clipped silently. A single point plots one pixel.
    """
    _check_image(pixels)
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    if not len(pts):
        raise ParameterError("need at least one point")
    _check_points(pts)
    start = np.floor(pts).astype(np.int64)
    # segment i runs to point i + 1; an open polyline ends on a zero-length
    # segment at its last point, which adds no pixel
    end = np.roll(start, -1, axis=0)
    if not closed:
        end[-1] = start[-1]
    delta, sign = np.abs(end - start), np.where(start < end, 1, -1)
    steps = delta.max(axis=1)
    seg = np.arange(len(start))
    major = (delta[:, 1] > delta[:, 0]).astype(np.intp)  # 0: x, 1: y
    origin, forward = start[seg, major], sign[seg, major] > 0
    size = np.take(pixels.shape[::-1], major)
    # steps k in [lo, hi] put the major coordinate origin +- k on the image
    lo = np.maximum(np.where(forward, -origin, origin - size + 1), 0)
    hi = np.minimum(np.where(forward, size - 1 - origin, origin), steps)
    count = np.maximum(hi - lo + 1, 0)
    seg = np.repeat(seg, count)
    k = (lo + count - np.cumsum(count))[seg] + np.arange(len(seg))
    # step k of L steps sits floor((2 |d| k + L - 1) / 2L) along each axis,
    # which is k along the major one
    span = np.maximum(steps[seg], 1)[:, None]
    offset = (2 * delta[seg] * k[:, None] + span - 1) // (2 * span)
    x, y = (start[seg] + sign[seg] * offset).T
    on = (x >= 0) & (x < pixels.shape[1]) & (y >= 0) & (y < pixels.shape[0])
    pixels[y[on], x[on]] = 255
    return pixels


def scanline_fill_mask(pts, width: int, height: int) -> np.ndarray:
    """Even-odd interior mask sampled at pixel centers.

    A center is inside iff an odd number of polygon edges cross the
    scanline strictly to its right. Edges meet the scanline y = j + 0.5
    under the half-open rule min(y1, y2) <= y < max(y1, y2), so a vertex
    shared by two edges is counted exactly once and the fill matches a
    brute-force even-odd point-in-polygon test pixel for pixel.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise ParameterError("polygon needs at least 3 (x, y) points")
    _check_points(pts)
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    yc = np.arange(height, dtype=np.float64)[:, None] + 0.5
    rows, edges = np.nonzero((y1 > yc) != (y2 > yc))
    xa, ya, yc = x1[edges], y1[edges], yc[rows, 0]
    xint = xa + (yc - ya) * (x2[edges] - xa) / (y2[edges] - ya)
    centers = np.arange(width, dtype=np.float64) + 0.5
    # all rows at once: count each crossing at the first center not left of
    # it; a center's parity is that of the counts to its right, and uint8
    # sums that wrap at 256 keep it
    first = np.searchsorted(centers, xint, side="left")
    table = np.bincount(rows * (width + 1) + first, minlength=height * (width + 1))
    table = table.astype(np.uint8).reshape(height, width + 1)
    right_of = np.cumsum(table[:, :0:-1], axis=1, dtype=np.uint8)[:, ::-1]
    return (right_of & 1).astype(bool)


def fill_polygon(pixels: np.ndarray, pts) -> np.ndarray:
    """Fill with the even-odd scanline mask, then stroke the closed outline
    so the silhouette boundary is never broken; returns ``pixels``.

    A degenerate polygon (zero signed area) falls back to the stroke alone.
    """
    _check_image(pixels)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ParameterError("polygon needs at least 3 points")
    _check_points(pts)
    x, y = pts[:, 0], pts[:, 1]
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) != 0.0:  # nonzero signed area
        pixels[scanline_fill_mask(pts, pixels.shape[1], pixels.shape[0])] = 255
    return draw_polyline(pixels, pts, closed=True)


def to_pgm(pixels: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255) — the canonical bit-exact export."""
    _check_image(pixels)
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


def to_ppm(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6) with the gray plane replicated into 3 channels."""
    _check_image(pixels)
    height, width = pixels.shape
    rgb = np.repeat(pixels[:, :, None], 3, axis=2)
    return f"P6\n{width} {height}\n255\n".encode("ascii") + rgb.tobytes()
