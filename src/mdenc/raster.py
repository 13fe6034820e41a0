"""Deterministic 2-d rasterization into bare uint8 arrays: integer line
stepping and even-odd polygon fill as numpy passes with no loop per image,
step or scanline, polar vertex placement and PGM/PPM export. The stroke
clips each segment once, on both axes, and steps its minor axis exactly in
float64; the fill writes a stack's interior as runs between its sorted
crossings. The references they replaced live in the tests.

The drawing calls take one (height, width) image with (n, 2) points, or a
(R, height, width) stack with (R, n, 2) points and draw points r into
image r; one image is the stack of one. Points are (x, y) pairs, and their
leading axes must match those of the pixels.

Coordinate convention: origin at the top-left corner, x rightward, y
downward; pixel (i, j) is sampled at its center (i + 0.5, j + 0.5).
Drawing operations only ever set pixels to 255 and never clear one, so any
sequence of them leaves a binarized image, and they avoid platform-dependent
evaluation orders so identical inputs give byte-identical images everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, ParameterError, ShapeError, float_array, non_negative_int,
                     real_number)

MARGIN = 4.0  # pixels between the radius-1.0 circle and the canvas edge
# drawing calls reject coordinates that are not finite or beyond +-MAX_COORD
MAX_COORD = 2.0**24


def _check_image(pixels, ndims=(2,)) -> None:
    if not isinstance(pixels, np.ndarray) or pixels.ndim not in ndims or pixels.dtype != np.uint8:
        raise ShapeError(f"pixels must be a {' or '.join(f'{d}-d' for d in ndims)} uint8 array")


@dataclass(frozen=True)
class PolarLayout:
    """Polar placement: scaled value 1.0 sits at pixel radius ``rmax``
    around center (cx, cy); ``n`` is the vertex count."""

    cx: float
    cy: float
    rmax: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", non_negative_int(self.n, "vertex count"))
        if self.n < 1:
            raise ParameterError("vertex count must be >= 1")
        for name in ("cx", "cy", "rmax"):
            value = real_number(getattr(self, name), name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
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
    """(..., n, 2) vertex coordinates for (..., n) scaled radii in [0, 1].

    Vertex k sits at angle k * 2*pi/n measured from 12 o'clock, advancing
    clockwise on screen (y grows downward), at radius rmax * scaled[..., k].
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    if scaled.shape[-1:] != (layout.n,):
        raise ShapeError(f"expected {layout.n} scaled values, got shape {scaled.shape}")
    angles = np.arange(layout.n) * (2.0 * math.pi / layout.n) - 0.5 * math.pi
    radii = layout.rmax * scaled
    return np.stack(
        [layout.cx + radii * np.cos(angles), layout.cy + radii * np.sin(angles)], axis=-1
    )


def _points(pts, least: int, pixels=None) -> np.ndarray:
    """Checked float64 points, ``least`` or more per shape; given
    ``pixels``, their leading axes must match its own."""
    if pixels is not None:
        _check_image(pixels, (2, 3))
    pts = float_array(pts, "points must be an array of (x, y) pairs")
    if pts.shape == (0,):  # an empty list holds no point
        pts = pts.reshape(0, 2)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ShapeError(f"points must be (x, y) pairs, got shape {pts.shape}")
    if pixels is not None and pts.shape[:-2] != pixels.shape[:-2]:
        raise ShapeError(f"points of shape {pts.shape} do not match pixels of shape {pixels.shape}")
    if pts.shape[-2] < least:
        raise ParameterError(f"need at least {least} (x, y) point{'s' * (least > 1)} per shape")
    # NaN fails the comparison too; the bound keeps the stroke's integer
    # products far inside int64
    if not np.all(np.abs(pts) <= MAX_COORD):
        raise ParameterError(f"point coordinates must be finite and within +-{MAX_COORD:.0f}")
    return pts


def _ramps(start, count: np.ndarray) -> np.ndarray:
    """Back-to-back float runs ``count`` long that count up from ``start``."""
    ramp = np.repeat(np.asarray(start - (np.cumsum(count) - count), dtype=np.float64), count)
    ramp += np.arange(len(ramp), dtype=np.float64)
    return ramp


def draw_polyline(pixels: np.ndarray, pts, closed: bool = False) -> np.ndarray:
    """Stroke 1-pixel-wide segments between consecutive points into
    ``pixels`` and return it.

    Endpoints are mapped to their containing pixels. Each segment plots the
    pixels of integer Bresenham stepping, endpoints inclusive, in closed
    form with exact float64 minor steps, clipped once on both axes to the
    steps that land on the image. A single point plots one pixel.
    """
    pts = _points(pts, 1, pixels)
    height, width = pixels.shape[-2:]
    # (x, y) rows of the points' pixels; segment i runs to point i + 1, and an
    # open polyline ends on a zero-length segment at its last point (no pixel)
    start = np.floor(np.moveaxis(pts.reshape(-1, pts.shape[-2], 2), -1, 0)).astype(np.int64, order="C")
    end = np.concatenate([start[..., 1:], start[..., :1] if closed else start[..., -1:]], axis=-1)
    start, end = start.reshape(2, -1), end.reshape(2, -1)
    delta, forward, lim = np.abs(end - start), start < end, np.array([[width - 1], [height - 1]])
    steps = np.maximum(delta[0], delta[1])
    span, twice, div = np.maximum(steps, 1), 2 * delta, np.maximum(2 * delta, 1)
    # step k of L steps moves floor((2 d k + L - 1) / 2L) along an axis of
    # extent d (k along the major one), never decreasing in k: at least m iff
    # 2 d k >= (2m - 1) L + 1, at most M iff 2 d k <= (2M + 1) L, and with
    # d = 0 the divisor 1 gives all k or none. Coordinate start +- c is on the
    # image for c in [first, first + lim]; lo is capped past the last step
    first = np.where(forward, -start, start - lim)
    lo = np.clip(np.max(-(((1 - 2 * first) * span - 1) // div), axis=0), 0, steps + 1)
    hi = np.minimum(np.min((2 * (first + lim) + 1) * span // div, axis=0), steps)
    # a step moves the flat C-order index of (shape, y, x) by ``along`` on
    # the major axis (y when |dy| > |dx|) and by ``across`` on the minor one,
    # which from step lo has moved floor((2 d k + r) / 2L) more, r being
    # (2 d lo + L - 1) mod 2L. Float64 gives N // D exactly for N < 2**52
    # (points stay within MAX_COORD), and flat indices are far below 2**53
    stride = np.where(forward, 1, -1) * np.array([[1], [width]])
    along, across = np.where(delta[1] > delta[0], stride[::-1], stride)
    twice = np.min(twice, axis=0)
    minor, rest = np.divmod(twice * lo + span - 1, 2 * span)
    flat = ((np.arange(len(steps)) // pts.shape[-2]) * height + start[1]) * width + start[0]
    flat += along * lo + across * minor  # the pixel of step lo
    count = np.maximum(hi - lo + 1, 0)
    twice, rest, den, along, across, flat = np.array(
        [twice, rest, 2 * span, along, across, flat], dtype=np.float64)
    k = _ramps(0, count)
    minor = k * np.repeat(twice, count) + np.repeat(rest, count)
    minor = np.floor(minor / np.repeat(den, count)) * np.repeat(across, count)
    k = k * np.repeat(along, count) + np.repeat(flat, count) + minor
    np.put(pixels, k.astype(np.intp), 255)  # put writes through any strides
    return pixels


def _interior(pts: np.ndarray, height: int, width: int) -> np.ndarray:
    """``scanline_fill_mask`` of checked ``pts`` as a uint8 0/255 stack."""
    lead, n = pts.shape[:-2], pts.shape[-2]
    (x1, y1), (x2, y2) = pts.reshape(-1, 2).T, np.roll(pts, -1, axis=-2).reshape(-1, 2).T
    # edge e crosses the scanlines j with min y <= j + 0.5 < max y, that is
    # ceil(min y - 0.5) <= j < ceil(max y - 0.5): as for the columns below,
    # the subtraction is exact from 0.5 up and gives <= 0 either way below it
    lo, hi = (np.clip(np.ceil(y - 0.5), 0, height) for y in (np.minimum(y1, y2), np.maximum(y1, y2)))
    count = (hi - lo).astype(np.intp)
    rows = _ramps(lo, count)
    xint = rows + 0.5
    xint -= np.repeat(y1, count)
    xint *= np.repeat(x2 - x1, count)
    xint /= np.repeat(y2 - y1, count)
    xint += np.repeat(x1, count)
    # each crossing sits at the first center c + 0.5 >= xint, which is
    # c = ceil(xint - 0.5): the subtraction is exact for 0.5 <= xint < 2**52
    # (points stay within MAX_COORD), and below 0.5 it gives c <= 0 either way
    xint -= 0.5
    first = np.clip(np.ceil(xint, out=xint), 0, width, out=xint)
    # a center is inside when an odd number of its row's crossings sit at or
    # left of it. Every row holds an even number of crossings, so the sorted
    # flat keys of all shapes and rows (integers, exact in float64) pair up
    # into [start, stop) interior runs within one row (a crossing at
    # c = width keys the next row's start, which no run of this row
    # reaches), and the gaps between keys alternate outside and inside
    keys = np.repeat((np.arange(len(lo)) // n) * float(height * width), count)
    keys += np.multiply(rows, width, out=rows)
    keys += first
    keys.sort()
    runs = np.diff(keys, prepend=0, append=math.prod(lead) * height * width).astype(np.intp)
    values = np.zeros(len(runs), dtype=np.uint8)
    values[1::2] = 255
    return np.repeat(values, runs).reshape(*lead, height, width)


def scanline_fill_mask(pts, width: int, height: int) -> np.ndarray:
    """Even-odd interior mask sampled at pixel centers: bool (height, width)
    for one (n, 2) polygon, (..., height, width) for (..., n, 2) polygons.

    A center is inside iff an odd number of edges cross its scanline
    strictly to its right. Edges meet the scanline y = j + 0.5 under the
    half-open rule min(y1, y2) <= y < max(y1, y2), so a vertex shared by two
    edges counts once and the fill matches a brute-force even-odd test.
    """
    width, height = non_negative_int(width, "width"), non_negative_int(height, "height")
    return _interior(_points(pts, 3), height, width) != 0


def fill_polygon(pixels: np.ndarray, pts) -> np.ndarray:
    """Or 255 into the even-odd interior of ``scanline_fill_mask`` (none for
    a zero-area polygon), then stroke the closed outline so the silhouette
    boundary is never broken; returns ``pixels``, whose set pixels stay set."""
    pts = _points(pts, 3, pixels)
    x, y = pts[..., 0], pts[..., 1]
    area = np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)
    # collapsed onto one point, a zero-area polygon crosses no scanline
    pixels |= _interior(np.where((area != 0.0)[..., None, None], pts, 0.0), *pixels.shape[-2:])
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
    return f"P6\n{width} {height}\n255\n".encode("ascii") + np.repeat(pixels, 3).tobytes()
