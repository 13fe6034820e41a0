"""Deterministic 2-d rasterization into bare (height, width) uint8 arrays:
integer line stepping, even-odd scanline polygon fill, polar vertex
placement and PGM/PPM export.

Coordinate convention: origin at the top-left corner, x rightward, y
downward; pixel (i, j) is sampled at its center (i + 0.5, j + 0.5).
Drawing operations write only 0 or 255, so any sequence of them leaves a
binarized image, and they avoid platform-dependent evaluation orders so
identical inputs produce byte-identical images everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, ParameterError, ShapeError

DEFAULT_MARGIN = 4.0


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


def polar_layout(width: int, height: int, n: int, margin: float = DEFAULT_MARGIN) -> PolarLayout:
    """Centered layout whose radius-1.0 circle keeps ``margin`` pixels of
    clearance from the canvas edge."""
    rmax = min(width, height) / 2.0 - margin
    if rmax <= 0:
        raise CapacityError(
            f"{width}x{height} canvas leaves no room inside a {margin}-pixel margin"
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


def _pixel_of(x: float, y: float) -> tuple[int, int]:
    # the pixel whose area contains the point; centers sit at half-integers
    return int(math.floor(x)), int(math.floor(y))


def _line_pixels(x0: int, y0: int, x1: int, y1: int):
    """Classic integer Bresenham stepping, endpoints inclusive."""
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        yield x, y
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy


def draw_polyline(pixels: np.ndarray, pts, closed: bool = False) -> np.ndarray:
    """Stroke 1-pixel-wide segments between consecutive points into
    ``pixels`` and return it.

    Endpoints are mapped to their containing pixels before stepping;
    off-image pixels are clipped silently. A single point plots one pixel.
    """
    _check_image(pixels)
    mapped = [_pixel_of(float(p[0]), float(p[1])) for p in np.asarray(pts, dtype=np.float64).reshape(-1, 2)]
    if not mapped:
        raise ParameterError("need at least one point")
    h, w = pixels.shape
    if len(mapped) == 1:
        x, y = mapped[0]
        if 0 <= x < w and 0 <= y < h:
            pixels[y, x] = 255
        return pixels
    if closed:
        mapped.append(mapped[0])
    for (x0, y0), (x1, y1) in zip(mapped, mapped[1:]):
        for x, y in _line_pixels(x0, y0, x1, y1):
            if 0 <= x < w and 0 <= y < h:
                pixels[y, x] = 255
    return pixels


def _twice_signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    mask = np.zeros((height, width), dtype=bool)
    centers = np.arange(width, dtype=np.float64) + 0.5
    ylo = max(0, int(math.floor(y1.min() - 0.5)))
    yhi = min(height - 1, int(math.ceil(y1.max())))
    for j in range(ylo, yhi + 1):
        yc = j + 0.5
        crossing = (y1 > yc) != (y2 > yc)
        if not crossing.any():
            continue
        xa, ya = x1[crossing], y1[crossing]
        xint = xa + (yc - ya) * (x2[crossing] - xa) / (y2[crossing] - ya)
        xint.sort()
        right_of = xint.size - np.searchsorted(xint, centers, side="right")
        mask[j] = (right_of % 2) == 1
    return mask


def fill_polygon(pixels: np.ndarray, pts) -> np.ndarray:
    """Fill with the even-odd scanline mask, then stroke the closed outline
    so the silhouette boundary is never broken; returns ``pixels``.

    A degenerate polygon (zero signed area) falls back to the stroke alone.
    """
    _check_image(pixels)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ParameterError("polygon needs at least 3 points")
    if _twice_signed_area(pts) != 0.0:
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


def write_pgm(pixels: np.ndarray, path) -> None:
    Path(path).write_bytes(to_pgm(pixels))


def write_ppm(pixels: np.ndarray, path) -> None:
    Path(path).write_bytes(to_ppm(pixels))
