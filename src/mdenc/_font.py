"""Embedded 5x7 bitmap glyphs for the text-grid encoder.

Hand-drawn pixel font covering digits, sign, decimal point and the
exponent marker; each glyph is stored with the blank column that separates
it from the next. Integer scaling only, so rendering is bit-exact on every
platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

GLYPH_WIDTH = 5
GLYPH_HEIGHT = 7

_GLYPH_ROWS = {
    "0": (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    "1": ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    "2": (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    "3": ("#####", "...#.", "..#..", "...#.", "....#", "#...#", ".###."),
    "4": ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    "5": ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    "6": ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    "7": ("#####", "....#", "...#.", "..#..", "..#..", "..#..", "..#.."),
    "8": (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    "9": (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
    ".": (".....", ".....", ".....", ".....", ".....", ".##..", ".##.."),
    "-": (".....", ".....", ".....", "#####", ".....", ".....", "....."),
    "+": (".....", "..#..", "..#..", "#####", "..#..", "..#..", "....."),
    "e": (".....", ".....", ".###.", "#...#", "#####", "#....", ".###."),
}

# (GLYPH_HEIGHT, GLYPH_WIDTH + 1) masks: the glyph, then its blank spacer
GLYPHS = {
    ch: np.array([[cell == "#" for cell in row + "."] for row in rows], dtype=bool)
    for ch, rows in _GLYPH_ROWS.items()
}


def draw_text(pixels: np.ndarray, text: str, rect: tuple[int, int, int, int]) -> None:
    """Blit ``text`` with foreground 255 into the (x0, y0, x1, y1) rect of
    ``pixels``: at the largest integer scale that fits (at least 1),
    centered, and clipped to the rect and to the buffer."""
    if not text:
        return
    try:
        mask = np.concatenate([GLYPHS[ch] for ch in text], axis=1)[:, :-1]
    except KeyError as exc:
        raise ParameterError(f"no glyph for character {exc.args[0]!r}") from None
    x0, y0, x1, y1 = rect
    th, tw = mask.shape
    scale = max(1, min((x1 - x0) // tw, (y1 - y0) // th))
    x = x0 + (x1 - x0 - tw * scale) // 2
    y = y0 + (y1 - y0 - th * scale) // 2
    cx0, cy0 = max(x, x0, 0), max(y, y0, 0)
    cx1 = min(x + tw * scale, x1, pixels.shape[1])
    cy1 = min(y + th * scale, y1, pixels.shape[0])
    if cx0 < cx1 and cy0 < cy1:
        mask = mask.repeat(scale, axis=0).repeat(scale, axis=1)
        pixels[cy0:cy1, cx0:cx1][mask[cy0 - y:cy1 - y, cx0 - x:cx1 - x]] = 255
