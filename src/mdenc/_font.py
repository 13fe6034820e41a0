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

# the same glyphs as 0/255 pixels, indexed by ASCII code; a code without a
# glyph (NUL, or the blank " ") draws nothing in its box
_ATLAS = np.zeros((128, GLYPH_HEIGHT, GLYPH_WIDTH + 1), dtype=np.uint8)
_ATLAS[[ord(ch) for ch in GLYPHS]] = 255 * np.stack(list(GLYPHS.values()))


def text_codes(texts: list[str]) -> np.ndarray:
    """``texts`` as an (N, L) uint8 matrix of ASCII codes, each row padded
    with NUL (code 0) to the longest text, from one join of all texts;
    ParameterError names the first character that has no glyph."""
    flat = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    drawable = np.isin(flat, [ord(ch) for ch in GLYPHS])
    if not drawable.all():
        raise ParameterError(f"no glyph for character {chr(flat[np.argmin(drawable)])!r}")
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    codes = np.zeros((len(texts), lengths.max(initial=0)), dtype=np.uint8)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat
    return codes


def draw_text(cells: np.ndarray, codes: np.ndarray) -> None:
    """Or the texts of an (N, L) code matrix like ``text_codes`` returns,
    with foreground 255, into the cells of an (N, h, w) uint8 view, text
    ``i`` into ``cells[i]``: at the largest integer scale that fits (at
    least 1), centered, and clipped to the cell. A text's length is its
    count of codes that are not NUL. Texts of one length share their scale
    and offsets, so each length is one atlas gather and one blit."""
    _, h, w = cells.shape
    lengths = np.count_nonzero(codes, axis=1)
    for length in np.unique(lengths[lengths > 0]).tolist():
        images = np.flatnonzero(lengths == length)
        text = _ATLAS[codes[images, :length]].transpose(0, 2, 1, 3)
        text = text.reshape(len(images), GLYPH_HEIGHT, -1)  # (texts, glyph rows, text columns)
        th, tw = GLYPH_HEIGHT, text.shape[2] - 1  # no spacer after the last glyph
        scale = max(1, min(w // tw, h // th))
        x, y = (w - tw * scale) // 2, (h - th * scale) // 2
        ys, xs = slice(max(y, 0), y + th * scale), slice(max(x, 0), x + tw * scale)
        # the glyph row and text column under each pixel the text covers
        gy, gx = (np.arange(h)[ys] - y) // scale, (np.arange(w)[xs] - x) // scale
        cells[images, ys, xs] |= text[:, gy][:, :, gx]
