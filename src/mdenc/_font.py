"""Embedded 5x7 bitmap glyphs for the text-grid encoder.

Hand-drawn pixel font for the characters that ``format_value`` writes:
digits, ``.``, ``-`` and ``e``. Texts arrive as ASCII codes, and an atlas
indexed by code stores each glyph with its blank spacer column. Integer
scaling only, so rendering is bit-exact on every platform.
"""

from __future__ import annotations

import numpy as np

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
    "e": (".....", ".....", ".###.", "#...#", "#####", "#....", ".###."),
}

# the glyphs as 0/255 pixels and their spacers, indexed by ASCII code; a
# code without a glyph (NUL, or the blank " ") draws nothing in its box
_ATLAS = np.zeros((128, GLYPH_HEIGHT, GLYPH_WIDTH + 1), dtype=np.uint8)
_ATLAS[[ord(ch) for ch in _GLYPH_ROWS], :, :GLYPH_WIDTH] = 255 * (
    np.array([[list(row) for row in rows] for rows in _GLYPH_ROWS.values()]) == "#")


def draw_text(cells: np.ndarray, codes: np.ndarray) -> None:
    """Or the texts of an (N, L) matrix of NUL-padded ASCII codes,
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
