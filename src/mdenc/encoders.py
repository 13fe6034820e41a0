"""The three tabular-to-image encoders behind one fit/encode surface.

* ``retire`` — scales each sample into guard bounds and rasterizes it as a
  binarized radar silhouette plus a border polygon marking radius 1.0.
* ``stml`` — writes each raw feature value as bitmap-font text into its
  cell of a near-square grid.
* ``igtd`` — assigns features to pixels by matching feature-distance ranks
  against pixel-distance ranks, then emits one grayscale intensity per
  feature (the only non-binarized encoder).

Fitting touches training data only. After fitting, ``encode_batch`` checks
the rows once and ``encode_<kind>`` draws them into one ``(N, H, W)`` uint8
array: a pure function of (model, rows) that may run concurrently.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _font, scaling
from ._doc import from_doc, to_doc
from ._ranking import rank_average
from .data import Dataset
from .errors import CapacityError, FitError, ParameterError, ShapeError, StateError
from .raster import PolarLayout, draw_polyline, fill_polygon, polar_layout, polar_vertices

DEFAULT_CANVAS = (224, 224)
DEFAULT_IGTD_MAX_ITERS = 1000
DEFAULT_IGTD_PATIENCE = 3
SWAP_BLOCK = 32  # candidate swaps scored per numpy call in the igtd search

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridLayout:
    """Near-square cell grid; feature f occupies cell (f // cols, f % cols)."""

    rows: int
    cols: int
    n: int

    def __post_init__(self):
        if min(self.rows, self.cols, self.n) < 1 or self.n > self.rows * self.cols:
            raise ParameterError(f"{self.n} features do not fit a {self.rows}x{self.cols} grid")

    def cell_rect(self, f: int, width: int, height: int) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1) bounds of feature f's cell; the last row and
        column absorb the integer-division remainder."""
        r, c = divmod(f, self.cols)
        cell_w, cell_h = width // self.cols, height // self.rows
        x0, y0 = c * cell_w, r * cell_h
        x1 = width if c == self.cols - 1 else x0 + cell_w
        y1 = height if r == self.rows - 1 else y0 + cell_h
        return x0, y0, x1, y1


@dataclass(frozen=True)
class IgtdMapping:
    """Feature-to-cell bijection onto the first n cells of a rows x cols
    grid (surplus cells stay blank), with the optimizer's error trace."""

    rows: int
    cols: int
    assignment: np.ndarray
    error_trace: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if (min(self.rows, self.cols) < 1 or a.ndim != 1 or a.size == 0
                or a.dtype.kind not in "iu" or np.unique(a).size != a.size
                or a.min() < 0 or a.max() >= self.rows * self.cols):
            raise ParameterError(f"assignment must hit distinct cells of the {self.rows}x{self.cols} grid")
        a = np.array(a, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "error_trace", tuple(float(e) for e in self.error_trace))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


@dataclass(frozen=True)
class EncoderModel:
    """Fitted state of one encoder: kind tag, canvas size (width, height),
    scaler (None for stml) and the kind-specific layout."""

    kind: str
    canvas_size: tuple[int, int]
    scaler: scaling.ScalerParams | None
    layout: PolarLayout | GridLayout | IgtdMapping

    def __post_init__(self):
        if not isinstance(self.layout, LAYOUTS.get(self.kind, ())):
            raise StateError(f"{self.kind!r} model with a {type(self.layout).__name__} layout")
        if len(self.canvas_size) != 2 or min(self.canvas_size) < 1:
            raise ParameterError(f"canvas size must be at least 1x1, got {self.canvas_size}")
        if (self.scaler is None) != (self.kind == "stml"):
            raise StateError(f"a {self.kind} model {'takes no' if self.scaler else 'needs a'} scaler")
        if self.scaler is not None and self.scaler.n_features != self.layout.n:
            raise ShapeError(f"layout has {self.layout.n} features, "
                             f"scaler has {self.scaler.n_features}")
        if isinstance(self.layout, IgtdMapping) and \
                tuple(self.canvas_size) != (self.layout.cols, self.layout.rows):
            raise ShapeError(f"an igtd canvas is its {self.layout.cols}x{self.layout.rows} grid")


# one layout type per encoder kind; the kind order is the CLI's choice order
LAYOUTS = {"retire": PolarLayout, "stml": GridLayout, "igtd": IgtdMapping}
KINDS = tuple(LAYOUTS)


# ---------------------------------------------------------------------------
# retire

def fit_retire(ds_train: Dataset, l: float = scaling.DEFAULT_L,
               u: float = scaling.DEFAULT_U,
               size: tuple[int, int] = DEFAULT_CANVAS) -> EncoderModel:
    """Fit the guard-bound scaler on the training fold and fix the polar
    geometry (one vertex per feature, margin 4 px)."""
    scaler = scaling.fit(ds_train.X, l, u)
    layout = polar_layout(size[0], size[1], ds_train.n_features)
    return EncoderModel("retire", (int(size[0]), int(size[1])), scaler, layout)


def encode_retire(model: EncoderModel, X: np.ndarray) -> np.ndarray:
    """Binarized radar silhouette of each row plus the radius-1.0 border,
    which is drawn once per call and or-ed into every image."""
    layout = model.layout
    polygon = layout.n >= 3
    width, height = model.canvas_size
    border = draw_polyline(np.zeros((height, width), dtype=np.uint8),
                           polar_vertices(layout, np.ones(layout.n)), closed=polygon)
    out = np.zeros((X.shape[0], height, width), dtype=np.uint8)
    for image, row in zip(out, X):
        # one row at a time: a batch transform adds (N, n) float64 temporaries
        verts = polar_vertices(layout, scaling.transform(model.scaler, row))
        if polygon:
            fill_polygon(image, verts)
        else:
            draw_polyline(image, verts)  # single point or chord
        image |= border
    return out


# ---------------------------------------------------------------------------
# stml

def format_value(v: float) -> str:
    """Four significant digits, e.g. 1.0 -> '1.000'; falls back to a
    compact scientific form when the fixed rendering does not fit in 7
    characters (123456.7 -> '1.235e5')."""
    s = f"{v:#.4g}"
    if "e" not in s and "E" not in s and len(s) <= 7:
        return s
    mantissa, _, exponent = f"{v:.3e}".partition("e")
    return f"{mantissa}e{int(exponent)}"


def fit_stml(ds_train: Dataset, size: tuple[int, int] = DEFAULT_CANVAS) -> EncoderModel:
    """Near-square glyph grid: rows = ceil(sqrt(N)), cols = ceil(N / rows)."""
    n = ds_train.n_features
    if n < 1:
        raise FitError("need at least 1 feature")
    rows = math.ceil(math.sqrt(n))
    cols = math.ceil(n / rows)
    width, height = int(size[0]), int(size[1])
    if width // cols < _font.GLYPH_WIDTH or height // rows < _font.GLYPH_HEIGHT:
        raise CapacityError(
            f"a {width}x{height} canvas cannot hold one "
            f"{_font.GLYPH_WIDTH}x{_font.GLYPH_HEIGHT} glyph per cell for {n} features"
        )
    return EncoderModel("stml", (width, height), None, GridLayout(rows, cols, n))


def encode_stml(model: EncoderModel, X: np.ndarray) -> np.ndarray:
    """Render each raw feature value as glyph text in its cell;
    ``_font.draw_text`` picks the scale, centers and clips."""
    width, height = model.canvas_size
    cells = [model.layout.cell_rect(f, width, height) for f in range(model.layout.n)]
    out = np.zeros((X.shape[0], height, width), dtype=np.uint8)
    for image, row in zip(out, X):
        for rect, value in zip(cells, row):
            _font.draw_text(image, format_value(float(value)), rect)
    return out


# ---------------------------------------------------------------------------
# igtd

def _column_distances(Xs: np.ndarray) -> np.ndarray:
    """Euclidean distances between feature columns of the scaled matrix."""
    gram = Xs.T @ Xs
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _cell_distances(rows: int, cols: int, n: int) -> np.ndarray:
    """Euclidean distances between the centers of the first n grid cells."""
    r, c = divmod(np.arange(n), cols)
    dr = r[:, None] - r[None, :]
    dc = c[:, None] - c[None, :]
    return np.sqrt((dr * dr + dc * dc).astype(np.float64))


def _pair_rank_matrix(dist: np.ndarray) -> np.ndarray:
    """Average ranks of the upper-triangle distances, symmetrized.

    Ranks are multiples of 0.5, so objective sums stay exact in float64.
    """
    n = dist.shape[0]
    iu = np.triu_indices(n, 1)
    ranks = rank_average(dist[iu])
    out = np.zeros_like(dist)
    out[iu] = ranks
    out[(iu[1], iu[0])] = ranks
    return out


def assignment_error(rank_feat: np.ndarray, rank_pix: np.ndarray,
                     assignment: np.ndarray) -> float:
    """Sum over feature pairs of |feature-distance rank - pixel-distance
    rank of the assigned cells|."""
    rp = rank_pix[np.ix_(assignment, assignment)]
    iu = np.triu_indices(rank_feat.shape[0], 1)
    return float(np.abs(rank_feat - rp)[iu].sum())


def _block_deltas(rank_feat, P, D, i, j) -> np.ndarray:
    # Objective change of swapping the cells of features i[r] and j[r], for
    # each r, given P = rank_pix[a][:, a] and D = |rank_feat - P| of the
    # current assignment a. Columns i[r] and j[r] drop out: pair (i, j)
    # itself is unaffected because rank_pix is symmetric.
    terms = (np.abs(rank_feat[i] - P[j]) + np.abs(rank_feat[j] - P[i])
             - D[i] - D[j])
    rows = np.arange(i.shape[0])
    terms[rows, i] = 0.0
    terms[rows, j] = 0.0
    return terms.sum(axis=1)


def _swap_descent(rank_feat, rank_pix, max_iters, patience, seed):
    # First-improvement descent with seeded restarts. Pixel-distance ranks
    # on near-square grids are heavily tied, so a single strict descent
    # stalls on plateau-induced local optima; each stalled descent is
    # retried from a fresh seeded permutation, keeping the incumbent best.
    # ``patience`` counts consecutive finished descents that failed to
    # improve the incumbent; the trace reports the running best per scan.
    # A scan visits the pairs in seeded order and scores them SWAP_BLOCK
    # at a time; the first strictly negative delta is applied, as if the
    # pairs were scored one by one. Ranks are multiples of 0.5, so every
    # delta and running error is exact whatever the summation order.
    # Returns (best assignment, trace, restarts, converged), where
    # ``converged`` says the search stopped on ``patience``, not at
    # ``max_iters`` scans.
    n = rank_feat.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    first, second = np.triu_indices(n, 1)
    assignment = np.arange(n)
    error = assignment_error(rank_feat, rank_pix, assignment)
    best_assignment, best_error = assignment.copy(), error
    trace = [best_error]
    descent_improved_best = False
    stale = restarts = 0
    for _ in range(max_iters):
        P = rank_pix[np.ix_(assignment, assignment)]
        D = np.abs(rank_feat - P)
        order = rng.permutation(first.shape[0])
        improved = False
        for start in range(0, order.shape[0], SWAP_BLOCK):
            block = order[start:start + SWAP_BLOCK]
            i, j = first[block], second[block]
            deltas = _block_deltas(rank_feat, P, D, i, j)
            hits = np.flatnonzero(deltas < 0.0)
            if hits.size:
                k = hits[0]
                assignment[[i[k], j[k]]] = assignment[[j[k], i[k]]]
                error += float(deltas[k])
                improved = True
                break
        if error < best_error:
            best_error = error
            best_assignment = assignment.copy()
            descent_improved_best = True
        trace.append(best_error)
        if improved:
            continue
        stale = 0 if descent_improved_best else stale + 1
        if stale >= patience:
            return best_assignment, trace, restarts, True
        assignment = rng.permutation(n)
        error = assignment_error(rank_feat, rank_pix, assignment)
        descent_improved_best = False
        restarts += 1
    return best_assignment, trace, restarts, False


def fit_igtd(ds_train: Dataset, max_iters: int = DEFAULT_IGTD_MAX_ITERS,
             patience: int = DEFAULT_IGTD_PATIENCE, seed: int = 0,
             l: float = scaling.DEFAULT_L, u: float = scaling.DEFAULT_U) -> EncoderModel:
    """Search a feature-to-pixel assignment by restarted first-improvement
    swap descent on the rank-discrepancy objective.

    The grid is the smallest near-square with rows * cols >= N. Feature
    distances are Euclidean between scaled training columns; pixel
    distances are Euclidean between cell centers; both are converted to
    average ranks over the feature pairs. Every scan visits the pairs in a
    seed-shuffled order and applies the first swap that strictly lowers
    the objective; a stalled descent restarts from a seeded random
    permutation (the incumbent best is kept), and the search stops after
    ``patience`` consecutive descents without improvement or ``max_iters``
    scans in total. The scan and restart counts, and which of the two
    stopped the search, are logged at INFO.
    """
    n = ds_train.n_features
    if n < 2:
        raise FitError("need at least 2 features")
    if max_iters < 1 or patience < 1:
        raise ParameterError("max_iters and patience must be >= 1")
    scaler = scaling.fit(ds_train.X, l, u)
    scaled = scaling.transform(scaler, ds_train.X)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    rank_feat = _pair_rank_matrix(_column_distances(scaled))
    rank_pix = _pair_rank_matrix(_cell_distances(rows, cols, n))
    assignment, trace, restarts, converged = _swap_descent(
        rank_feat, rank_pix, max_iters, patience, seed)
    logger.info("igtd search: %d features, %d scans, %d restarts, %s", n,
                len(trace) - 1, restarts,
                "converged" if converged else "stopped at max_iters")
    mapping = IgtdMapping(rows, cols, assignment, tuple(trace))
    return EncoderModel("igtd", (cols, rows), scaler, mapping)


def encode_igtd(model: EncoderModel, X: np.ndarray) -> np.ndarray:
    """One grayscale pixel per feature: round(255 * scaled value) in its
    assigned cell; unassigned cells stay 0. The image is the grid itself,
    one pixel per cell, and is the only non-binarized encoder output."""
    mapping = model.layout
    out = np.zeros((X.shape[0], mapping.rows, mapping.cols), dtype=np.uint8)
    r, c = divmod(mapping.assignment, mapping.cols)
    out[:, r, c] = np.rint(255.0 * scaling.transform(model.scaler, X)).astype(np.uint8)
    return out


# ---------------------------------------------------------------------------
# generic surface

def fit(kind: str, ds_train: Dataset, *, l: float = scaling.DEFAULT_L,
        u: float = scaling.DEFAULT_U, size: tuple[int, int] = DEFAULT_CANVAS,
        igtd_max_iters: int = DEFAULT_IGTD_MAX_ITERS,
        igtd_patience: int = DEFAULT_IGTD_PATIENCE, seed: int = 0) -> EncoderModel:
    if kind == "retire":
        return fit_retire(ds_train, l, u, size)
    if kind == "stml":
        return fit_stml(ds_train, size)
    if kind == "igtd":
        return fit_igtd(ds_train, igtd_max_iters, igtd_patience, seed, l, u)
    raise ParameterError(f"unknown encoder kind {kind!r}")


def encode_batch(model: EncoderModel, X, jobs: int = 1) -> np.ndarray:
    """Encode the rows of matrix ``X`` in order into one ``(N, H, W)``
    uint8 array. With jobs > 1 the rows are mapped over a process pool of
    at most ``os.cpu_count()`` workers in contiguous chunks; output
    ordering is preserved."""
    if not isinstance(model, EncoderModel):
        raise StateError("not a fitted encoder model")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.layout.n:
        raise ShapeError(f"expected rows of {model.layout.n} features, got shape {X.shape}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ParameterError(f"row {bad[0]} holds a non-finite feature value")
    # the pool starts every worker at once, so it gets no more than the cores
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or X.shape[0] < 2 * jobs:
        # looked up by name so a wrapper installed on this module takes effect
        return globals()[f"encode_{model.kind}"](model, X)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return np.concatenate(list(pool.map(encode_batch, [model] * jobs,
                                            np.array_split(X, jobs))))


def encode(model: EncoderModel, x) -> np.ndarray:
    """Encode one feature vector into an ``(H, W)`` uint8 image."""
    return encode_batch(model, np.asarray(x, dtype=np.float64)[None])[0]


# ---------------------------------------------------------------------------
# serialization

def model_from_dict(doc: dict) -> EncoderModel:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in KINDS:
        raise StateError("document does not describe a fitted encoder model")
    return from_doc(EncoderModel, doc, "model", layout=LAYOUTS[kind])


def save_model(model: EncoderModel, path) -> None:
    Path(path).write_text(json.dumps(to_doc(model), indent=2))


def load_model(path) -> EncoderModel:
    return model_from_dict(json.loads(Path(path).read_text()))
