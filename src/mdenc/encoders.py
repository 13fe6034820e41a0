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
stack. The caller may own that stack and pass it as ``out``; every encoder
overwrites all of it and allocates none of its own, so the images are a pure
function of (model, rows) whatever ``out`` held before.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _font, scaling
from ._ranking import rank_average
from .data import Dataset
from .errors import (CapacityError, FitError, ParameterError, ShapeError, StateError,
                     brief, float_array, non_negative_int)
from .raster import PolarLayout, draw_polyline, fill_polygon, polar_layout, polar_vertices

DEFAULT_CANVAS = (224, 224)
MAX_CANVAS_PIXELS = 2**24  # per image: 4096 x 4096
DEFAULT_IGTD_MAX_ITERS = 1000

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridLayout:
    """Near-square cell grid; feature f occupies cell (f // cols, f % cols)."""

    rows: int
    cols: int
    n: int

    def __post_init__(self):
        for name in ("rows", "cols", "n"):
            object.__setattr__(self, name, non_negative_int(getattr(self, name), f"grid {name}"))
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
        for name in ("rows", "cols"):
            object.__setattr__(self, name, non_negative_int(getattr(self, name), f"grid {name}"))
        try:
            a = np.asarray(self.assignment)
        except ValueError:  # a ragged list
            a = None
        if (a is None or min(self.rows, self.cols) < 1 or a.ndim != 1 or a.size == 0
                or a.dtype.kind not in "iu" or np.unique(a).size != a.size
                or a.min() < 0 or a.max() >= self.rows * self.cols):
            raise ParameterError(f"assignment must hit distinct cells of the {self.rows}x{self.cols} grid")
        a = np.array(a, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        trace = float_array(self.error_trace, "igtd error trace")
        if trace.ndim != 1:
            raise ShapeError("igtd error trace must be a sequence of numbers")
        if not np.isfinite(trace).all():
            raise ParameterError("igtd error trace must be finite")
        object.__setattr__(self, "error_trace", tuple(trace.tolist()))

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
        if not isinstance(self.kind, str):
            raise StateError(f"model kind must be text, got {brief(self.kind)}")
        if not isinstance(self.layout, LAYOUTS.get(self.kind, ())):
            raise StateError(f"{brief(self.kind)} model with a "
                             f"{type(self.layout).__name__} layout")
        object.__setattr__(self, "canvas_size", _canvas(self.canvas_size))
        width, height = self.canvas_size
        if (self.scaler is None) != (self.kind == "stml"):
            raise StateError(f"a {self.kind} model {'takes no' if self.scaler else 'needs a'} scaler")
        if self.scaler is not None and self.scaler.n_features != self.layout.n:
            raise ShapeError(f"layout has {self.layout.n} features, "
                             f"scaler has {self.scaler.n_features}")
        if isinstance(self.layout, IgtdMapping) and (width, height) != (self.layout.cols, self.layout.rows):
            raise ShapeError(f"an igtd canvas is its {self.layout.cols}x{self.layout.rows} grid")
        if isinstance(self.layout, GridLayout) and (
                width // self.layout.cols < _font.GLYPH_WIDTH
                or height // self.layout.rows < _font.GLYPH_HEIGHT):
            raise CapacityError(f"a {width}x{height} canvas cannot hold one {_font.GLYPH_WIDTH}x"
                                f"{_font.GLYPH_HEIGHT} glyph per cell for {self.layout.n} features")


# one layout type per encoder kind; the kind order is the CLI's choice order
LAYOUTS = {"retire": PolarLayout, "stml": GridLayout, "igtd": IgtdMapping}
KINDS = tuple(LAYOUTS)


def exact_float(bound: int) -> type:
    """float32 when ``bound <= 2**24``, else float64 (to 2**53): the type in
    which sums of integers, every term and partial sum at most ``bound`` in
    magnitude, are exact. It holds every integer in that range, so no
    addition or multiply-add rounds, whatever BLAS's summation order,
    blocking or thread count. Multiples of 0.5 pass twice their bound."""
    return np.float32 if bound <= 2**24 else np.float64


def _canvas(size) -> tuple[int, int]:
    """``size`` as a pair of Python ints (width, height), each 1 or more
    (ParameterError) and at most ``MAX_CANVAS_PIXELS`` in all (CapacityError)."""
    try:
        width, height = size
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ParameterError(f"canvas size must be a (width, height) pair, "
                             f"got {brief(size)}") from None
    width, height = non_negative_int(width, "canvas width"), non_negative_int(height, "canvas height")
    if min(width, height) < 1:
        raise ParameterError(f"canvas size must be at least 1x1, got {brief((width, height))}")
    if width * height > MAX_CANVAS_PIXELS:
        raise CapacityError(f"a {brief(width)}x{brief(height)} canvas exceeds "
                            f"{MAX_CANVAS_PIXELS} pixels")
    return width, height


# ---------------------------------------------------------------------------
# retire

def fit_retire(ds_train: Dataset, l: float = scaling.DEFAULT_L,
               u: float = scaling.DEFAULT_U,
               size: tuple[int, int] = DEFAULT_CANVAS) -> EncoderModel:
    """Fit the guard-bound scaler on the training fold and fix the polar
    geometry (one vertex per feature, margin 4 px)."""
    size = _canvas(size)
    scaler = scaling.fit(ds_train.X, l, u)
    return EncoderModel("retire", size, scaler, polar_layout(*size, ds_train.n_features))


def _retire_chunk(n: int, pixels: int) -> int:
    """Rows per ``retire`` fill and stroke call for ``n`` vertices on a
    canvas of ``pixels``: about 1,024 vertices, and at least 4 rows, so a
    call's fixed cost is shared while its sort, run and per-pixel arrays
    stay small; but no more rows than hold 2**23 pixels (167 at 224x224),
    which bounds the fill's uint8 interior stack of a call at 8 MiB."""
    return min(max(4, 1024 // n), max(1, 2**23 // pixels))


def encode_retire(model: EncoderModel, X: np.ndarray, out: np.ndarray) -> None:
    """Draw into ``out`` the binarized radar silhouette of each row plus the
    radius-1.0 border: every image is overwritten with the border, drawn
    once per call; the whole batch is scaled and its vertices placed in one
    pass each, and the rows are then filled and stroked ``_retire_chunk``
    rows at a time, 17 for 60 features at 224x224 (drawing only sets pixels
    to 255, so the order does not matter)."""
    layout = model.layout
    polygon = layout.n >= 3
    draw = fill_polygon if polygon else draw_polyline  # else a single point or chord
    width, height = model.canvas_size
    out[:] = draw_polyline(np.zeros((height, width), dtype=np.uint8),
                           polar_vertices(layout, np.ones(layout.n)), closed=polygon)
    vertices = polar_vertices(layout, scaling.transform(model.scaler, X))
    chunk = _retire_chunk(layout.n, width * height)
    for start in range(0, X.shape[0], chunk):
        draw(out[start:start + chunk], vertices[start:start + chunk])


# ---------------------------------------------------------------------------
# stml

def format_value(v: float) -> str:
    """Four significant digits, e.g. 1.0 -> '1.000'; falls back to a
    compact scientific form when the fixed rendering does not fit in 7
    characters (123456.7 -> '1.235e5')."""
    s = f"{v:#.4g}"
    if "e" not in s and len(s) <= 7:
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
    return EncoderModel("stml", size, None, GridLayout(rows, cols, n))


# The fixed texts of ``#.4g`` for four digits abcd and a decimal exponent of
# -2..3, at [negative * 6 + exponent + 2]; a negative one at -2 would take 8
# characters, so format_value writes it in scientific form. Each as its
# characters' ASCII codes, NUL-padded to 8 and 0 where a digit goes, and the
# positions of its four digits.
_FIXED_TEXTS = [sign + text for sign in ("", "-")
                for text in ("0.0abcd", "0.abcd", "a.bcd", "ab.cd", "abc.d", "abcd.")]
_TEMPLATE = np.array([[0 if c in "abcd" else ord(c) for c in text.ljust(8, "\0")]
                      for text in _FIXED_TEXTS], dtype=np.uint8)
_DIGIT_AT = np.array([[text.index(c) for c in "abcd"] for text in _FIXED_TEXTS])
_FIXED_LENGTHS = np.array([len(text) for text in _FIXED_TEXTS])
# the ASCII codes of the four digits of each mantissa 0..9999
_DIGIT_CODES = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)


def stml_codes(X: np.ndarray) -> np.ndarray:
    """The ``format_value`` texts of ``X`` as a (rows, features, length)
    uint8 matrix of ASCII codes, NUL-padded to the longest text, as numpy
    stores fixed-width byte strings.

    A value of magnitude 0.01 to 9999 is written from numpy arithmetic:
    e = floor(log10 |v|), the mantissa m = |v| · 10^(3 − e), one rounding
    of the exact product as the power of ten is exact, and its four digits
    ``rint(m)``, written into its sign and exponent's template. The ties
    x.5 are floats, so m lies on the same side of each as the exact
    product, or on it, and ``rint`` rounds as the correctly rounded
    ``#.4g`` does unless m is a tie. A value goes to ``format_value``
    instead when m is a tie, when m is not in [1000, 9999.5) (log10 off by
    one near a power of ten, or a mantissa that rounds up to 10000), when
    its text is in scientific form (a negative value under 0.1), and when it
    is 0, tiny, huge or not finite.
    """
    values = X.ravel()
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10 of 0 or nan
        exponent = np.floor(np.log10(magnitude))
    negative = (values < 0).astype(np.intp)
    index = np.flatnonzero((exponent >= negative - 2) & (exponent <= 3))
    exponent = exponent[index].astype(np.intp)
    mantissa = magnitude[index] * np.array([1e0, 1e1, 1e2, 1e3, 1e4, 1e5])[3 - exponent]
    digits = np.rint(mantissa)
    kept = (mantissa >= 1000) & (digits <= 9999) & (np.abs(mantissa - digits) < 0.5)
    index, template = index[kept], negative[index[kept]] * 6 + exponent[kept] + 2
    slow = np.ones(len(values), dtype=bool)
    slow[index] = False
    slow = np.flatnonzero(slow)
    texts = np.array([format_value(v) for v in values[slow].tolist()], dtype=bytes)
    width = max(texts.itemsize, _FIXED_LENGTHS[template].max(initial=0))
    codes = np.zeros((len(values), width), dtype=np.uint8)
    # a template is NUL past its text, which fits in width; ``take`` looks the
    # tables up several times faster than indexing them with an array
    codes[index, :8] = _TEMPLATE[:, :width].take(template, axis=0)
    codes[index[:, None], _DIGIT_AT.take(template, axis=0)] = _DIGIT_CODES.take(
        digits[kept].astype(np.intp), axis=0)
    codes[slow, :texts.itemsize] = texts.view(np.uint8).reshape(len(slow), texts.itemsize)
    return codes.reshape(*X.shape, width)


def encode_stml(model: EncoderModel, X: np.ndarray, out: np.ndarray) -> None:
    """Clear ``out`` and render each raw feature value as glyph text in its
    cell; one ``_font.draw_text`` call writes one cell of every image."""
    width, height = model.canvas_size
    out[:] = 0
    codes = stml_codes(X)
    for f in range(model.layout.n):
        x0, y0, x1, y1 = model.layout.cell_rect(f, width, height)
        _font.draw_text(out[:, y0:y1, x0:x1], codes[:, f])


# ---------------------------------------------------------------------------
# igtd

def _distance_ranks(points: np.ndarray) -> np.ndarray:
    """Average ranks of the Euclidean distances between the columns of
    ``points`` over the upper triangle, mirrored, with a zero diagonal.

    The Gram comes from ``np.einsum``'s own loop, not BLAS, so its sums run
    in one order whatever the BLAS thread count, and the ranks, ties
    included, do not depend on it. Ranks are multiples of 0.5; integer
    points, such as cell coordinates, give exact squared distances.
    """
    gram = np.einsum("ki,kj->ij", points, points)
    sq = np.diag(gram)
    iu = np.triu_indices(gram.shape[0], 1)
    d2 = (sq[:, None] + sq[None, :] - 2.0 * gram)[iu]
    ranks = np.zeros_like(gram)
    ranks[iu] = rank_average(np.sqrt(np.maximum(d2, 0.0)))
    return ranks + ranks.T


def _search_dtype(n: int) -> type:
    """The ``exact_float`` of the swap search of ``n`` features: float32 up
    to n = 203. Ranks are multiples of 0.5 of at most M = n(n − 1)/2, so a
    delta term (two absolute differences less two discrepancies) lies
    within ±2M = ±n(n − 1), and a row sum of n terms, with every partial
    sum, within ±n²(n − 1)."""
    return exact_float(2 * n * n * (n - 1))


def _swap_deltas(rank_feat, P, D, i, scratch) -> np.ndarray:
    # Objective change of swapping the cells of features i and j, for every
    # j, given P = rank_pix[a][:, a] and D = |rank_feat - P| of the current
    # assignment a; entry i is 0. Row j sums the change of pairs (i, m) and
    # (j, m) over every m. Pairs with m = i or m = j do not change, but as
    # rank_feat and P are symmetric with a zero diagonal, each adds
    # 2 min(rank_feat[i, j], P[i, j]) to the row, which the last term takes
    # off. ``scratch`` is two (n, n) buffers to write into and a vector of
    # n ones, all of the inputs' dtype. The row sums are a product with the
    # ones, exact in _search_dtype in any BLAS summation order.
    terms, other, ones = scratch
    np.abs(np.subtract(rank_feat[i], P, out=terms), out=terms)
    np.abs(np.subtract(rank_feat, P[i], out=other), out=other)
    terms += other
    terms -= D[i]
    terms -= D
    return terms @ ones - 4 * np.minimum(rank_feat[i], P[i])


def _swap_descent(rank_feat, rank_pix, max_iters):
    # The chosen feature is the one with the oldest step stamp, the lowest
    # index on ties, and its swap is the lowest-index best one. Both swapped
    # features are stamped with the step number, and so is the chosen
    # feature when nothing is swapped, so n steps in a row without a swap
    # have chosen every feature once. The search runs in _search_dtype, in
    # which every delta is exact; D counts each pair twice, and its sum, the
    # initial error, is taken in float64, so the error and every running
    # error are exact too. One set of _swap_deltas buffers serves every step.
    # Returns (assignment, trace, converged); converged is False when
    # max_iters stopped the search.
    n = rank_feat.shape[0]
    dtype = _search_dtype(n)
    rank_feat = rank_feat.astype(dtype)
    rank_pix = rank_pix.astype(dtype)
    assignment = np.arange(n)
    P = rank_pix
    D = np.abs(rank_feat - P)
    error = float(D.sum(dtype=np.float64)) / 2
    trace = [error]
    scratch = (np.empty((n, n), dtype), np.empty((n, n), dtype), np.ones(n, dtype))
    last_selected = np.zeros(n, dtype=np.int64)
    idle = 0  # steps in a row without a swap
    for step in range(1, max_iters + 1):
        i = int(last_selected.argmin())  # the method skips np.argmin's Python wrapper
        deltas = _swap_deltas(rank_feat, P, D, i, scratch)
        j = int(deltas.argmin())
        last_selected[i] = step
        if deltas[j] < 0.0:
            assignment[[i, j]] = assignment[[j, i]]
            error += float(deltas[j])
            last_selected[j] = step
            idle = 0
            P = rank_pix[assignment[:, None], assignment]
            np.abs(np.subtract(rank_feat, P, out=D), out=D)
        else:
            idle += 1
        trace.append(error)
        if idle == n:
            return assignment, trace, True
    return assignment, trace, False


def check_options(kind: str, n_features: int, max_iters, l, u, size=DEFAULT_CANVAS) -> int:
    """``max_iters`` as an int, once every option of ``fit`` and ``probe.run_cv_eval``
    is checked, also one ``kind`` ignores: FitError for ``igtd`` under 2
    features, then ParameterError unless ``max_iters`` is an integer >= 1,
    ``scaling.guard_bounds`` takes ``l`` and ``u`` and ``_canvas`` ``size``
    (CapacityError past ``MAX_CANVAS_PIXELS``)."""
    if kind == "igtd" and n_features < 2:
        raise FitError("need at least 2 features")
    max_iters = non_negative_int(max_iters, "max_iters")
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    scaling.guard_bounds(l, u)
    _canvas(size)
    return max_iters


def igtd_values(scaler: scaling.ScalerParams, X: np.ndarray) -> np.ndarray:
    """The (rows, features) uint8 values that ``encode_igtd`` writes to the
    features' cells: round(255 * scaled value), in [0, 255] as ``transform``
    clamps to [0, 1]."""
    return np.rint(255.0 * scaling.transform(scaler, X)).astype(np.uint8)


def fit_igtd(ds_train: Dataset, max_iters: int = DEFAULT_IGTD_MAX_ITERS,
             l: float = scaling.DEFAULT_L, u: float = scaling.DEFAULT_U) -> EncoderModel:
    """Search a feature-to-pixel assignment by Zhu et al.'s IGTD swap
    steps (Sci. Rep. 2021) on the rank-discrepancy objective.

    The grid is the smallest near-square with rows * cols >= N. Feature
    distances are Euclidean between scaled training columns; pixel
    distances are Euclidean between cell centers; both are converted to
    average ranks over the feature pairs. The search is one descent from
    the identity assignment. Each step takes the feature that has gone
    longest without being chosen or swapped, scores its N - 1 swaps and
    applies the best one if it strictly lowers the objective. The search
    stops after N steps in a row without a swap, at a pairwise local
    optimum, or after ``max_iters`` steps. Nothing is random, so the
    model is a pure function of the training rows and the arguments. The
    step count, which of the two stopped the search, and the dtype it
    ran in (``_search_dtype``) are logged at INFO.
    """
    n = ds_train.n_features
    max_iters = check_options("igtd", n, max_iters, l, u)
    scaler = scaling.fit(ds_train.X, l, u)
    scaled = scaling.transform(scaler, ds_train.X)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    rank_feat = _distance_ranks(scaled)
    # cell k sits at (k // cols, k % cols), as encode_igtd places it
    rank_pix = _distance_ranks(np.array(divmod(np.arange(n), cols), dtype=np.float64))
    assignment, trace, converged = _swap_descent(rank_feat, rank_pix, max_iters)
    logger.info("igtd search: %d features, %d steps, %s, %s", n, len(trace) - 1,
                "converged" if converged else "stopped at max_iters",
                np.dtype(_search_dtype(n)).name)
    mapping = IgtdMapping(rows, cols, assignment, tuple(trace))
    return EncoderModel("igtd", (cols, rows), scaler, mapping)


def encode_igtd(model: EncoderModel, X: np.ndarray, out: np.ndarray) -> None:
    """One grayscale pixel per feature: its ``igtd_values`` value in its
    assigned cell of ``out``; unassigned cells are 0. The image is the grid
    itself, one pixel per cell, and is the only non-binarized encoder
    output."""
    mapping = model.layout
    # a view, since encode_batch takes only C-contiguous stacks
    cells = out.reshape(X.shape[0], mapping.rows * mapping.cols)
    cells[:] = 0
    cells[:, mapping.assignment] = igtd_values(model.scaler, X)


# ---------------------------------------------------------------------------
# generic surface

def fit(kind: str, ds_train: Dataset, *, l: float = scaling.DEFAULT_L,
        u: float = scaling.DEFAULT_U, size: tuple[int, int] = DEFAULT_CANVAS,
        igtd_max_iters: int = DEFAULT_IGTD_MAX_ITERS, seed: int = 0) -> EncoderModel:
    """Fit the ``kind`` encoder on a training ``Dataset`` once ``check_options``
    has passed every option. ``seed`` has no effect (no encoder draws random
    numbers) but is checked; it stays for callers that pass it (``perfbench``)."""
    if not isinstance(ds_train, Dataset):
        raise ParameterError(f"training data must be a Dataset, got {type(ds_train).__name__}")
    non_negative_int(seed, "seed")
    check_options(kind, ds_train.n_features, igtd_max_iters, l, u, size)
    if kind == "retire":
        return fit_retire(ds_train, l, u, size)
    if kind == "stml":
        return fit_stml(ds_train, size)
    if kind == "igtd":
        return fit_igtd(ds_train, igtd_max_iters, l, u)
    raise ParameterError(f"unknown encoder kind {brief(kind)}")


def encode_batch(model: EncoderModel, X, *, out: np.ndarray | None = None) -> np.ndarray:
    """Encode the rows of matrix ``X`` in order into one ``(N, H, W)``
    uint8 stack and return it: ``out`` when given, which must be a
    writeable C-contiguous uint8 array of that shape (ShapeError if not)
    and is overwritten whole, else a new array."""
    if not isinstance(model, EncoderModel):
        raise StateError("not a fitted encoder model")
    X = float_array(X, "rows must be an array of feature values")
    if X.ndim != 2 or X.shape[1] != model.layout.n:
        raise ShapeError(f"expected rows of {model.layout.n} features, got shape {X.shape}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ParameterError(f"row {bad[0]} holds a non-finite feature value")
    width, height = model.canvas_size
    shape = (X.shape[0], height, width)
    if out is None:
        out = np.empty(shape, dtype=np.uint8)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.uint8
              and out.flags.c_contiguous and out.flags.writeable):
        raise ShapeError(f"out must be a writeable C-contiguous uint8 array of shape {shape}")
    # looked up by name so a wrapper installed on this module takes effect
    globals()[f"encode_{model.kind}"](model, X, out)
    return out


def encode(model: EncoderModel, x) -> np.ndarray:
    """Encode one feature vector into an ``(H, W)`` uint8 image."""
    return encode_batch(model, [x])[0]
