"""Nearest-neighbor probe classifiers and the cross-validated evaluation
loop.

The 1-NN pixel probe lives in ``run_cv_eval``, a deterministic stand-in for
a CNN: it only has to show whether class information survives an encoding.
Each path sums integers in ``encoders.exact_float`` of its own bound, so it
predicts what a float64 probe over every pixel would. The eval draws and
the probe measures: ``stml`` from glyph stamps (``_stamp_distances``) with
no row drawn, ``retire`` from the rows that the eval draws into its one
image stack (``_pixel_distances``, the stamps' test oracle:
``_sq_distances`` added up over blocks of kept 0/255 pixels, divided by
255, so in units of 255²). A pixel distance ignores where each pixel sits,
so the probe cannot rank ``igtd`` assignments: ``igtd`` takes one
``_sq_distances`` of the values its images hold, one per feature (float32
up to 129 features), with no assignment searched and no image drawn. Each
split takes its labels from its group's matrix by blocks of 128 tested
rows. A tabular 1-NN twin on scaled feature vectors serves as the baseline.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import _font, encoders, scaling
from ._doc import from_json, to_json
from .data import CVPlan, Dataset
from .errors import (MetricError, ParameterError, ShapeError, brief, float_array,
                     non_negative_int, real_number)


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean per-class recall over the classes present in ``y_true``."""
    yt = np.asarray(y_true)
    yp = np.asarray(y_pred)
    if yt.ndim != 1 or yt.shape != yp.shape:
        raise MetricError("label vectors must be 1-d and the same length")
    if yt.size == 0:
        raise MetricError("empty label vectors")
    recalls = [float(np.mean(yp[yt == cls] == cls)) for cls in np.unique(yt)]
    return float(np.mean(recalls))


def _sq_distance_blocks(queries: np.ndarray, refs: np.ndarray,
                        rows: int | None = None) -> Iterator[np.ndarray]:
    """|q - r|² of ``rows`` queries at a time (all of them by default), each
    block written over the last one's buffer: ``q2 + r2 − 2·product``, the
    product one matmul (numpy's symmetric A @ A.T when ``queries`` and
    ``refs`` are views of one whole matrix, as ``x[:None]`` and
    ``x[None:]``). At least one block, empty without queries.
    Non-negative integers of at most m over k features keep every term and
    partial sum within 2·m²·k, exact in ``encoders.exact_float`` of that."""
    rows = rows or max(len(queries), 1)
    q2 = np.einsum("ij,ij->i", queries, queries)
    r2 = np.einsum("ij,ij->i", refs, refs)
    product = queries @ refs.T
    product *= 2.0
    buffer = np.empty((min(rows, len(queries)), len(refs)), dtype=product.dtype)
    for start in range(0, max(len(queries), 1), rows):
        block = slice(start, start + rows)
        distances = np.add(q2[block, None], r2, out=buffer[:len(q2[block])])
        distances -= product[block]
        yield distances


def _sq_distances(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """``_sq_distance_blocks`` of all the queries in one block."""
    return next(_sq_distance_blocks(queries, refs))


def _nearest_label(distances: np.ndarray, labels) -> np.ndarray:
    """Label of the reference at minimal distance from each query (rows are
    queries, columns references); ties break toward the lowest reference
    index."""
    if distances.shape[1] == 0:
        raise MetricError("empty training set")
    labels = np.asarray(labels)
    if labels.shape != (distances.shape[1],):
        raise ShapeError("one label per training row required")
    return labels[np.argmin(distances, axis=1)]


def _column_blocks(pixels: np.ndarray, columns: np.ndarray) -> Iterator[np.ndarray]:
    """Copies of the ascending ``columns`` of ``pixels``, at most 2,048 at a
    time, each gathered as slices of its contiguous runs (about twice as
    fast as ``np.take`` on drawn images, whose kept pixels form runs)."""
    for start in range(0, len(columns), 2048):
        block = columns[start:start + 2048]
        breaks = np.flatnonzero(np.diff(block) != 1) + 1
        starts = block[np.r_[0, breaks]].tolist()
        stops = (block[np.r_[breaks - 1, len(block) - 1]] + 1).tolist()
        yield np.concatenate([pixels[:, a:b] for a, b in zip(starts, stops)], axis=1)


def _pixel_distances(pixels: np.ndarray, split: int | None) -> np.ndarray:
    """Exact squared distances, in units of 255², between the rows of
    ``pixels``, a drawn 0/255 uint8 (rows, pixels) matrix: the first
    ``split`` rows against the rest, or every row against every row when
    ``split`` is None. ``pixels`` is only read; each block of it is copied
    before it is divided.

    Pixels that hold one value in every row add 0 to every distance and are
    dropped; the rest are divided by 255, and a block holding any other
    value raises ValueError. The kept columns are gathered, cast to
    ``exact_float(2 * kept)`` and summed one block at a time, so no copy of
    all of them is held."""
    varying = np.flatnonzero(pixels.min(axis=0, initial=255) != pixels.max(axis=0, initial=0))
    dtype = encoders.exact_float(2 * len(varying))
    distances = np.zeros((len(pixels[:split]), len(pixels[split:])), dtype=dtype)
    for block in _column_blocks(pixels, varying):
        # uint8 floor-divide and multiply run far faster than np.remainder,
        # and their temporaries are freed before the cast
        if (block // 255 * 255 != block).any():
            raise ValueError("drawn pixels must be 0 or 255")
        block = np.floor_divide(block, 255, out=block).astype(dtype)
        distances += _sq_distances(block[:split], block[split:])
    return distances


def _stamp_distances(model: encoders.EncoderModel, X: np.ndarray,
                     split: int | None) -> np.ndarray:
    """``_pixel_distances`` of the rows of ``X`` as an ``stml`` model draws
    them, with no row drawn.

    Cells are disjoint, and inside a cell each glyph of a text fills its own
    box at the scale and offset that the text's length fixes, so a row's
    image is a sum of disjoint stamps: one per (feature, position), keyed by
    (cell shape, text length, position, character), clipped as drawn. Each
    cell shape's stamps are drawn once by ``_font.draw_text``. With ``P``
    their 0/1 pixels, ``S = P Pᵀ`` counts the pixels two stamps share, and
    with ``Φ_f`` the 0/1 row-by-stamp matrix of feature f the pixel Gram is
    ``G = Σ_f Φ_f S Φ_fᵀ``; the distances are ``|q|² + |r|² − 2G`` in units
    of 255², as the pixel path's, with the squared norms summed
    from the diagonal of ``S``. Per block of a shape's features, at most
    2,048 stamp columns wide, Φ is one (rows · features, stamps) matrix,
    ``Ψ = −2 Φ S`` is formed by flat GEMMs of 1,024 of its rows each (a
    stacked (rows, features, stamps) matmul makes one BLAS call per row),
    and the block adds ``Ψ Φᵀ``, both viewed as rows × (features · stamps),
    to ``−2G`` in one GEMM.
    Every term and partial sum is −2 times a count of pixels that one row's
    stamps cover, at most the canvas's ``W * H`` since the stamps lie in
    the cells that tile it, so the sums run in ``exact_float(2 * W * H)``.
    """
    width, height = model.canvas_size
    dtype = encoders.exact_float(2 * width * height)
    codes = encoders.stml_codes(X)
    n, n_features, longest = codes.shape
    lengths = np.count_nonzero(codes, axis=2).astype(np.int32)[..., None]
    position = np.arange(longest, dtype=np.int32)
    # the int32 stamp key of each (row, feature, position), 0 past the
    # text's end: keys stay below (L·L + L)·128
    keys = np.where(position < lengths, (lengths * longest + position) * 128 + codes, 0)
    shapes = {}  # cell shape -> its features
    for f in range(n_features):
        x0, y0, x1, y1 = model.layout.cell_rect(f, width, height)
        shapes.setdefault((y1 - y0, x1 - x0), []).append(f)
    norms = np.zeros(n, dtype=dtype)
    gram = None
    for (h, w), features in shapes.items():
        # the shape's stamps in key order, and each key's int16 rank among
        # them (below 2,048), from a table of the possible keys: no sort
        present = np.zeros((longest * longest + longest) * 128, dtype=bool)
        present[keys[:, features]] = True
        stamps = np.flatnonzero(present)
        index = (np.cumsum(present, dtype=np.int16) - 1)[keys[:, features]]
        text, code = np.divmod(stamps, 128)
        length, at = np.divmod(text, longest)
        # the stamp as a text of its length, blank but for its one character
        stamp_codes = np.where(position < length[:, None], ord(" "), 0).astype(np.uint8)
        stamp_codes[np.arange(len(stamps)), at] = code
        drawn = np.zeros((len(stamps), h, w), dtype=np.uint8)
        _font.draw_text(drawn, stamp_codes)
        drawn = drawn.reshape(len(stamps), -1)
        ink = (drawn[:, drawn.any(axis=0)] != 0).astype(encoders.exact_float(h * w))
        overlap = (ink @ ink.T).astype(dtype)  # S: counts of at most h * w pixels
        norms += np.diagonal(overlap)[index].sum(axis=(1, 2))
        overlap *= -2
        # a shape has fewer than 2,048 stamps, so a block is at most that wide
        per_block = max(1, 2048 // len(stamps))
        for start in range(0, len(features), per_block):
            part = index[:, start:start + per_block]
            phi = np.zeros((n, part.shape[1], len(stamps)), dtype=dtype)
            phi[np.arange(n)[:, None, None], np.arange(part.shape[1])[:, None], part] = 1.0
            # Ψ = Φ · −2S as flat GEMMs of 1,024 (row, feature) pairs each: one
            # call for all rows would grow OpenBLAS's pack buffer (peak RSS)
            phi = phi.reshape(-1, len(stamps))
            psi = np.empty_like(phi)
            for lo in range(0, len(phi), 1024):
                np.matmul(phi[lo:lo + 1024], overlap, out=psi[lo:lo + 1024])
            product = psi.reshape(n, -1)[:split] @ phi.reshape(n, -1)[split:].T
            del phi, psi  # freed once Ψ Φᵀ is formed: one block's Φ and Ψ at a time
            gram = product if gram is None else np.add(gram, product, out=gram)
    # |q|² + |r|² − 2G, the norms added to −2G in place: every intermediate
    # is an integer of at most 2 * W * H, so the order of the adds does not
    # change the result
    gram += norms[:split, None]
    gram += norms[None, split:]
    return gram


def knn1_tabular(X_train, y_train, X_test, scaler: scaling.ScalerParams) -> np.ndarray:
    """1-NN with Euclidean distance on scaled feature vectors.

    The distances are the float64 ``_sq_distance_blocks``, one
    ``queries @ refs.T`` BLAS call formed and reduced 64 queries at a time in
    one reused buffer: no full distance matrix is held, and each element has
    the bytes that ``_sq_distances`` gives it."""
    refs = scaling.transform(scaler, X_train)
    queries = np.atleast_2d(scaling.transform(scaler, X_test))
    if refs.ndim != 2:
        raise ShapeError("training rows must form a 2-d matrix")
    return np.concatenate([_nearest_label(distances, y_train)
                           for distances in _sq_distance_blocks(queries, refs, 64)])


@dataclass(frozen=True)
class EvalReport:
    """Per-split balanced accuracies of one (dataset, encoder) evaluation,
    split order repeat-major: (repeat 0, fold 0), (repeat 0, fold 1), ..."""

    dataset: str
    encoder: str
    per_split_bac: tuple[float, ...]
    mean_bac: float
    fold_predictions: tuple[tuple[int, ...], ...] = ()
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dataset", "encoder"):
            if not isinstance(getattr(self, name), str):
                raise ParameterError(f"report {name} must be text, "
                                     f"got {brief(getattr(self, name))}")
        splits = float_array(self.per_split_bac, "per-split BACs must be numbers")
        mean = real_number(self.mean_bac, "mean BAC")
        bacs = np.append(splits, mean)  # the splits, then their mean
        if splits.ndim != 1 or bacs.size < 2 or not ((0.0 <= bacs) & (bacs <= 1.0)).all():
            raise MetricError(f"a report needs one or more splits and BACs in [0, 1], "
                              f"got {brief(self.per_split_bac)} and {brief(self.mean_bac)}")
        try:  # a tuple, a non-finite float or a key that is not text reads back changed
            unchanged = isinstance(self.config, dict) and from_json(to_json(self.config)) == self.config
        except (TypeError, ValueError, RecursionError):  # a set, a tuple key, or too deep
            unchanged = False
        if not unchanged:
            raise ParameterError(f"report config must be a dict that reads back from JSON "
                                 f"unchanged, got {brief(self.config)}")
        # stored as floats and ints, as JSON reads them back
        object.__setattr__(self, "per_split_bac", tuple(splits.tolist()))
        object.__setattr__(self, "mean_bac", mean)
        object.__setattr__(self, "fold_predictions", _label_rows(self.fold_predictions))


def _label_rows(values) -> tuple[tuple[int, ...], ...]:
    """Fold predictions as a tuple of tuples of Python ints; ParameterError
    for anything else, such as a bare number, floats, bools or text."""
    if isinstance(values, (str, dict)):  # iterable, but of characters or keys
        values = None  # which list() refuses below
    try:
        values = list(values)
        rows = [np.asarray(row) for row in values]
    except (TypeError, ValueError):  # not iterable, or a ragged row
        rows = None
    if (rows is None
            or not all(r.ndim == 1 and (r.dtype.kind in "iu" or not r.size) for r in rows)
            # numpy makes integers of [1, True]
            or any(isinstance(v, (bool, np.bool_))
                   for row in values if not isinstance(row, np.ndarray) for v in row)):
        raise ParameterError("report fold_predictions must be sequences of integer labels")
    return tuple(tuple(r.tolist()) for r in rows)


EVAL_KINDS = encoders.KINDS + ("tabular",)


def run_cv_eval(ds: Dataset, encoder_kind: str, plan: CVPlan, *,
                l: float = scaling.DEFAULT_L, u: float = scaling.DEFAULT_U,
                size: tuple[int, int] = encoders.DEFAULT_CANVAS,
                igtd_max_iters: int = encoders.DEFAULT_IGTD_MAX_ITERS,
                seed: int = 0, jobs: int = 1) -> EvalReport:
    """Run the full repeated 2-fold protocol for one encoder.

    For every split the encoder (or the tabular scaler) is fitted on the
    training fold only and never sees test data; the held-out fold is
    classified with the 1-NN probe. Splits whose models pickle to equal
    bytes, an exact key that formats no float (every ``stml`` split), share
    one exact matrix of distances from the rows they test to the rows they
    train on, a pure function of (model, rows): ``_stamp_distances`` for
    ``stml``, which draws no row, and ``_pixel_distances`` of the drawn
    rows for ``retire``. Each split takes its nearest labels from that
    matrix 128 tested rows at a time, with its training columns. The eval
    draws and the probe measures: the eval owns one uint8 image stack,
    allocated at the first group that draws and replaced only for a group
    with more rows, and draws each group's rows into its leading rows.
    ``stml``, ``igtd`` and ``tabular`` allocate none.

    An ``igtd`` split fits only its guard-bound scaler, which keys its
    group, and the probe measures the (rows, features) ``igtd_values``
    matrix with one ``_sq_distances`` in ``encoders.exact_float(2 * 255**2
    * features)``: float32 up to 129 features, else float64. An ``igtd``
    image holds those values in permuted cells, plus cells that are 0 in
    every row and add 0 to every distance, so the distances and predictions
    are those of the fitted images, whatever assignment a search would
    find.

    ``l``, ``u``, ``size`` and ``igtd_max_iters`` are checked once, before
    anything is fitted, as a fit checks them (``encoders.check_options``),
    also where the kind ignores them. No eval searches an assignment, and
    ``plan`` carries the CV seed, so ``igtd_max_iters`` and ``seed`` have no
    other effect; they and ``jobs`` (encoding is serial, and any ``jobs``
    but 1 raises first) stay only for ``perfbench``, which passes them, and
    are checked all the same (``seed`` and ``jobs`` as non-negative integers).
    """
    if encoder_kind not in EVAL_KINDS:
        raise ParameterError(f"unknown encoder kind {brief(encoder_kind)}")
    non_negative_int(seed, "seed")
    if non_negative_int(jobs, "jobs") != 1:
        raise ParameterError(f"jobs must be 1 (encoding is serial), got {jobs}")
    if not isinstance(ds, Dataset):
        raise ParameterError(f"dataset must be a Dataset, got {type(ds).__name__}")
    if not isinstance(plan, CVPlan):
        raise ParameterError(f"plan must be a CVPlan, got {type(plan).__name__}")
    if plan.n_instances != ds.n_instances:
        raise ShapeError("plan was built for a different number of instances")
    encoders.check_options(encoder_kind, ds.n_features, igtd_max_iters, l, u, size)
    splits = [(train_idx, test_idx) for _, _, train_idx, test_idx in plan.iter_splits()]
    if encoder_kind == "tabular":
        predictions = [knn1_tabular(t.X, t.y, ds.X[test_idx], scaling.fit(t.X, l, u))
                       for t, test_idx in ((ds.subset(tr), te) for tr, te in splits)]
    else:
        predictions = [None] * len(splits)
        groups = {}  # pickled model (igtd: scaler) -> (it, its splits), in fit order
        stack = None  # the pixel path's image stack, once a group draws one
        for i, (train_idx, _) in enumerate(splits):
            if encoder_kind == "igtd":  # the probe reads its values, not their cells
                model = scaling.fit(ds.X[train_idx], l, u)
            else:
                model = encoders.fit(encoder_kind, ds.subset(train_idx), l=l, u=u, size=size)
            groups.setdefault(pickle.dumps(model), (model, []))[1].append(i)
        for model, members in groups.values():
            q = np.unique(np.concatenate([splits[i][1] for i in members]))
            r = np.unique(np.concatenate([splits[i][0] for i in members]))
            # tested rows first, then training rows
            rows = q if len(q) == len(r) == ds.n_instances else np.concatenate([q, r])
            split = None if rows is q else len(q)
            if encoder_kind == "stml":
                distances = _stamp_distances(model, ds.X[rows], split)
            elif encoder_kind == "igtd":
                values = encoders.igtd_values(model, ds.X[rows]).astype(
                    encoders.exact_float(2 * 255**2 * ds.n_features))
                distances = _sq_distances(values[:split], values[split:])
                # freed before the labels are taken: held through them, it
                # left heap holes that made later retire stacks grow the heap
                del values
            else:
                if stack is None or len(stack) < len(rows):
                    width, height = model.canvas_size
                    stack = None  # the old stack is freed before its successor is allocated
                    stack = np.empty((len(rows), height, width), dtype=np.uint8)
                encoders.encode_batch(model, ds.X[rows], out=stack[:len(rows)])
                distances = _pixel_distances(stack[:len(rows)].reshape(len(rows), -1), split)
            for i in members:
                train_idx, test_idx = splits[i]
                tested, training = np.searchsorted(q, test_idx), np.searchsorted(r, train_idx)
                predictions[i] = np.concatenate([_nearest_label(
                    distances.take(tested[start:start + 128], axis=0).take(training, axis=1),
                    ds.y[train_idx]) for start in range(0, max(len(tested), 1), 128)])
    bacs = [balanced_accuracy(ds.y[test_idx], y_pred)
            for (_, test_idx), y_pred in zip(splits, predictions)]
    return EvalReport(ds.name, encoder_kind, tuple(bacs), float(np.mean(bacs)), predictions)
