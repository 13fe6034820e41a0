"""Nearest-neighbor probe classifiers and the cross-validated evaluation
loop.

The 1-NN pixel probe lives in ``run_cv_eval``, a deterministic stand-in for
a CNN: it only has to show whether class information survives an encoding.
Its distances are exact (see ``_exact_pixels``), so it predicts what a
float64 probe over every pixel would. A pixel distance ignores where each
pixel sits, so the probe cannot rank ``igtd`` assignments. A tabular 1-NN
twin on scaled feature vectors serves as the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoders, scaling
from ._doc import to_json
from .data import CVPlan, Dataset
from .errors import MetricError, ParameterError, ShapeError


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


def _sq_distances(queries: np.ndarray, refs: np.ndarray | None = None) -> np.ndarray:
    # |q - r|^2 expanded through one matmul (without ``refs``, among the
    # rows of ``queries``: numpy's symmetric A @ A.T). For integer inputs
    # every term and partial sum is an integer, exact in any summation order
    # while at most 2**24 in float32 (2**53 in float64); _exact_pixels picks
    # the dtype that keeps it so
    refs = queries if refs is None else refs
    q2 = np.einsum("ij,ij->i", queries, queries)
    r2 = q2 if refs is queries else np.einsum("ij,ij->i", refs, refs)
    distances = q2[:, None] + r2[None, :]
    product = queries @ refs.T
    product *= 2.0
    distances -= product
    return distances


def _nearest_label(distances: np.ndarray, labels) -> np.ndarray:
    """Label of the reference (column) at minimal distance from each query
    (row); ties break toward the lowest reference index."""
    if distances.shape[1] == 0:
        raise MetricError("empty training set")
    labels = np.asarray(labels)
    if labels.shape != (distances.shape[1],):
        raise ShapeError("one label per training row required")
    return labels[np.argmin(distances, axis=1)]


def _exact_pixels(stack: np.ndarray) -> tuple[np.ndarray, type]:
    """Pruning rule of the exact pixel probe, over a uint8 matrix of one
    image per row: drop the pixels that hold one value in every row (they
    add 0 to every distance), divide the rest by their gcd ``g`` (every
    distance scales by ``g**2``), and pick the dtype in which every
    intermediate is an exact integer: float32 if ``2 * top**2 * pixels <=
    2**24`` (``top`` the largest value left, ``pixels`` kept), else float64.

    Each kept column's extremes are kept values, so ``g`` divides the gcd
    ``g0`` of the extremes; ``g`` is ``g0`` when every kept value is a
    multiple of it, checked a few rows at a time, and the gcd of all kept
    values otherwise."""
    lo = stack.min(axis=0, initial=255)
    hi = stack.max(axis=0, initial=0)
    varying = np.flatnonzero(lo != hi)
    kept = np.take(stack, varying, axis=1)
    g = int(np.gcd.reduce(np.gcd(lo[varying], hi[varying]))) or 1
    # uint8 floor-divide and multiply run far faster than np.remainder or
    # np.gcd, and 8-row blocks keep the temporaries small
    blocks = (kept[start:start + 8] for start in range(0, len(kept), 8))
    if g > 1 and any((block - block // g * g).any() for block in blocks):
        g = int(np.gcd.reduce(kept, axis=None))
    top = int(hi[varying].max(initial=0)) // g
    dtype = np.float32 if 2 * top * top * len(varying) <= 2**24 else np.float64
    return np.floor_divide(kept, g, out=kept), dtype


def knn1_tabular(X_train, y_train, X_test, scaler: scaling.ScalerParams) -> np.ndarray:
    """1-NN with Euclidean distance on scaled feature vectors."""
    refs = scaling.transform(scaler, X_train)
    queries = scaling.transform(scaler, X_test)
    if refs.ndim != 2:
        raise ShapeError("training rows must form a 2-d matrix")
    return _nearest_label(_sq_distances(np.atleast_2d(queries), refs), y_train)


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
        bacs = (*self.per_split_bac, self.mean_bac)  # the splits, then their mean
        if len(bacs) < 2 or not all(0.0 <= v <= 1.0 for v in bacs):
            raise MetricError(f"a report needs one or more splits and BACs in [0, 1], got {bacs}")


EVAL_KINDS = encoders.KINDS + ("tabular",)


def run_cv_eval(ds: Dataset, encoder_kind: str, plan: CVPlan, *,
                l: float = scaling.DEFAULT_L, u: float = scaling.DEFAULT_U,
                size: tuple[int, int] = encoders.DEFAULT_CANVAS,
                igtd_max_iters: int = encoders.DEFAULT_IGTD_MAX_ITERS,
                seed: int = 0, jobs: int = 1) -> EvalReport:
    """Run the full repeated 2-fold protocol for one encoder.

    For every split the encoder (or the tabular scaler) is fitted on the
    training fold only and never sees test data; the held-out fold is
    classified with the 1-NN probe. Splits whose models have equal JSON
    (every ``stml`` split) share one encode of all rows, a pure function of
    (model, row), pruned once and split only for one exact matrix of
    test-to-train row distances.

    ``seed`` has no effect (``plan`` carries the CV seed, and no encoder
    draws random numbers), and encoding is serial: both stay only for
    callers passing ``seed=`` and ``jobs=1`` (``perfbench``); any other
    ``jobs`` raises before anything is fitted.
    """
    if encoder_kind not in EVAL_KINDS:
        raise ParameterError(f"unknown encoder kind {encoder_kind!r}")
    if jobs != 1:
        raise ParameterError(f"jobs must be 1 (encoding is serial), got {jobs}")
    if plan.n_instances != ds.n_instances:
        raise ShapeError("plan was built for a different number of instances")
    splits = [(train_idx, test_idx) for _, _, train_idx, test_idx in plan.iter_splits()]
    if encoder_kind == "tabular":
        predictions = [knn1_tabular(t.X, t.y, ds.X[test_idx], scaling.fit(t.X, l, u))
                       for t, test_idx in ((ds.subset(tr), te) for tr, te in splits)]
    else:
        predictions = [None] * len(splits)
        groups = {}  # model JSON -> (model, the splits that fitted it), in fit order
        for i, (train_idx, _) in enumerate(splits):
            model = encoders.fit(encoder_kind, ds.subset(train_idx), l=l, u=u, size=size,
                                 igtd_max_iters=igtd_max_iters)
            groups.setdefault(to_json(model), (model, []))[1].append(i)
        for model, members in groups.values():
            q = np.unique(np.concatenate([splits[i][1] for i in members]))
            r = np.unique(np.concatenate([splits[i][0] for i in members]))
            # tested rows first, then training rows: each side is a view of one matrix
            rows = q if len(q) == len(r) == ds.n_instances else np.concatenate([q, r])
            pixels, dtype = _exact_pixels(
                encoders.encode_batch(model, ds.X[rows]).reshape(len(rows), -1))
            sides = np.split(pixels, [] if rows is q else [len(q)])
            distances = _sq_distances(*(side.astype(dtype) for side in sides))
            del pixels, sides  # before the next group's encode
            for i in members:
                train_idx, test_idx = splits[i]
                block = distances[np.ix_(np.searchsorted(q, test_idx),
                                         np.searchsorted(r, train_idx))]
                predictions[i] = _nearest_label(block, ds.y[train_idx])
    bacs = [balanced_accuracy(ds.y[test_idx], y_pred)
            for (_, test_idx), y_pred in zip(splits, predictions)]
    return EvalReport(ds.name, encoder_kind, tuple(bacs), float(np.mean(bacs)),
                      tuple(tuple(p.tolist()) for p in predictions))
