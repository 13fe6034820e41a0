"""Nearest-neighbor probe classifiers and the cross-validated evaluation
loop.

The 1-NN pixel probe is a deterministic stand-in for a CNN: it only has to
show whether class information survives an encoding. A tabular 1-NN twin
on scaled feature vectors serves as the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoders, scaling
from ._doc import from_doc, to_doc
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


def _sq_distances(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    # |q - r|^2 expanded through one matmul; exact for integer-valued
    # inputs because every partial sum stays far below 2**53
    q2 = np.einsum("ij,ij->i", queries, queries)
    r2 = np.einsum("ij,ij->i", refs, refs)
    return q2[:, None] + r2[None, :] - 2.0 * (queries @ refs.T)


def _nearest_label(refs: np.ndarray, labels, queries: np.ndarray) -> np.ndarray:
    """Label of the reference row at minimal squared distance from each
    query row; ties break toward the lowest reference index."""
    if refs.shape[0] == 0:
        raise MetricError("empty training set")
    labels = np.asarray(labels)
    if labels.shape != (refs.shape[0],):
        raise ShapeError("one label per training row required")
    if queries.shape[0] == 0:
        return labels[:0]
    return labels[np.argmin(_sq_distances(queries, refs), axis=1)]


def knn1_pixel(train_images, train_labels, test_images) -> np.ndarray:
    """1-NN on ``(N, H, W)`` image stacks by squared pixel distance; ties
    break toward the lowest training index."""
    train_images = np.asarray(train_images)
    test_images = np.asarray(test_images)
    if train_images.ndim != 3 or train_images.shape[1:] != test_images.shape[1:]:
        raise ShapeError("image stacks must be (N, H, W) with equal image sizes")
    pixels = train_images.shape[1] * train_images.shape[2]
    return _nearest_label(train_images.reshape(-1, pixels).astype(np.float64), train_labels,
                          test_images.reshape(-1, pixels).astype(np.float64))


def knn1_tabular(X_train, y_train, X_test, scaler: scaling.ScalerParams) -> np.ndarray:
    """1-NN with Euclidean distance on scaled feature vectors."""
    refs = scaling.transform(scaler, np.asarray(X_train, dtype=np.float64))
    queries = scaling.transform(scaler, np.asarray(X_test, dtype=np.float64))
    if refs.ndim != 2:
        raise ShapeError("training rows must form a 2-d matrix")
    return _nearest_label(refs, y_train, np.atleast_2d(queries))


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

    def to_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalReport":
        return from_doc(cls, doc, "report")

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load_json(cls, path) -> "EvalReport":
        return cls.from_dict(json.loads(Path(path).read_text()))


EVAL_KINDS = encoders.KINDS + ("tabular",)


def run_cv_eval(ds: Dataset, encoder_kind: str, plan: CVPlan, *,
                l: float = scaling.DEFAULT_L, u: float = scaling.DEFAULT_U,
                size: tuple[int, int] = encoders.DEFAULT_CANVAS,
                igtd_max_iters: int = encoders.DEFAULT_IGTD_MAX_ITERS,
                igtd_patience: int = encoders.DEFAULT_IGTD_PATIENCE,
                seed: int = 0, jobs: int = 1, config: dict | None = None) -> EvalReport:
    """Run the full repeated 2-fold protocol for one encoder.

    For every split the encoder (or the tabular scaler) is fitted on the
    training fold only, both folds are encoded with that fitted model, and
    the held-out fold is classified with the 1-NN probe. The scaler and
    the pixel assignment therefore never see test data.
    """
    if encoder_kind not in EVAL_KINDS:
        raise ParameterError(f"unknown encoder kind {encoder_kind!r}")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if plan.n_instances != ds.n_instances:
        raise ShapeError("plan was built for a different number of instances")
    bacs: list[float] = []
    predictions: list[tuple[int, ...]] = []
    for _, _, train_idx, test_idx in plan.iter_splits():
        ds_train = ds.subset(train_idx)
        X_test = ds.X[test_idx]
        if encoder_kind == "tabular":
            scaler = scaling.fit(ds_train.X, l, u)
            y_pred = knn1_tabular(ds_train.X, ds_train.y, X_test, scaler)
        else:
            model = encoders.fit(encoder_kind, ds_train, l=l, u=u, size=size,
                                 igtd_max_iters=igtd_max_iters,
                                 igtd_patience=igtd_patience, seed=seed)
            train_images = encoders.encode_batch(model, ds_train.X, jobs)
            test_images = encoders.encode_batch(model, X_test, jobs)
            y_pred = knn1_pixel(train_images, ds_train.y, test_images)
        bacs.append(balanced_accuracy(ds.y[test_idx], y_pred))
        predictions.append(tuple(int(v) for v in y_pred))
    return EvalReport(ds.name, encoder_kind, tuple(bacs), float(np.mean(bacs)),
                      tuple(predictions), dict(config or {}))
