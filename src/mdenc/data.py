"""Dataset ingestion (KEEL ``.dat`` and CSV), stratified 2-fold CV planning
with 5 repeats, and a synthetic two-class generator for timing sweeps.

Ingested datasets are numeric-only: categorical input features are rejected
rather than silently encoded, and rows containing the missing-value token
``?`` (or an empty cell) are dropped with a logged count.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MissingColumnError,
    ParameterError,
    ParseError,
    StratificationError,
    UnsupportedFeatureError,
    brief,
    float_array,
    non_negative_int,
)

logger = logging.getLogger(__name__)

MISSING_TOKEN = "?"
CV_REPEATS = 5
CV_FOLDS = 2


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric classification dataset.

    ``X`` is an (n_instances, n_features) float64 matrix and ``y`` holds
    class indices into ``class_names``. Arrays are write-protected after
    construction so datasets can be shared freely.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ParameterError(f"dataset name must be text, got {brief(self.name)}")
        object.__setattr__(self, "feature_names", _names(self.feature_names, "feature_names"))
        object.__setattr__(self, "class_names", _names(self.class_names, "class_names"))
        # copies, so that freezing them leaves the caller's arrays writable
        X = np.array(float_array(self.X, "X must be a matrix of numbers"), order="C")
        y = np.array(_indices(self.y, len(self.class_names), "class indices"))
        if X.ndim != 2:
            raise ParameterError("X must be a 2-d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ParameterError("y length must equal the X row count")
        if X.size and not np.isfinite(X).all():
            raise ParameterError("X contains missing or non-finite values")
        if len(self.class_names) < 2:
            raise ParameterError("need at least 2 classes")
        if len(self.feature_names) != X.shape[1]:
            raise ParameterError("feature_names length must equal the column count")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices) -> "Dataset":
        """Row subset sharing this dataset's feature and class metadata."""
        idx = _indices(indices, self.n_instances, "row indices")
        return Dataset(
            self.name, self.X[idx], self.y[idx], self.feature_names, self.class_names
        )


def _names(values, what: str) -> tuple[str, ...]:
    """``values`` as a tuple of text; ParameterError naming ``what`` for
    anything else, such as a number, a bare string or a non-text entry."""
    try:
        names = tuple(values)
    except TypeError:  # not iterable
        names = (None,)
    if isinstance(values, str) or not all(isinstance(v, str) for v in names):
        raise ParameterError(f"{what} must be a sequence of text, got {brief(values)}")
    return names


def _indices(values, bound: int, what: str) -> np.ndarray:
    """``values`` as a contiguous int64 array when they are integers in
    ``range(bound)`` (an empty list included); ParameterError naming
    ``what`` for anything else, such as floats, text or a boolean mask."""
    try:
        a = np.asarray(values)
        valid = not a.size or (a.dtype.kind in "iu" and 0 <= a.min() and a.max() < bound)
    except ValueError:  # ragged
        valid = False
    if not valid:
        raise ParameterError(f"{what} must be integers in range({bound})")
    return np.ascontiguousarray(a, dtype=np.int64)


def _read_rows(name: str, source: str, header: list[str], out_col: int,
               in_cols: list[int], records) -> Dataset:
    """Build a dataset from ``(line number, fields)`` records of a table
    whose columns are ``header``: check each record's width, drop (and log
    the count of) rows holding a missing value, parse the ``in_cols``
    features and map the ``out_col`` labels to class indices in order of
    first appearance."""
    rows: list[list[float]] = []
    y: list[int] = []
    classes: dict[str, int] = {}
    dropped = 0
    for lineno, fields in records:
        if len(fields) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", line=lineno)
        tokens = [t.strip() for t in fields]
        if any(t == MISSING_TOKEN or t == "" for t in tokens):
            dropped += 1
            continue
        feats = []
        for col in in_cols:
            try:
                feats.append(float(tokens[col]))
            except ValueError:
                raise UnsupportedFeatureError(
                    f"non-numeric value {brief(tokens[col])} in column {brief(header[col])} "
                    f"(line {lineno})"
                ) from None
        rows.append(feats)
        y.append(classes.setdefault(tokens[out_col], len(classes)))
    if dropped:
        logger.warning("%s: dropped %d rows with missing values", source, dropped)
    if not rows:
        raise ParseError("no instances")
    if len(classes) < 2:
        raise ParseError("need at least 2 classes in the label column")
    return Dataset(name, np.array(rows, dtype=np.float64), np.array(y, dtype=np.int64),
                   tuple(header[c] for c in in_cols), tuple(classes))


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")  # line endings as written
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name} is not UTF-8 text ({exc.reason} at byte {exc.start})",
                         line=exc.object.count(b"\n", 0, exc.start) + 1) from None


_ATTRIBUTE_RE = re.compile(r"@attribute\s+(\S+)\s*(.*)", re.IGNORECASE)


def _split_names(line: str, lineno: int) -> list[str]:
    body = line.split(None, 1)
    if len(body) < 2 or not body[1].strip():
        raise ParseError(f"{body[0]} directive needs a name list", line=lineno)
    return [t.strip() for t in body[1].split(",") if t.strip()]


def load_keel(path) -> Dataset:
    """Parse a KEEL ``.dat`` file.

    Header directives (``@relation``, ``@attribute``, ``@inputs``,
    ``@outputs``) select and type the columns in declaration order;
    ``@data`` starts the comma-separated rows. Input attributes must be
    numeric. The output attribute (from ``@outputs``, defaulting to the
    last declared attribute) is mapped to class indices in order of first
    appearance. Rows containing ``?`` are dropped and the count logged.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    relation = path.stem
    attributes: list[tuple[str, bool]] = []  # (name, is_nominal)
    inputs: list[str] | None = None
    outputs: list[str] | None = None
    data_start = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not line.startswith("@"):
            raise ParseError("expected a header directive before @data", line=lineno)
        directive = line.split(None, 1)[0].lower()
        if directive == "@relation":
            parts = line.split(None, 1)
            if len(parts) < 2 or not parts[1].strip():
                raise ParseError("@relation needs a name", line=lineno)
            relation = parts[1].strip()
        elif directive == "@attribute":
            match = _ATTRIBUTE_RE.match(line)
            if match is None:
                raise ParseError("malformed @attribute", line=lineno)
            name, type_spec = match.group(1), match.group(2).strip()
            if "{" in name and not type_spec:  # "name{a,b}" written without a space
                name, _, rest = name.partition("{")
                type_spec = "{" + rest
            if not name or not type_spec:
                raise ParseError("malformed @attribute", line=lineno)
            attributes.append((name, type_spec.startswith("{")))
        elif directive == "@inputs":
            inputs = _split_names(line, lineno)
        elif directive == "@outputs":
            outputs = _split_names(line, lineno)
        elif directive == "@data":
            data_start = lineno
            break
        else:
            raise ParseError(f"unknown directive {brief(directive)}", line=lineno)
    if data_start is None:
        raise ParseError("missing @data section", line=len(lines))
    if not attributes:
        raise ParseError("no @attribute declarations before @data", line=data_start)

    names = [a[0] for a in attributes]
    nominal = dict(attributes)
    if outputs is not None:
        if len(outputs) != 1:
            raise ParseError("exactly one output attribute is supported")
        out_name = outputs[0]
    else:
        out_name = names[-1]
    if out_name not in nominal:
        raise MissingColumnError(f"output attribute {brief(out_name)} is not declared")
    wanted = set(inputs) if inputs is not None else set(names) - {out_name}
    for name in wanted:
        if name not in nominal:
            raise MissingColumnError(f"input attribute {brief(name)} is not declared")
        if nominal[name]:
            raise UnsupportedFeatureError(
                f"categorical input feature {brief(name)} is not supported"
            )
    # @attribute declaration order defines the column order
    in_cols = [i for i, name in enumerate(names) if name in wanted and name != out_name]
    out_col = names.index(out_name)

    stripped = enumerate(map(str.strip, lines[data_start:]), start=data_start + 1)
    records = ((lineno, line.split(",")) for lineno, line in stripped
               if line and not line.startswith("%"))
    return _read_rows(relation, path.name, names, out_col, in_cols, records)


def load_csv(path, label_column: str | int = -1) -> Dataset:
    """Load a CSV file with a header row.

    ``label_column`` selects the class column by name or index (default:
    the last column). Everything else follows the KEEL contract: numeric
    features only, missing-value rows dropped and counted, labels mapped
    in order of first appearance.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    if isinstance(label_column, str):
        if label_column not in header:
            raise MissingColumnError(f"label column {brief(label_column)} not in header")
        out_col = header.index(label_column)
    else:
        out_col = int(label_column)
        if out_col < 0:
            out_col += len(header)
        if not 0 <= out_col < len(header):
            raise MissingColumnError(f"label column index {label_column} out of range")
    in_cols = [i for i in range(len(header)) if i != out_col]
    # a record starts on the line after those read so far; zip asks
    # ``starts`` before ``reader``, and quoted cells may span lines
    starts = iter(lambda: reader.line_num + 1, None)
    records = ((lineno, record) for lineno, record in zip(starts, reader) if record)
    return _read_rows(path.stem, path.name, header, out_col, in_cols, records)


@dataclass(frozen=True)
class CVPlan:
    """Fold assignments for repeated stratified 2-fold cross-validation."""

    repeats: int
    folds: int
    seed: int
    assignments: np.ndarray  # (repeats, n_instances) fold index per instance

    def __post_init__(self):
        a = np.asarray(self.assignments)
        if a.ndim != 2 or a.shape[0] != self.repeats or self.repeats < 1:
            raise ParameterError("need repeats >= 1 and a (repeats, n_instances) matrix")
        if (not 2 <= self.folds <= 128  # fold indices are stored as int8
                or a.dtype.kind not in "iu" or a.size and (a.min() < 0 or a.max() >= self.folds)):
            raise ParameterError(f"folds must be 2..128, fold indices integers in range({self.folds})")
        a = np.ascontiguousarray(a, dtype=np.int8)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n_instances(self) -> int:
        return self.assignments.shape[1]

    def split(self, repeat: int, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_idx, test_idx) with the given fold held out as the test set;
        ParameterError unless ``repeat`` and ``fold`` are in range."""
        repeat, fold = non_negative_int(repeat, "repeat"), non_negative_int(fold, "fold")
        if repeat >= self.repeats or fold >= self.folds:
            raise ParameterError(f"split ({repeat}, {fold}) is outside a plan of "
                                 f"{self.repeats} repeats of {self.folds} folds")
        mask = self.assignments[repeat] == fold
        return np.flatnonzero(~mask), np.flatnonzero(mask)

    def iter_splits(self):
        """Yield (repeat, fold, train_idx, test_idx) in repeat-major order."""
        for repeat in range(self.repeats):
            for fold in range(self.folds):
                train_idx, test_idx = self.split(repeat, fold)
                yield repeat, fold, train_idx, test_idx


def make_cv_plan(ds: Dataset, seed: int) -> CVPlan:
    """Five seed-derived shuffles, each split into two stratified folds.

    Within every repeat the per-class fold sizes differ by at most one.
    Randomness comes from PCG64 generators spawned per repeat from one
    SeedSequence, so plans are reproducible across platforms for a fixed
    seed.
    """
    seed = non_negative_int(seed, "seed")
    counts = np.bincount(ds.y, minlength=ds.n_classes)
    lacking = np.flatnonzero(counts < 2)
    if lacking.size:
        raise StratificationError(
            f"class {brief(ds.class_names[lacking[0]])} has fewer than 2 instances"
        )
    assignments = np.zeros((CV_REPEATS, ds.n_instances), dtype=np.int8)
    for repeat, child in enumerate(np.random.SeedSequence(seed).spawn(CV_REPEATS)):
        rng = np.random.default_rng(child)
        for cls in range(ds.n_classes):
            perm = rng.permutation(np.flatnonzero(ds.y == cls))
            assignments[repeat, perm[1::2]] = 1
    return CVPlan(CV_REPEATS, CV_FOLDS, seed, assignments)


def generate_synthetic(n_samples: int, n_features: int, seed: int) -> Dataset:
    """Two Gaussian clusters centered on opposite corners of a seed-chosen
    hypercube, rescaled to centroid separation 2.0, unit variance, every
    feature informative. Deterministic per seed."""
    n_samples = non_negative_int(n_samples, "n_samples")
    n_features = non_negative_int(n_features, "n_features")
    seed = non_negative_int(seed, "seed")
    if n_samples < 4:
        raise ParameterError("n_samples must be >= 4")
    if n_features < 1:
        raise ParameterError("n_features must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    corner = rng.integers(0, 2, size=n_features).astype(np.float64)
    direction = 1.0 - 2.0 * corner  # toward the opposite corner
    centroids = np.stack([corner, corner + 2.0 * direction / math.sqrt(n_features)])
    n_second = n_samples // 2
    y = np.zeros(n_samples, dtype=np.int64)
    y[n_samples - n_second:] = 1
    X = centroids[y] + rng.standard_normal((n_samples, n_features))
    perm = rng.permutation(n_samples)
    return Dataset(
        f"synthetic_{n_samples}x{n_features}_s{seed}",
        X[perm],
        y[perm],
        tuple(f"f{i}" for i in range(n_features)),
        ("0", "1"),
    )
