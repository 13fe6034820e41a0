"""Synthetic stand-ins for the KEEL benchmark datasets used by the suite.

The real repository files are not bundled, so each entry is generated as a
two-class Gaussian problem with the benchmark's instance and feature
counts. Centroid separation is fixed high enough that a nearest-neighbor
probe can recover the classes, which is all the suite needs from these
datasets. Generation is deterministic per dataset name.

``even_odd_oracle`` is the brute-force fill oracle shared by the raster
tests and acceptance criterion 1; ``count_table_fill`` is the dense
count-table fill that the sorted-run fill replaced, and
``closed_form_stroke`` the int64 closed-form stroke that the per-segment
clipped one replaced. ``argsort_rank_average``
and ``shifted_copy_min_tail`` are the average-rank build and the Wilcoxon
exact-null loop that ``np.unique`` and the in-place shifted add replaced.
``assignment_error`` sums the IGTD objective from scratch, the oracle for
the running error that the swap search seeds and updates itself.
``glyph_masks`` reads the font's hand-drawn rows, not its atlas, and
``text_codes`` builds code matrices in plain Python, so neither shares code
with the blitter or ``encoders.stml_codes`` that they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mdenc import _font
from mdenc.data import Dataset

# name -> (n_instances, n_features)
BENCHMARK_SHAPES = {
    "australian": (690, 14),
    "banknote": (1372, 4),
    "breastcan": (683, 9),
    "breastcancoimbra": (116, 9),
    "bupa": (345, 6),
    "cryotherapy": (90, 6),
    "german": (1000, 24),
    "haberman": (306, 3),
    "heart": (270, 13),
    "ionosphere": (351, 34),
    "liver": (345, 6),
    "mammographic": (830, 5),
    "monk-2": (432, 6),
    "monkone": (556, 6),
    "phoneme": (5404, 5),
    "pima": (768, 8),
    "ring": (7400, 20),
    "sonar": (208, 60),
    "spambase": (4601, 57),
    "titanic": (2201, 3),
    "twonorm": (7400, 20),
    "wisconsin": (699, 9),
}

DEFAULT_SEPARATION = 4.0


def stable_seed(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


def make_benchmark_dataset(name: str, separation: float = DEFAULT_SEPARATION) -> Dataset:
    """Two unit-variance Gaussian clusters at the given centroid separation,
    shaped like the named benchmark dataset."""
    n_samples, n_features = BENCHMARK_SHAPES[name]
    rng = np.random.default_rng(np.random.SeedSequence(stable_seed(name)))
    corner = rng.integers(0, 2, size=n_features).astype(np.float64)
    direction = 1.0 - 2.0 * corner
    centroids = np.stack(
        [corner, corner + separation * direction / math.sqrt(n_features)]
    )
    n_second = n_samples // 2
    y = np.zeros(n_samples, dtype=np.int64)
    y[n_samples - n_second:] = 1
    X = centroids[y] + rng.standard_normal((n_samples, n_features))
    perm = rng.permutation(n_samples)
    return Dataset(
        name,
        X[perm],
        y[perm],
        tuple(f"f{i}" for i in range(n_features)),
        ("0", "1"),
    )


# ---------------------------------------------------------------------------
# Reference balanced-accuracy matrix (22 benchmark datasets x 5 methods) used
# as the regression fixture for mean_ranks, together with the mean-rank
# summary row that accompanies it. Scores are displayed at 3 decimals, which
# collapses four pairs into ties (german RETIRE/XGB, monkone STML/RETIRE,
# spambase STML/RETIRE, twonorm DI/RETIRE). The summary row is only
# consistent with the matrix when three of those pairs keep their
# sub-display-precision ordering: german XGB > RETIRE, spambase
# STML > RETIRE, twonorm RETIRE > DI (monkone is a true 1.000/1.000 tie).
# TIE_RESOLVED_BAC_MATRIX encodes those three orderings with a bump well
# below the displayed precision.

REFERENCE_METHODS = ("stml", "igtd", "di", "retire", "xgb")

REFERENCE_DATASETS = (
    "australian", "banknote", "breastcan", "breastcancoimbra", "bupa",
    "cryotherapy", "german", "haberman", "heart", "ionosphere", "liver",
    "mammographic", "monk-2", "monkone", "phoneme", "pima", "ring", "sonar",
    "spambase", "titanic", "twonorm", "wisconsin",
)

REFERENCE_BAC_MATRIX = np.array([
    [0.646, 0.650, 0.846, 0.829, 0.861],
    [0.986, 0.962, 0.918, 0.999, 0.994],
    [0.962, 0.880, 0.965, 0.966, 0.957],
    [0.594, 0.531, 0.593, 0.664, 0.703],
    [0.619, 0.502, 0.638, 0.631, 0.664],
    [0.846, 0.664, 0.599, 0.895, 0.857],
    [0.631, 0.525, 0.630, 0.671, 0.671],
    [0.574, 0.518, 0.599, 0.570, 0.586],
    [0.737, 0.676, 0.735, 0.793, 0.790],
    [0.843, 0.770, 0.889, 0.937, 0.897],
    [0.621, 0.490, 0.614, 0.631, 0.672],
    [0.811, 0.727, 0.747, 0.793, 0.802],
    [0.993, 0.672, 0.778, 0.995, 0.990],
    [1.000, 0.536, 0.743, 1.000, 0.999],
    [0.766, 0.515, 0.764, 0.840, 0.854],
    [0.655, 0.555, 0.679, 0.690, 0.706],
    [0.952, 0.899, 0.643, 0.961, 0.964],
    [0.546, 0.605, 0.796, 0.832, 0.807],
    [0.927, 0.538, 0.931, 0.927, 0.945],
    [0.694, 0.560, 0.682, 0.692, 0.684],
    [0.958, 0.947, 0.968, 0.968, 0.966],
    [0.947, 0.834, 0.953, 0.956, 0.945],
])

REFERENCE_MEAN_RANKS = np.array([2.932, 1.227, 2.682, 4.114, 4.045])

TIE_RESOLVED_BAC_MATRIX = REFERENCE_BAC_MATRIX.copy()
_BUMP = 1e-6
TIE_RESOLVED_BAC_MATRIX[6, 4] += _BUMP    # german: xgb above retire
TIE_RESOLVED_BAC_MATRIX[18, 0] += _BUMP   # spambase: stml above retire
TIE_RESOLVED_BAC_MATRIX[20, 3] += _BUMP   # twonorm: retire above di


def strict_loads(text):
    """``json.loads`` refusing the ``NaN``/``Infinity`` extensions."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def write_keel_file(ds: Dataset, path) -> Path:
    """Write a dataset in KEEL ``.dat`` form (all inputs real, nominal
    class output). Floats use repr so reloading is bit-exact."""
    path = Path(path)
    lines = [f"@relation {ds.name}"]
    for j, fname in enumerate(ds.feature_names):
        lo, hi = ds.X[:, j].min(), ds.X[:, j].max()
        lines.append(f"@attribute {fname} real [{lo!r}, {hi!r}]")
    lines.append(f"@attribute class {{{', '.join(ds.class_names)}}}")
    lines.append(f"@inputs {', '.join(ds.feature_names)}")
    lines.append("@outputs class")
    lines.append("@data")
    for row, label in zip(ds.X, ds.y):
        lines.append(", ".join([*(repr(float(v)) for v in row), ds.class_names[label]]))
    path.write_text("\n".join(lines) + "\n")
    return path


def save_csv(ds: Dataset, path, label_name: str = "class") -> None:
    """Write ``ds`` as CSV so that ``load_csv`` round-trips X and y.

    Floats are written with ``repr`` so they reload bit-exactly. The label
    round-trips whenever ``y`` is first-appearance coded, which holds for
    every ingested dataset.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ds.feature_names, label_name])
        for row, label in zip(ds.X, ds.y):
            writer.writerow([*(repr(float(v)) for v in row), ds.class_names[label]])


def even_odd_oracle(pts, width, height):
    """Brute-force even-odd membership of every pixel center: count edges
    crossed by the rightward ray, edge by edge."""
    pts = np.asarray(pts, dtype=np.float64)
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    px = (np.arange(width) + 0.5)[None, :, None]
    py = (np.arange(height) + 0.5)[:, None, None]
    crosses = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    hits = crosses & (px < xint)
    return hits.sum(axis=2) % 2 == 1


def count_table_fill(pts, width, height):
    """Even-odd fill of (..., n, 2) polygons as uint8 0/1 parity through a
    dense (..., height, width + 1) table: every edge lists the scanlines in
    [floor(min y), ceil(max y)), keeps those it crosses, counts each
    crossing at the first center not left of it, and a center's parity is
    that of the counts to its right (a reverse uint8 cumulative sum, which
    keeps the parity when it wraps at 256)."""
    pts = np.asarray(pts, dtype=np.float64)
    lead, n = pts.shape[:-2], pts.shape[-2]
    (x1, y1), (x2, y2) = pts.reshape(-1, 2).T, np.roll(pts, -1, axis=-2).reshape(-1, 2).T
    lo = np.clip(np.floor(np.minimum(y1, y2)), 0, height).astype(np.int64)
    count = np.clip(np.ceil(np.maximum(y1, y2)), 0, height).astype(np.int64) - lo
    edges = np.repeat(np.arange(len(count)), count)
    rows = np.arange(len(edges)) + (lo - (np.cumsum(count) - count))[edges]
    yc = rows + 0.5
    crossing = (y1[edges] > yc) != (y2[edges] > yc)
    edges, rows, yc = edges[crossing], rows[crossing], yc[crossing]
    xa, ya = x1[edges], y1[edges]
    xint = xa + (yc - ya) * (x2[edges] - xa) / (y2[edges] - ya)
    first = np.clip(np.ceil(xint - 0.5), 0, width).astype(np.int64)
    key = ((edges // n) * height + rows) * (width + 1) + first
    table = np.bincount(key, minlength=math.prod(lead) * height * (width + 1))
    table = table.astype(np.uint8).reshape(*lead, height, width + 1)
    parity = np.cumsum(table[..., :0:-1], axis=-1, dtype=np.uint8)[..., ::-1]
    return np.bitwise_and(parity, 1, out=parity)


def closed_form_stroke(pixels, pts, closed=False):
    """Stroke (..., n, 2) points into a (..., height, width) uint8 stack as
    Bresenham stepping in int64 closed form: step k of a segment of L steps
    sits k along its major axis and floor((2 |d| k + L - 1) / 2L) along its
    minor one. Only the steps that put the major coordinate on the image
    are formed, and the minor coordinate is masked to the image afterwards;
    an open polyline ends on a zero-length segment at its last point."""
    pts = np.asarray(pts, dtype=np.float64)
    height, width = pixels.shape[-2:]
    start = np.floor(pts).astype(np.int64)
    end = np.roll(start, -1, axis=-2)
    if not closed:
        end[..., -1, :] = start[..., -1, :]
    start, end = start.reshape(-1, 2), end.reshape(-1, 2)
    delta, sign = np.abs(end - start), np.where(start < end, 1, -1)
    steps = delta.max(axis=1)
    seg = np.arange(len(start))
    major = (delta[:, 1] > delta[:, 0]).astype(np.intp)  # 0: x, 1: y
    origin, forward = start[seg, major], sign[seg, major] > 0
    size = np.take((width, height), major)
    # steps k in [lo, hi] put the major coordinate origin +- k on the image
    lo = np.maximum(np.where(forward, -origin, origin - size + 1), 0)
    hi = np.minimum(np.where(forward, size - 1 - origin, origin), steps)
    count = np.maximum(hi - lo + 1, 0)
    seg = np.repeat(seg, count)
    k = np.arange(len(seg)) + (lo - (np.cumsum(count) - count))[seg]
    span = np.maximum(steps, 1)[seg]
    minor = (2 * delta.min(axis=1)[seg] * k + span - 1) // (2 * span)
    y_major = major.astype(bool)[seg]
    x = start[:, 0][seg] + sign[:, 0][seg] * np.where(y_major, minor, k)
    y = start[:, 1][seg] + sign[:, 1][seg] * np.where(y_major, k, minor)
    on = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    np.put(pixels, (((seg // pts.shape[-2]) * height + y) * width + x)[on], 255)
    return pixels


def assignment_error(rank_feat: np.ndarray, rank_pix: np.ndarray,
                     assignment: np.ndarray) -> float:
    """Sum over feature pairs of |feature-distance rank - pixel-distance
    rank of the assigned cells|."""
    rp = rank_pix[np.ix_(assignment, assignment)]
    iu = np.triu_indices(rank_feat.shape[0], 1)
    return float(np.abs(rank_feat - rp)[iu].sum())


def argsort_rank_average(values):
    """1-based average ranks by stable argsort, a scan for the boundaries
    of tied groups in the sorted values, and a scatter of each group's mean
    position back to the input order."""
    v = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    ends = np.r_[starts[1:], len(v)]
    # mean of 1-based positions starts+1 .. ends
    group_rank = 0.5 * (starts + ends - 1) + 1.0
    ranks = np.empty(len(v), dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def shifted_copy_min_tail(ranks, w):
    """Exact two-sided Wilcoxon tail P(min(W+, W-) <= w) from the counts of
    2 W+ over all sign assignments, adding a zero-filled shifted copy of the
    counts for each doubled rank."""
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:counts.size - r]
        counts += shifted
    sums = np.arange(total + 1, dtype=np.float64)
    min_stat = np.minimum(sums, total - sums) / 2.0
    return float(counts[min_stat <= w].sum()) / 2.0 ** ranks.size


def glyph_masks():
    """Each drawable character's hand-drawn 5x7 glyph as a bool mask."""
    return {ch: np.array([[cell == "#" for cell in row] for row in rows])
            for ch, rows in _font._GLYPH_ROWS.items()}


def text_codes(texts):
    """``texts`` as an (N, L) uint8 matrix of ASCII codes, each row padded
    with NUL (code 0) to the longest text."""
    longest = max(map(len, texts), default=0)
    return np.array([list(t.encode("ascii").ljust(longest, b"\0")) for t in texts],
                    dtype=np.uint8).reshape(len(texts), longest)
