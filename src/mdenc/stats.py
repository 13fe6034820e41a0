"""Classifier-comparison statistics: the combined F-test over repeated
2-fold CV scores (per dataset), the Wilcoxon signed-rank test (across
datasets), mean ranks, and ``compare``, which runs all three over a set of
evaluation reports."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._doc import to_doc
from ._ranking import rank_average
from .data import CV_FOLDS, CV_REPEATS
from .errors import (InsufficientDataError, ParameterError, brief, float_array,
                     non_negative_int, real_number)

N_SPLITS = CV_REPEATS * CV_FOLDS
DEFAULT_ALPHA = 0.05
WILCOXON_EXACT_LIMIT = 20  # largest n whose Wilcoxon p-value is exact


def _check_alpha(alpha: float) -> None:
    if not 0.0 < real_number(alpha, "alpha") < 1.0:  # also rejects NaN
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")


def _paired_scores(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = float_array(a, "scores must be numbers"), float_array(b, "scores must be numbers")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("scores must be finite")
    return a, b


@dataclass(frozen=True)
class FTestResult:
    f_stat: float
    p_value: float
    significant: bool
    degenerate: bool


def combined_5x2cv_f_test(a, b, alpha: float = DEFAULT_ALPHA) -> FTestResult:
    """Combined F-test over 10 paired scores from 5 repeats of 2-fold CV.

    With per-repeat differences p_i1, p_i2, mean pbar_i and variance
    s2_i = (p_i1 - pbar_i)^2 + (p_i2 - pbar_i)^2, the statistic is

        F = (sum of all p_ij^2) / (2 * sum of s2_i)

    referred to the F distribution with (10, 5) degrees of freedom.

    Degenerate inputs are flagged instead of dividing by zero: constant
    nonzero differences give p = 0 (significant); all-zero differences
    leave F undefined (not significant).
    """
    _check_alpha(alpha)
    a, b = _paired_scores(a, b)
    if a.shape != (N_SPLITS,) or b.shape != (N_SPLITS,):
        raise ParameterError(f"need {N_SPLITS} paired scores "
                             f"({CV_REPEATS} repeats x {CV_FOLDS} folds)")
    diffs = (a - b).reshape(CV_REPEATS, CV_FOLDS)
    repeat_mean = diffs.mean(axis=1, keepdims=True)
    s2 = ((diffs - repeat_mean) ** 2).sum(axis=1)
    numerator = float((diffs ** 2).sum())
    denominator = 2.0 * float(s2.sum())
    if denominator == 0.0:
        if numerator == 0.0:
            return FTestResult(math.nan, 1.0, False, True)
        return FTestResult(math.inf, 0.0, True, True)
    f_stat = numerator / denominator
    p_value = f_distribution_sf(f_stat, N_SPLITS, CV_REPEATS)
    return FTestResult(f_stat, p_value, p_value < alpha, False)


def f_distribution_sf(x: float, d1: int, d2: int) -> float:
    """Survival function P(F(d1, d2) > x) of the F distribution for integer
    degrees of freedom up to 2**17: the regularized incomplete beta
    I_y(a, b) at y = d2 / (d2 + d1 x), a = d2 / 2 and b = d1 / 2, as a
    finite sum. It starts from a closed form, I_y(a, 1) = y^a when d1 is
    even, I_y(1, b) = 1 - (1-y)^b when d2 is, and I_y(1/2, 1/2) =
    (2/pi) atan(sqrt(y / (1-y))) when both are odd. Then it raises b one at
    a time, each step adding y^a (1-y)^b / (b B(a, b)), and then a, each
    step subtracting y^a (1-y)^b / (a B(a, b)), formed in log space."""
    d1, d2 = non_negative_int(d1, "d1"), non_negative_int(d2, "d2")
    if not 1 <= min(d1, d2) <= max(d1, d2) <= 2 ** 17:
        raise ParameterError(f"degrees of freedom must lie in 1..2**17, got {d1} and {d2}")
    x = real_number(x, "x")
    if not x >= 0.0:  # also rejects NaN
        raise ParameterError(f"x must be >= 0, got {x}")
    y = d2 / (d2 + d1 * x)
    if not 0.0 < y < 1.0:  # x = 0 or inf, or so near either that y rounds to 1 or 0
        return y
    w = d1 * x / (d2 + d1 * x)  # 1 - y without the cancellation
    if d1 % 2 == 0:
        a, b, sf = d2 / 2, 1.0, y ** (d2 / 2)
    elif d2 % 2 == 0:
        a, b, sf = 1.0, d1 / 2, 1.0 - w ** (d1 / 2)
    else:
        a, b, sf = 0.5, 0.5, math.atan2(math.sqrt(y), math.sqrt(w)) / (math.pi / 2)
    ln_y, ln_w = math.log(y), math.log(w)
    while b < d1 / 2:
        sf += math.exp(a * ln_y + b * ln_w + math.lgamma(a + b) - math.lgamma(a)
                       - math.lgamma(b + 1.0))
        b += 1.0
    while a < d2 / 2:
        sf -= math.exp(a * ln_y + b * ln_w + math.lgamma(a + b) - math.lgamma(a + 1.0)
                       - math.lgamma(b))
        a += 1.0
    return min(max(sf, 0.0), 1.0)


@dataclass(frozen=True)
class WilcoxonResult:
    w_stat: float
    p_value: float
    significant: bool
    n: int
    exact: bool


def wilcoxon_signed_rank(a, b, alpha: float = DEFAULT_ALPHA) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired score vectors.

    Zero differences are dropped (at least 5 must remain); absolute
    differences get average ranks; W = min(W+, W-). For n <= WILCOXON_EXACT_LIMIT
    the p-value is the exact tail mass of the min statistic over all 2^n
    sign assignments (computed by convolution over the doubled-rank grid);
    larger n uses the tie-corrected normal approximation.
    """
    _check_alpha(alpha)
    a, b = _paired_scores(a, b)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("paired score vectors must be 1-d and equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n < 5:
        raise InsufficientDataError(f"only {n} nonzero differences (need >= 5)")
    ranks = rank_average(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    total = float(ranks.sum())
    w = min(w_plus, total - w_plus)
    if n <= WILCOXON_EXACT_LIMIT:
        p_value = _exact_min_tail(ranks, w)
        exact = True
    else:
        p_value = _normal_tail(ranks, w, n)
        exact = False
    # p <= 1: w <= total / 2 makes z <= 0; the exact tail counts each of 2^n assignments once
    return WilcoxonResult(w, p_value, p_value < alpha, n, exact)


def _exact_min_tail(ranks: np.ndarray, w: float) -> float:
    # distribution of 2*W+ over all sign assignments; ranks are halves at
    # worst, so the doubled grid is integral and the counts are exact
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:  # numpy buffers the overlapping right-hand side
        counts[r:] += counts[:total + 1 - r]
    sums = np.arange(total + 1, dtype=np.float64)
    min_stat = np.minimum(sums, total - sums) / 2.0
    return float(counts[min_stat <= w].sum()) / 2.0 ** ranks.size


def _normal_tail(ranks: np.ndarray, w: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    tie_term = float((tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term  # > 0: ties take at most (n³ − n) / 48
    z = (w - mean) / math.sqrt(var)
    return 2.0 * _norm_cdf(z)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mean_ranks(scores) -> np.ndarray:
    """Per-method mean rank over a (datasets x methods) score matrix.

    Within each dataset the methods are ranked 1..M ascending by score
    (ties share the average rank), so a higher score earns a higher rank
    and the best method has the largest mean.
    """
    matrix = float_array(scores, "scores must be a datasets x methods matrix of numbers")
    if matrix.ndim != 2 or matrix.size == 0:
        raise ParameterError("need a non-empty datasets x methods matrix")
    if not np.isfinite(matrix).all():
        raise ParameterError("missing entries are not allowed")
    ranks = np.vstack([rank_average(row) for row in matrix])
    return ranks.mean(axis=0)


def _pair_key(name_a: str, name_b: str) -> str:
    return f"{name_a} vs {name_b}"


def compare(reports, alpha: float = DEFAULT_ALPHA) -> dict:
    """Compare methods over evaluation reports, one per (dataset, method).

    Each report needs ``dataset``, ``encoder`` (the method), ``mean_bac``
    and the 10 ``per_split_bac`` scores; methods and datasets keep their
    first-appearance order. Per dataset, every method pair gets the
    combined F-test, and each method lists the 1-based indices of the
    methods it beats significantly. Across datasets, the mean balanced
    accuracies give the mean ranks and, per method pair, a Wilcoxon
    signed-rank test (an ``error`` entry when too few datasets differ).
    This is the document ``mdenc stats --out`` writes.
    """
    datasets: list[str] = []
    methods: list[str] = []
    table = {}
    for report in reports:
        if report.dataset not in datasets:
            datasets.append(report.dataset)
        if report.encoder not in methods:
            methods.append(report.encoder)
        key = (report.dataset, report.encoder)
        if key in table:
            raise ParameterError(f"duplicate report for {brief(key)}")
        table[key] = report
    missing = [(d, m) for d in datasets for m in methods if (d, m) not in table]
    if missing:
        raise ParameterError(f"missing reports for {brief(missing)}")
    if len(methods) < 2:
        raise ParameterError("need reports for at least 2 methods")

    pairs = list(itertools.combinations(range(len(methods)), 2))
    per_dataset = {}
    for ds_name in datasets:
        means = {m: table[(ds_name, m)].mean_bac for m in methods}
        f_tests = {}
        better_than: dict[str, list[int]] = {m: [] for m in methods}
        for i, j in pairs:
            m_i, m_j = methods[i], methods[j]
            result = combined_5x2cv_f_test(table[(ds_name, m_i)].per_split_bac,
                                           table[(ds_name, m_j)].per_split_bac, alpha)
            f_tests[_pair_key(m_i, m_j)] = to_doc(result)
            if result.significant:
                winner, loser = (i, j) if means[m_i] > means[m_j] else (j, i)
                better_than[methods[winner]].append(loser + 1)  # 1-based
        per_dataset[ds_name] = {
            "mean_bac": means,
            "significantly_better_than": {m: sorted(v) for m, v in better_than.items()},
            "f_tests": f_tests,
        }

    score_matrix = np.array([[table[(d, m)].mean_bac for m in methods] for d in datasets])
    wilcoxon = {}
    for i, j in pairs:
        try:
            result = to_doc(wilcoxon_signed_rank(score_matrix[:, i], score_matrix[:, j], alpha))
        except InsufficientDataError as exc:
            result = {"error": str(exc)}
        wilcoxon[_pair_key(methods[i], methods[j])] = result
    return {
        "alpha": alpha,
        "methods": methods,
        "datasets": per_dataset,
        "mean_ranks": {m: float(r) for m, r in zip(methods, mean_ranks(score_matrix))},
        "wilcoxon": wilcoxon,
    }
