import itertools
import math

import numpy as np
import pytest
import scipy.stats as scipy_stats
from hypothesis import given, settings, strategies as st

from fixtures import (
    REFERENCE_BAC_MATRIX,
    REFERENCE_MEAN_RANKS,
    REFERENCE_METHODS,
    TIE_RESOLVED_BAC_MATRIX,
)
from mdenc.errors import InsufficientDataError, ParameterError, ShapeError
from mdenc.probe import EvalReport
from mdenc.stats import (
    combined_5x2cv_f_test,
    compare,
    f_distribution_sf,
    mean_ranks,
    wilcoxon_signed_rank,
)


def manual_f_statistic(a, b):
    """Literal transcription of the combined F-test formula."""
    diffs = [x - y for x, y in zip(a, b)]
    total_sq = sum(d * d for d in diffs)
    var_sum = 0.0
    for i in range(5):
        p1, p2 = diffs[2 * i], diffs[2 * i + 1]
        mean = (p1 + p2) / 2.0
        var_sum += (p1 - mean) ** 2 + (p2 - mean) ** 2
    return total_sq / (2.0 * var_sum)


def wilcoxon_enumeration_oracle(a, b):
    """Exact two-sided p of the min statistic by enumerating 2^n signs."""
    diffs = np.asarray(a, float) - np.asarray(b, float)
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    ranks = scipy_stats.rankdata(np.abs(diffs), method="average")
    w_plus = ranks[diffs > 0].sum()
    total = ranks.sum()
    w_obs = min(w_plus, total - w_plus)
    favorable = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if min(w, total - w) <= w_obs:
            favorable += 1
    return w_obs, favorable / 2.0 ** n


class TestCombinedFTest:
    def test_identical_scores_not_significant(self):
        result = combined_5x2cv_f_test(np.full(10, 0.8), np.full(10, 0.8))
        assert not result.significant
        assert result.degenerate
        assert result.p_value == 1.0

    def test_constant_difference_is_degenerate_significant(self):
        result = combined_5x2cv_f_test(np.full(10, 0.9), np.full(10, 0.8))
        assert result.significant
        assert result.degenerate
        assert result.p_value == 0.0
        assert math.isinf(result.f_stat)

    def test_matches_manual_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0.4, 1.0, size=10)
            b = rng.uniform(0.4, 1.0, size=10)
            result = combined_5x2cv_f_test(a, b)
            assert result.f_stat == pytest.approx(manual_f_statistic(a, b), abs=1e-12)
            assert not result.degenerate

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=10)
        b = rng.uniform(size=10)
        r1 = combined_5x2cv_f_test(a, b)
        r2 = combined_5x2cv_f_test(b, a)
        assert r1.f_stat == r2.f_stat
        assert r1.p_value == r2.p_value

    def test_needs_ten_scores(self):
        with pytest.raises(ParameterError):
            combined_5x2cv_f_test(np.ones(8), np.ones(8))

    def test_names_the_cv_shape(self):
        with pytest.raises(ParameterError, match=r"need 10 paired scores \(5 repeats x 2 folds\)"):
            combined_5x2cv_f_test(np.ones(12), np.ones(12))

    @pytest.mark.parametrize("alpha", ["x", None, "0.05"])
    def test_alpha_must_be_a_number(self, alpha):
        rng = np.random.default_rng(3)
        with pytest.raises(ParameterError, match="alpha must be a number"):
            combined_5x2cv_f_test(rng.uniform(size=10), rng.uniform(size=10), alpha=alpha)


class TestFDistributionSf:
    def test_zero_gives_full_mass(self):
        assert f_distribution_sf(0.0, 10, 5) == 1.0

    def test_closed_form_2_2(self):
        # for d1 = d2 = 2 the sf is exactly 1/(1+x)
        assert f_distribution_sf(1.0, 2, 2) == pytest.approx(0.5, abs=1e-10)
        for x in (0.25, 2.0, 9.0):
            assert f_distribution_sf(x, 2, 2) == pytest.approx(1 / (1 + x), abs=1e-10)

    def test_monotone_non_increasing(self):
        values = [f_distribution_sf(x, 10, 5) for x in np.linspace(0, 50, 400)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_tail_goes_to_zero(self):
        assert f_distribution_sf(1e6, 10, 5) < 1e-6

    def test_against_scipy_grid(self):
        for d1, d2 in ((10, 5), (1, 1), (2, 7), (30, 4)):
            for x in np.linspace(0.01, 40, 100):
                assert f_distribution_sf(float(x), d1, d2) == pytest.approx(
                    scipy_stats.f.sf(x, d1, d2), abs=1e-10)

    def test_finite_sum_against_scipy_grid(self):
        for d1, d2 in ((10, 5), (1, 1), (2, 7), (30, 4), (2, 2), (5, 5), (3, 8), (1, 40),
                       (101, 99)):
            for x in np.linspace(0.01, 40, 200):
                assert abs(f_distribution_sf(float(x), d1, d2) - scipy_stats.f.sf(x, d1, d2)) <= 1e-12

    def test_incomplete_beta_against_scipy(self):
        # P(F(d1, d2) > x) is I_y(d2/2, d1/2) at y = d2 / (d2 + d1 x)
        rng = np.random.default_rng(2)
        for _ in range(200):
            y = float(rng.uniform(0, 1))
            d1, d2 = (int(d) for d in rng.integers(1, 41, size=2))
            x = d2 * (1.0 - y) / (d1 * y)
            assert f_distribution_sf(x, d1, d2) == pytest.approx(
                scipy_stats.beta.cdf(d2 / (d2 + d1 * x), d2 / 2, d1 / 2), abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(d1=st.integers(1, 400), d2=st.integers(1, 400), log_x=st.floats(-6.0, 6.0))
    def test_matches_scipy_for_integer_degrees_of_freedom(self, d1, d2, log_x):
        x = 10.0 ** log_x
        sf = f_distribution_sf(x, d1, d2)
        assert 0.0 <= sf <= 1.0
        assert abs(sf - scipy_stats.f.sf(x, d1, d2)) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            f_distribution_sf(-1.0, 2, 2)
        with pytest.raises(ParameterError):
            f_distribution_sf(1.0, 0, 2)
        with pytest.raises(ParameterError):
            f_distribution_sf(math.nan, 10, 5)

    @pytest.mark.parametrize("x", ["1", None, [1.0]])
    def test_x_must_be_a_number(self, x):
        with pytest.raises(ParameterError, match="x must be a number"):
            f_distribution_sf(x, 10, 5)

    @pytest.mark.parametrize("d1, d2", [(2.5, 3), (2, 3.0), ("2", 3), (-1, 3)])
    def test_degrees_of_freedom_must_be_integers(self, d1, d2):
        with pytest.raises(ParameterError, match="must be a non-negative integer"):
            f_distribution_sf(1.0, d1, d2)
        assert f_distribution_sf(1.0, np.int64(2), 2) == pytest.approx(0.5, abs=1e-10)

    def test_infinite_x_has_no_mass_beyond(self):
        assert f_distribution_sf(math.inf, 10, 5) == 0.0

    @pytest.mark.parametrize("x, d1, d2, expected", [
        (0.0, 10, 5, 1.0), (5e-324, 10, 5, 1.0), (1e-300, 10, 5, 1.0), (1e-17, 7, 9, 1.0),
        (1e300, 10, 5, 0.0), (math.inf, 1, 1, 0.0)])
    def test_x_at_the_ends_of_the_range(self, x, d1, d2, expected):
        # y = d2 / (d2 + d1 x) rounds to 1 or 0 here, or the tail is below 1e-300
        assert f_distribution_sf(x, d1, d2) == expected

    def test_large_degrees_of_freedom_within_documented_error(self):
        # the exact value at x = 1 and d1 = d2 is 0.5
        assert f_distribution_sf(1.0, 10**4, 10**4) == pytest.approx(0.5, abs=1e-10)
        assert f_distribution_sf(1.0, 5 * 10**4, 5 * 10**4) == pytest.approx(0.5, abs=1e-10)

    def test_degrees_of_freedom_at_the_bound(self):
        assert f_distribution_sf(1.0, 2**17, 2**17) == pytest.approx(0.5, abs=1e-10)
        assert f_distribution_sf(1.01, 2**17, 2**17) == pytest.approx(
            scipy_stats.f.sf(1.01, 2**17, 2**17), abs=1e-10)

    @pytest.mark.parametrize("d1, d2", [(10**6, 10**6), (2**17 + 1, 5), (10, 2**17 + 1)])
    def test_degrees_of_freedom_above_the_bound_are_rejected(self, d1, d2):
        with pytest.raises(ParameterError, match=r"must lie in 1\.\.2\*\*17, got "):
            f_distribution_sf(1.0, d1, d2)


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_f_test_rejects_non_finite_scores(self, bad):
        one_bad = [0.5] * 9 + [bad]
        for a, b in (([bad] * 10, [0.5] * 10), ([0.5] * 10, one_bad)):
            with pytest.raises(ParameterError, match="scores must be finite"):
                combined_5x2cv_f_test(a, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_wilcoxon_rejects_non_finite_scores(self, bad):
        one_bad = [0.1, 0.2, 0.3, 0.4, 0.6, bad]
        for a, b in (([bad] * 6, [0.5] * 6), ([0.5] * 6, one_bad)):
            with pytest.raises(ParameterError, match="scores must be finite"):
                wilcoxon_signed_rank(a, b)


class TestWilcoxon:
    @pytest.mark.parametrize("alpha", ["x", None, "0.05"])
    def test_alpha_must_be_a_number(self, alpha):
        with pytest.raises(ParameterError, match="alpha must be a number"):
            wilcoxon_signed_rank(np.arange(1.0, 7.0), np.zeros(6), alpha=alpha)

    def test_all_zero_differences_insufficient(self):
        a = np.linspace(0, 1, 8)
        with pytest.raises(InsufficientDataError):
            wilcoxon_signed_rank(a, a.copy())

    def test_six_positive_distinct(self):
        result = wilcoxon_signed_rank(np.arange(1.0, 7.0), np.zeros(6))
        assert result.w_stat == 0.0
        assert result.p_value == 2 / 2 ** 6  # frozen from the enumeration
        assert result.exact and result.significant

    def test_small_mixed_case_matches_oracle(self):
        a = np.array([0.6, 0.1, 0.9, 0.4, 0.3])
        b = np.array([0.2, 0.3, 0.1, 0.5, 0.25])
        w_obs, p_expected = wilcoxon_enumeration_oracle(a, b)
        result = wilcoxon_signed_rank(a, b)
        assert result.w_stat == w_obs
        assert result.p_value == p_expected

    def test_random_cases_match_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(5, 13))
            a = rng.uniform(size=n)
            b = rng.uniform(size=n)
            if rng.random() < 0.4:  # force rank ties in |differences|
                k = int(rng.integers(2, n))
                b[:k] = a[:k] - 0.05
            w_obs, p_expected = wilcoxon_enumeration_oracle(a, b)
            result = wilcoxon_signed_rank(a, b)
            assert result.w_stat == w_obs
            assert result.p_value == p_expected

    def test_matches_scipy_exact_mode(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.uniform(size=10)
            b = rng.uniform(size=10)
            mine = wilcoxon_signed_rank(a, b)
            ref = scipy_stats.wilcoxon(a, b, zero_method="wilcox",
                                       correction=False, mode="exact")
            assert mine.w_stat == ref.statistic
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_large_n_normal_approximation(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=30)
        b = rng.uniform(size=30)
        mine = wilcoxon_signed_rank(a, b)
        assert not mine.exact
        ref = scipy_stats.wilcoxon(a, b, zero_method="wilcox",
                                   correction=False, mode="approx")
        assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_insufficient_nonzero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a.copy()
        b[:2] += 0.5
        with pytest.raises(InsufficientDataError):
            wilcoxon_signed_rank(a, b)


class TestMeanRanks:
    def test_total_dominance(self):
        scores = np.array([[0.9, 0.1]] * 4)
        assert mean_ranks(scores).tolist() == [2.0, 1.0]

    def test_tied_rows_share_rank(self):
        assert mean_ranks(np.array([[0.5, 0.5]])).tolist() == [1.5, 1.5]

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(size=(15, 4))
        expected = np.vstack([
            scipy_stats.rankdata(row, method="average") for row in scores
        ]).mean(axis=0)
        assert np.array_equal(mean_ranks(scores), expected)

    def test_reference_matrix_literal_transcription(self):
        # the 3-decimal transcription collapses four score pairs into ties,
        # so the average-tie means differ from the reference summary row by
        # exactly half-rank flips (0.5/22) on four methods
        literal = mean_ranks(REFERENCE_BAC_MATRIX)
        expected = np.array([64.0, 27.0, 59.5, 91.0, 88.5]) / 22.0
        assert np.allclose(literal, expected, atol=1e-12)

    def test_reference_matrix_tie_resolved(self):
        resolved = mean_ranks(TIE_RESOLVED_BAC_MATRIX)
        assert np.abs(resolved - REFERENCE_MEAN_RANKS).max() <= 1e-3

    def test_missing_entries_rejected(self):
        with pytest.raises(ParameterError):
            mean_ranks(np.array([[1.0, np.nan]]))

    def test_scores_that_are_not_numbers_raise_shape_error(self):
        with pytest.raises(ShapeError, match="matrix of numbers"):
            mean_ranks([["a", "b"], ["c", "d"]])


BAD_ALPHAS = [math.nan, 0.0, 1.0, -1.0, 2.0, math.inf]


def reports_for(matrix, methods, rng):
    """One report per (dataset, method): 10 split scores around each cell."""
    out = []
    for d, row in enumerate(matrix):
        for m, mean in zip(methods, row):
            bacs = np.clip(mean + rng.normal(0, 0.02, 10), 0, 1)
            out.append(EvalReport(f"ds{d}", m, tuple(bacs), float(np.mean(bacs))))
    return out


class TestAlphaDomain:
    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_tests_reject_alpha_outside_unit_interval(self, alpha):
        a, b = np.linspace(0.5, 0.9, 10), np.linspace(0.4, 0.8, 10)[::-1]
        with pytest.raises(ParameterError, match="alpha"):
            combined_5x2cv_f_test(a, b, alpha)
        with pytest.raises(ParameterError, match="alpha"):
            wilcoxon_signed_rank(a, b, alpha)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_compare_rejects_alpha_outside_unit_interval(self, alpha):
        reports = reports_for(REFERENCE_BAC_MATRIX[:6, :2], ("stml", "igtd"),
                              np.random.default_rng(0))
        with pytest.raises(ParameterError, match="alpha"):
            compare(reports, alpha)

    def test_alpha_near_the_ends_accepted(self):
        a, b = np.linspace(0.5, 0.9, 10), np.linspace(0.4, 0.8, 10)[::-1]
        assert combined_5x2cv_f_test(a, b, 1e-12).significant is False
        assert wilcoxon_signed_rank(a, b, 1.0 - 1e-12).significant is True


class TestCompare:
    def test_protocol_matches_the_per_test_functions(self):
        methods = REFERENCE_METHODS
        reports = reports_for(REFERENCE_BAC_MATRIX, methods, np.random.default_rng(1))
        doc = compare(reports, 0.1)
        assert doc["alpha"] == 0.1 and doc["methods"] == list(methods)
        assert list(doc["datasets"]) == [f"ds{d}" for d in range(len(REFERENCE_BAC_MATRIX))]
        table = {(r.dataset, r.encoder): r for r in reports}
        means = np.array([[table[(d, m)].mean_bac for m in methods] for d in doc["datasets"]])
        assert list(doc["mean_ranks"].values()) == mean_ranks(means).tolist()
        for (i, m_i), (j, m_j) in itertools.combinations(enumerate(methods), 2):
            w = wilcoxon_signed_rank(means[:, i], means[:, j], 0.1)
            assert doc["wilcoxon"][f"{m_i} vs {m_j}"] == {
                "w_stat": w.w_stat, "p_value": w.p_value, "significant": w.significant,
                "n": w.n, "exact": w.exact}
        entry = doc["datasets"]["ds0"]
        wins = {m: [] for m in methods}
        for (i, m_i), (j, m_j) in itertools.combinations(enumerate(methods), 2):
            f = combined_5x2cv_f_test(table[("ds0", m_i)].per_split_bac,
                                      table[("ds0", m_j)].per_split_bac, 0.1)
            assert entry["f_tests"][f"{m_i} vs {m_j}"]["p_value"] == f.p_value
            if f.significant:
                better = m_i if entry["mean_bac"][m_i] > entry["mean_bac"][m_j] else m_j
                wins[better].append(methods.index(m_j if better == m_i else m_i) + 1)
        assert entry["significantly_better_than"] == {m: sorted(v) for m, v in wins.items()}

    def test_too_few_differing_datasets_is_an_error_entry(self):
        reports = reports_for(REFERENCE_BAC_MATRIX[:4, :2], ("stml", "igtd"),
                              np.random.default_rng(2))
        assert "error" in compare(reports)["wilcoxon"]["stml vs igtd"]

    def test_incomplete_report_sets_rejected(self):
        reports = reports_for(REFERENCE_BAC_MATRIX[:2, :2], ("stml", "igtd"),
                              np.random.default_rng(3))
        for bad, message in ((reports + reports[:1], "duplicate"),
                             (reports[:3], "missing"),
                             (reports[::2], "at least 2 methods")):
            with pytest.raises(ParameterError, match=message):
                compare(bad)
