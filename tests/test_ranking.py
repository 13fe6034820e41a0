"""Average ranks and the Wilcoxon exact null against the argsort build and
the shifted-copy loop they replaced, and SHA-256 pins of the results that
rest on them: IGTD fits, mean ranks and Wilcoxon tests."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import argsort_rank_average, shifted_copy_min_tail
from mdenc import encoders, stats
from mdenc._ranking import rank_average
from mdenc.data import generate_synthetic, make_cv_plan


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()


def tied_values(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "levels":  # five integer levels
        return rng.integers(0, 5, size).astype(np.float64)
    values = rng.normal(size=size)
    if kind == "rounded":
        values = np.round(values, 1)
    elif kind == "signed zeros":  # -0.0 and 0.0 share one group
        values[rng.random(size) < 0.3] = 0.0
        values[rng.random(size) < 0.3] = -0.0
    return values


class TestRankAverage:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0, 1.0, 2.5]),
                           min_size=1, max_size=200),
           decimals=st.none() | st.integers(0, 2))
    @example(values=[3.0], decimals=None)
    @example(values=[0.0, -0.0, 0.0, 1.0, -0.0], decimals=None)
    @example(values=[2.0, 2.0, 2.0], decimals=None)
    def test_matches_the_argsort_build(self, values, decimals):
        if decimals is not None:  # rounding makes ties
            values = np.round(values, decimals)
        assert rank_average(values).tobytes() == argsort_rank_average(values).tobytes()

    # sonar's 60 features give 1,770 pairs; 500 features give 124,750
    @pytest.mark.parametrize("size", [1770, 124750])
    @pytest.mark.parametrize("kind", ["gaussian", "rounded", "levels", "signed zeros"])
    def test_matches_the_argsort_build_on_pair_counts(self, kind, size):
        values = tied_values(kind, size, seed=size)
        assert rank_average(values).tobytes() == argsort_rank_average(values).tobytes()

    def test_matrix_is_ranked_flat(self):
        values = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert rank_average(values).tolist() == [3.0, 1.5, 1.5, 4.0]


class TestExactNull:
    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.integers(1, 6), min_size=5, max_size=20),
           fraction=st.floats(0.0, 1.0))
    def test_matches_the_shifted_copy_loop(self, levels, fraction):
        ranks = rank_average(levels)  # tied levels give half ranks
        w = np.round(fraction * ranks.sum()) / 2.0
        assert stats._exact_min_tail(ranks, w) == shifted_copy_min_tail(ranks, w)


class TestPinnedResults:
    @pytest.mark.parametrize("seed, want", [
        (0, "caa5cf6a437ccb7fd35611ec7c7d415df8a59ed0f37099220622182409c4c10e"),
        (7, "16e4bcf8ac11902ee1593b1e54a5220a4a08035f841f6bc3fd025752d0ea4bed")])
    def test_igtd_first_split_unchanged(self, seed, want):
        ds = generate_synthetic(208, 60, seed=seed)
        _, _, train_idx, _ = next(make_cv_plan(ds, seed=seed).iter_splits())
        mapping = encoders.fit("igtd", ds.subset(train_idx)).layout
        assert digest(mapping.assignment, mapping.error_trace) == want

    def test_igtd_full_fit_unchanged(self):
        mapping = encoders.fit("igtd", generate_synthetic(100, 150, seed=3)).layout
        assert digest(mapping.assignment, mapping.error_trace) == (
            "4b74ad5ce4ae15c457f94258798267d8f1547d514d5df2a627632b5a6133da53")

    # a 40-feature fit capped while it still swaps (its seventh step swaps),
    # and the smallest grids: n = 2 never moves, n = 3 swaps on its first
    # step (the seed-1 fit capped right after it) or never
    @pytest.mark.parametrize("n_samples, n_features, seed, max_iters, want", [
        (60, 40, 1, 7, "ca70c03783ae3e574c79b9f6ed8129a98406b5bb48a3f043223dd0dd44c55b1b"),
        (20, 2, 0, 1000, "174c34cc57b8b6919edc809c434d881572e57c2e79010c31546ecf7d7ba6a713"),
        (20, 3, 0, 1000, "c0d7d1b6f47e69b1969918a6d9c0ee5339d02aebc487980a06aadf427c51fd06"),
        (20, 3, 1, 1, "1af51102a26daddfbd4746fa717a1ef3a008624aa19a27d1534cdabc86113490"),
        (20, 3, 2, 1000, "8c6e7a432d6e4f72f327638b278adcc63ef2ca9df99edefb5bffa7267f5f93a8")])
    def test_igtd_small_and_capped_fits_unchanged(self, n_samples, n_features, seed,
                                                   max_iters, want):
        ds = generate_synthetic(n_samples, n_features, seed=seed)
        mapping = encoders.fit_igtd(ds, max_iters=max_iters).layout
        assert digest(mapping.assignment, mapping.error_trace) == want

    # searches on rank matrices of integer points, whose squared distances
    # are exact in any summation order: a 40-feature search, tie-heavy ones
    # of 3 levels, and 25 steps on each side of n = 203, the largest search
    # that runs in float32
    @pytest.mark.parametrize("n, levels, rows, seed, max_iters, converged, want", [
        (40, 10, 12, 0, 1000, True,
         "59bc469e986ca8d7c73708e354dda4e779e15bb0a097353c583b14219daf41ee"),
        (30, 3, 20, 1, 1000, True,
         "21e490705f95a81be104b924cd3bb68b37b573954c2d6381d780057a69582405"),
        (60, 3, 20, 2, 1000, True,
         "26962eb1cad6a8c6258c063d30b482f8c1d3e65636542657372c08babfd2eba1"),
        (203, 10, 12, 3, 25, False,
         "73159ee43ee442d9f283a0edd21cc8ce21d8b1e5be0757ccfa323f9c7b9b0b95"),
        (204, 10, 12, 4, 25, False,
         "05bfd88ca10766d1a91282e7de3877812d7810203659496a249254b968f7760c")])
    def test_igtd_searches_on_exact_ranks_unchanged(self, n, levels, rows, seed, max_iters,
                                                    converged, want):
        points = np.random.default_rng(seed).integers(0, levels, size=(rows, n)).astype(np.float64)
        cells = np.array(divmod(np.arange(n), math.ceil(math.sqrt(n))), dtype=np.float64)
        assignment, trace, got_converged = encoders._swap_descent(
            encoders._distance_ranks(points), encoders._distance_ranks(cells), max_iters)
        assert got_converged == converged
        assert digest(assignment, trace) == want

    def test_mean_ranks_of_a_tied_matrix_unchanged(self):
        tied = np.random.default_rng(11).integers(0, 4, size=(15, 6)) / 8.0
        assert digest(stats.mean_ranks(tied)) == (
            "884f2f0bf838d8daad11f5585e4e775a558a8ec0a84ae86339f7b198a1d63f6f")

    @pytest.mark.parametrize("n, exact, want", [
        (8, True, "63801626186d06adcd319cd40daea6af6cf9ce3d39add2621686a9ed0218d676"),
        (40, False, "e5676ae190c0bf538d1116b60d4bbe59fa6b5747cc79f1bc3ddaebc25db9cd9b")])
    def test_wilcoxon_unchanged(self, n, exact, want):
        rng = np.random.default_rng(n)
        a = rng.integers(50, 100, n).astype(np.float64)
        b = a - rng.integers(1, 6, n) * rng.choice([-1, 1], n)  # tied, never zero
        result = stats.wilcoxon_signed_rank(a, b)
        assert (result.n, result.exact) == (n, exact)
        assert digest([result.w_stat, result.p_value]) == want
