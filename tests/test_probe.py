import dataclasses
import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import glyph_masks, make_benchmark_dataset
from mdenc import encoders, probe, read_json, scaling, write_json
from mdenc._doc import from_doc, to_doc
from mdenc.data import CVPlan, Dataset, generate_synthetic, make_cv_plan
from mdenc.errors import FitError, MetricError, ParameterError, ShapeError, StateError
from mdenc.probe import EVAL_KINDS, EvalReport, balanced_accuracy, knn1_tabular, run_cv_eval


def stack(arrays):
    return np.asarray(arrays, dtype=np.uint8)


def exact_pixels(stack):
    """The exact pixel probe's pruning rule on a whole uint8 matrix of one
    image per row: drop the pixels that hold one value in every row, divide
    the rest by their gcd ``g`` and pick the dtype in which every
    intermediate is an exact integer: float32 if ``2 * top**2 * pixels <=
    2**24`` (``top`` the largest value left, ``pixels`` kept), else float64.
    ``g`` is the gcd ``g0`` of the kept columns' extremes when every kept
    value is a multiple of it, checked 8 rows at a time, and the gcd of all
    kept values otherwise. Returns the pruned matrix and the dtype."""
    lo = stack.min(axis=0, initial=255)
    hi = stack.max(axis=0, initial=0)
    varying = np.flatnonzero(lo != hi)
    kept = np.take(stack, varying, axis=1)
    g = int(np.gcd.reduce(np.gcd(lo[varying], hi[varying]))) or 1
    blocks = (kept[start:start + 8] for start in range(0, len(kept), 8))
    if g > 1 and any((block - block // g * g).any() for block in blocks):
        g = int(np.gcd.reduce(kept, axis=None))
    top = int(hi[varying].max(initial=0)) // g
    dtype = np.float32 if 2 * top * top * len(varying) <= 2**24 else np.float64
    return np.floor_divide(kept, g, out=kept), dtype


def oracle_pixel_distances(pixels, split, prune=exact_pixels):
    """Oracle for ``_pixel_distances``: ``prune`` the whole matrix, cast
    both sides whole, one ``_sq_distances``."""
    kept, dtype = prune(pixels)
    sides = np.split(kept, [] if split is None else [split])
    return probe._sq_distances(*(side.astype(dtype) for side in sides))


def drawn_distances(model, X, split):
    """``_pixel_distances`` of the rows of ``X`` as ``model`` draws them."""
    return probe._pixel_distances(encoders.encode_batch(model, X).reshape(len(X), -1), split)


def exact_pixel_probe(train_images, train_labels, test_images):
    """``run_cv_eval``'s pixel probe on two uint8 ``(N, H, W)`` stacks: the
    tested rows, then the training rows, as one matrix through
    ``_pixel_distances``, then the nearest label."""
    pixels = np.concatenate(
        [s.reshape(len(s), math.prod(s.shape[1:])) for s in (test_images, train_images)])
    return probe._nearest_label(probe._pixel_distances(pixels, len(test_images)), train_labels)


def reference_pixel_probe(train_images, train_labels, test_images):
    """Oracle for the exact pixel probe: the float64 probe over every pixel,
    all queries in one matmul."""
    train_images = np.asarray(train_images)
    test_images = np.asarray(test_images)
    pixels = train_images.shape[1] * train_images.shape[2]
    refs = train_images.reshape(-1, pixels).astype(np.float64)
    queries = test_images.reshape(-1, pixels).astype(np.float64)
    return probe._nearest_label(probe._sq_distances(queries, refs), train_labels)


def reference_fold_predictions(ds, kind, plan, **options):
    """Oracle for ``run_cv_eval``'s image kinds: per split, fit on the
    training fold, encode the training and the test fold, and classify the
    test fold with ``reference_pixel_probe``."""
    predictions = []
    for _, _, train_idx, test_idx in plan.iter_splits():
        ds_train = ds.subset(train_idx)
        model = encoders.fit(kind, ds_train, **options)
        y_pred = reference_pixel_probe(encoders.encode_batch(model, ds_train.X), ds_train.y,
                                       encoders.encode_batch(model, ds.X[test_idx]))
        predictions.append(tuple(int(v) for v in y_pred))
    return tuple(predictions)


# pixel alphabets: the binarized encoders, values sharing the factor 3,
# and igtd's full grayscale range
ALPHABETS = {"binary": np.array([0, 255]), "gcd3": np.arange(0, 256, 3),
             "full": np.arange(256)}


def near_tie_stacks(step, pixels):
    """Two references at squared distances 2 and 1 (in units of ``step``)
    from an all-255 query, then an all-0 reference, so every pixel varies.
    Where float32 rounding is inexact the two distances round to the same
    value and the tie goes to the farther reference at index 0."""
    query = np.full(pixels, 255)
    farther, nearer = query.copy(), query.copy()
    farther[:2] -= step
    nearer[0] -= step
    refs = stack([farther, nearer, np.zeros(pixels)]).reshape(3, 1, pixels)
    return refs, stack([query]).reshape(1, 1, pixels)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_one_class_predictor_balanced(self):
        assert balanced_accuracy([0, 0, 1, 1], [0, 0, 0, 0]) == 0.5

    def test_one_class_predictor_imbalanced(self):
        # recalls 1.0 and 0.0 average to 0.5 regardless of support
        assert balanced_accuracy([0, 0, 0, 1], [0, 0, 0, 0]) == 0.5

    def test_constant_predictor_is_chance(self):
        rng = np.random.default_rng(0)
        for n_classes in (2, 3, 5):
            y = np.repeat(np.arange(n_classes), 7)
            rng.shuffle(y)
            assert balanced_accuracy(y, np.zeros_like(y)) == pytest.approx(1 / n_classes)

    def test_errors(self):
        with pytest.raises(MetricError):
            balanced_accuracy([], [])
        with pytest.raises(MetricError):
            balanced_accuracy([0, 1], [0])


class TestKnnPixel:
    def test_exact_copy_wins(self):
        rng = np.random.default_rng(1)
        train = stack(rng.integers(0, 256, size=(4, 8, 8)))
        labels = np.array([0, 1, 2, 3])
        pred = exact_pixel_probe(train, labels, train[2:3])
        assert pred.tolist() == [2]

    def test_one_image_per_class(self):
        a = np.zeros((8, 8)); a[0, 0] = 255
        b = np.zeros((8, 8)); b[7, 7] = 255
        train = stack([a, b])
        test = stack([b.copy()])
        assert exact_pixel_probe(train, [0, 1], test).tolist() == [1]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            train_arrays = rng.integers(0, 256, size=(3, 8, 8))
            test_arrays = rng.integers(0, 256, size=(2, 8, 8))
            labels = rng.integers(0, 3, size=3)
            pred = exact_pixel_probe(stack(train_arrays), labels, stack(test_arrays))
            for t, got in zip(test_arrays, pred):
                dists = [((t.astype(float) - tr.astype(float)) ** 2).sum()
                         for tr in train_arrays]
                assert got == labels[int(np.argmin(dists))]

    def test_tie_breaks_to_lowest_index(self):
        img = np.full((4, 4), 7)
        train = stack([img, img.copy()])
        pred = exact_pixel_probe(train, [5, 9], stack([img.copy()]))
        assert pred.tolist() == [5]

    def test_empty_training_set(self):
        with pytest.raises(MetricError, match="empty training set"):
            probe._nearest_label(np.zeros((1, 0)), [])

    @settings(max_examples=300, deadline=None)
    @given(alphabet=st.sampled_from(sorted(ALPHABETS)), n_ref=st.integers(1, 10),
           n_query=st.integers(0, 10), height=st.integers(1, 40), width=st.integers(1, 40),
           constant_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
           duplicates=st.integers(0, 4), all_zero=st.booleans(),
           data_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, alphabet, n_ref, n_query, height, width,
                               constant_share, duplicates, all_zero, data_seed):
        rng = np.random.default_rng(data_seed)
        values = ALPHABETS[alphabet]
        images = rng.choice(values, size=(n_ref + n_query, height * width))
        constant = rng.random(height * width) < constant_share
        images[:, constant] = rng.choice(values, size=int(constant.sum()))
        for _ in range(duplicates):
            # a reference repeated later (a tie), or a query that is a reference
            source, target = rng.integers(0, n_ref), rng.integers(0, n_ref + n_query)
            images[target] = images[source]
        if all_zero:
            images[:] = 0
        images = stack(images).reshape(-1, height, width)
        train, test = images[:n_ref], images[n_ref:]
        # one label per reference index, so every tie break shows
        labels = np.arange(n_ref)
        got = exact_pixel_probe(train, labels, test)
        assert np.array_equal(got, reference_pixel_probe(train, labels, test))

    @pytest.mark.parametrize("step, pixels, dtype", [
        (1, 129, np.float32), (1, 130, np.float64),
        (3, 1161, np.float32), (3, 1162, np.float64)])
    def test_near_tie_at_float32_bound(self, step, pixels, dtype):
        # after dividing by the gcd ``step`` the largest value is 255 // step:
        # 2 * 255**2 * 129 and 2 * 85**2 * 1161 are the last sums <= 2**24
        train, test = near_tie_stacks(step, pixels)
        assert exact_pixel_probe(train, [0, 1, 2], test).tolist() == [1]
        pixels = np.concatenate([test, train]).reshape(4, -1)
        assert probe._pixel_distances(pixels, 1).dtype == dtype


def gcd_pruning_oracle(stack_2d):
    """``exact_pixels`` with the gcd of every kept value: the varying
    columns divided by their full ``np.gcd.reduce``, and the dtype rule."""
    varying = np.flatnonzero(stack_2d.min(axis=0) != stack_2d.max(axis=0))
    kept = stack_2d[:, varying]
    g = int(np.gcd.reduce(kept, axis=None)) or 1
    top = int(kept.max(initial=0)) // g
    return kept // g, np.float32 if 2 * top * top * len(varying) <= 2**24 else np.float64


def extremes_overstate_the_gcd():
    # the extremes of both varying columns are multiples of 9, but one value
    # is 6, so the gcd of every value is 3
    column = np.tile([9, 0], 10)
    column[13] = 6
    return stack(np.column_stack([column, np.tile([18, 9], 10), np.full(20, 10)]))


def varied_stack(alphabet, n_rows, kept, constant, planted, seed):
    """``n_rows`` images of ``kept`` varying and ``constant`` constant
    pixels, interleaved at random, with values from ``alphabet``. With
    ``planted``, the last varying pixel holds 0, 255 and 6 in its first three
    rows: where the extremes' gcd is 255, only the gcd of every value finds
    that it is 3."""
    rng = np.random.default_rng(seed)
    values = ALPHABETS[alphabet]
    pixels = rng.choice(values, size=(n_rows, kept + constant))
    is_constant = rng.permutation(kept + constant) < constant
    pixels[:, is_constant] = pixels[0, is_constant]
    varying = np.flatnonzero(~is_constant)
    # a column whose first two rows are equal varies in its second row
    same = varying[pixels[0, varying] == pixels[1, varying]]
    pixels[1, same] = np.where(pixels[0, same] == values[0], values[-1], values[0])
    if planted and kept:
        pixels[:3, varying[-1]] = [0, 255, 6]
    return stack(pixels)


class TestExactPixels:
    """``_pixel_distances``, which gathers, casts and sums the kept pixels
    in blocks of 2,048, against the whole-matrix chain it replaced."""

    @pytest.mark.parametrize("pixels", [
        extremes_overstate_the_gcd(),
        stack(np.full((12, 5), 7)),
        *(stack(np.random.default_rng(seed).choice(values, size=(20, 30)))
          for seed, values in enumerate(ALPHABETS.values())),
    ], ids=["extremes-overstate-gcd", "constant", *ALPHABETS])
    def test_matches_full_gcd_oracle(self, pixels):
        for split in (None, len(pixels) // 3):
            want = oracle_pixel_distances(pixels, split, prune=gcd_pruning_oracle)
            got = probe._pixel_distances(pixels, split)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(alphabet=st.sampled_from(sorted(ALPHABETS)), n_rows=st.integers(3, 6),
           kept=st.sampled_from([1, 129, 130, 2047, 2048, 2049, 4096]) | st.integers(0, 4200),
           constant=st.integers(0, 200), planted=st.booleans(),
           split=st.none() | st.integers(0, 6), data_seed=st.integers(0, 2**32 - 1))
    # float64 (the full alphabet past 129 kept pixels) in exactly one block
    @example(alphabet="full", n_rows=3, kept=2048, constant=7, planted=False, split=None,
             data_seed=0)
    # the gcd fallback found in the second of two full blocks; no tested row
    @example(alphabet="binary", n_rows=4, kept=4096, constant=50, planted=True, split=0,
             data_seed=1)
    # float32, one pixel past a block
    @example(alphabet="binary", n_rows=5, kept=2049, constant=0, planted=False, split=2,
             data_seed=2)
    def test_blocks_match_the_oracle_chain(self, alphabet, n_rows, kept, constant, planted,
                                           split, data_seed):
        pixels = varied_stack(alphabet, n_rows, kept, constant, planted, data_seed)
        split = None if split is None else min(split, n_rows)
        want = oracle_pixel_distances(pixels, split)
        got = probe._pixel_distances(pixels, split)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pixels", [
        varied_stack("binary", 5, 3000, 20, False, 0),
        extremes_overstate_the_gcd(),
        varied_stack("binary", 4, 4096, 50, True, 1),
    ], ids=["g0", "full-gcd-restart", "restart-in-second-block"])
    def test_pixels_left_unchanged(self, pixels):
        # the blocks are divided in copies: a read-only matrix is accepted
        # and reads back as it was, on the g0 path and after a restart
        drawn = pixels.copy()
        pixels.setflags(write=False)
        for split in (None, 2):
            probe._pixel_distances(pixels, split)
            assert np.array_equal(pixels, drawn)

    def test_group_peaks_within_the_stack_and_one_block(self):
        # one sonar-shaped retire group at 224x224: 208 rows, tested then
        # training, keep about 28,700 of 50,176 pixels. The whole-matrix chain
        # held the kept copy and float32 casts of both sides (28.7 MiB).
        ds = generate_synthetic(208, 60, seed=0)
        _, _, train_idx, test_idx = next(make_cv_plan(ds, seed=0).iter_splits())
        model = encoders.fit("retire", ds.subset(train_idx), size=(224, 224))
        X = ds.X[np.concatenate([test_idx, train_idx])]
        tracemalloc.start()
        try:
            distances = drawn_distances(model, X, len(test_idx))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = len(X) * 224 * 224
        block = len(X) * 2048 * (1 + 4)  # one block's uint8 gather and float32 cast
        # the distances are the accumulator and one block's product; the
        # margin holds the per-pixel extremes and mask and the kept-pixel
        # index (peak measured 0.33 MiB above the rest)
        assert distances.dtype == np.float32
        assert peak < stack_bytes + 2 * distances.nbytes + block + 2**19


class TestSqDistances:
    @settings(max_examples=50, deadline=None)
    @given(n_query=st.integers(0, 12), n_ref=st.integers(1, 12), width=st.integers(1, 9),
           data_seed=st.integers(0, 2**32 - 1))
    def test_operation_order_kept(self, n_query, n_ref, width, data_seed):
        # knn1_tabular's non-integer float64 distances stay bit-identical
        # to the one-expression form
        rng = np.random.default_rng(data_seed)
        queries = rng.normal(size=(n_query, width))
        refs = rng.normal(size=(n_ref, width))
        q2 = np.einsum("ij,ij->i", queries, queries)
        r2 = np.einsum("ij,ij->i", refs, refs)
        expected = q2[:, None] + r2[None, :] - 2.0 * (queries @ refs.T)
        assert np.array_equal(probe._sq_distances(queries, refs), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_among_themselves(self, dtype):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, size=(30, 200)).astype(dtype)
        got = probe._sq_distances(rows)
        expected = ((rows[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(got, probe._sq_distances(rows, rows.copy()))


# any text the font can draw, 1 to 10 glyphs long, and format_value's texts
# (up to 11 glyphs, such as the scientific 1.235e-5 and -1.235e-10)
stml_texts = (st.text(alphabet=sorted(glyph_masks()), min_size=1, max_size=10)
              | st.floats(allow_nan=False, allow_infinity=False).map(encoders.format_value))


def stml_model(n_features, size):
    ds = Dataset("t", np.zeros((2, n_features)), [0, 1],
                 tuple(f"f{i}" for i in range(n_features)), ("0", "1"))
    return encoders.fit_stml(ds, size)


class TestStampDistances:
    """``_stamp_distances`` against the pixel path it replaces for stml."""

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(stml_texts, min_size=1, max_size=40), n_rows=st.integers(1, 10),
           n_features=st.integers(1, 20), cell=st.tuples(st.integers(5, 40), st.integers(7, 30)),
           extra=st.tuples(st.integers(0, 9), st.integers(0, 9)),
           split=st.none() | st.integers(0, 10), equal_rows=st.booleans(),
           data_seed=st.integers(0, 2**32 - 1))
    def test_matches_pixel_oracle(self, texts, n_rows, n_features, cell, extra, split,
                                  equal_rows, data_seed):
        # cells as tight as the canvas check allows, and uneven: the last
        # column and row of cells absorb the remainder; a text longer than
        # its cell is clipped. Row values index the texts.
        model = stml_model(n_features, (4096, 4096))
        rows, cols = model.layout.rows, model.layout.cols
        size = (cols * cell[0] + extra[0] % cols, rows * cell[1] + extra[1] % rows)
        model = dataclasses.replace(model, canvas_size=size)
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, len(texts), size=(n_rows, n_features)).astype(np.float64)
        if equal_rows:
            X[:] = X[0]
        split = None if split is None else min(split, n_rows)
        with mock.patch.object(encoders, "format_value", lambda v: texts[int(v)]):
            got = probe._stamp_distances(model, X, split)
            want = drawn_distances(model, X, split)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_rows, n_features, size, scale", [
        (12, 7, (50, 37), 1.0),        # uneven cells
        (12, 7, (50, 37), 1e-5),       # scientific texts, such as 1.235e-5
        (10, 60, (64, 64), 1.0),       # 8x8 cells: every text clipped
        (10, 1, (224, 224), 1.0),      # a single feature
        (10, 4, (224, 224), 1e7),
    ])
    def test_matches_pixel_oracle_on_values(self, n_rows, n_features, size, scale):
        X = generate_synthetic(n_rows, n_features, seed=n_features).X * scale
        model = stml_model(n_features, size)
        for split in (None, 0, n_rows // 3, n_rows):
            got = probe._stamp_distances(model, X, split)
            assert np.array_equal(got, drawn_distances(model, X, split))
        # all rows equal: every distance is 0
        assert not probe._stamp_distances(model, X[[0] * 5], None).any()

    @pytest.mark.parametrize("size, dtype", [((2896, 2896), np.float32),
                                             ((2897, 2896), np.float64)])
    def test_float32_only_within_the_bound(self, size, dtype):
        # 2 * W * H <= 2**24 holds at 2896 x 2896 and fails one column wider
        X = generate_synthetic(4, 100, seed=1).X
        model = stml_model(100, size)
        got = probe._stamp_distances(model, X, None)
        assert got.dtype == dtype
        assert np.array_equal(got, drawn_distances(model, X, None))

    def test_eval_allocates_far_less_than_the_pixel_stack(self):
        # the pixel path drew a 600 x 224 x 224 uint8 stack (28.7 MiB) and
        # cast its kept pixels; the stamp path draws stamps of one cell each
        ds = generate_synthetic(600, 4, seed=1)
        plan = make_cv_plan(ds, seed=1)
        tracemalloc.start()
        try:
            run_cv_eval(ds, "stml", plan, size=(224, 224))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 600 * 224 * 224 / 2

    def test_feature_blocks_bound_the_factors(self):
        # 60 features at 224x224: 28x28 cells of one shape and 219 stamps, so
        # 7 blocks of at most 9 features; a Φ of all 60 features at once would
        # be 200 x 60 x 219 float32 (10.5 MB), and its Ψ as much again
        n, n_features = 200, 60
        X = generate_synthetic(n, n_features, seed=3).X
        model = stml_model(n_features, (224, 224))
        keys = X.size * encoders.stml_codes(X).shape[2] * 4  # int32 per (row, feature, position)
        probe._stamp_distances(model, X[:2], None)  # what a first call imports is not traced
        tracemalloc.start()
        try:
            probe._stamp_distances(model, X, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block's Φ and Ψ, the distances and one block's product, the
        # keys, a gathered copy of them and the stamp indices, and 1 MiB: a
        # block's Ψ (1.6 MB) still alive when the next block's is formed
        # does not fit
        assert peak < 2 * n * 2048 * 4 + 2 * n * n * 4 + 3 * keys + 2**20


class TestKnnTabular:
    def test_training_row_maps_to_itself(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        scaler = scaling.fit(X)
        pred = knn1_tabular(X, [0, 1, 2], X[[1]], scaler)
        assert pred.tolist() == [1]

    def test_nearer_row_wins_in_scaled_space(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        scaler = scaling.fit(X)
        assert knn1_tabular(X, [0, 1], np.array([[2.0, 2.0]]), scaler).tolist() == [0]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        X_train = rng.normal(size=(20, 4))
        y_train = rng.integers(0, 3, size=20)
        X_test = rng.normal(size=(10, 4))
        scaler = scaling.fit(X_train)
        pred = knn1_tabular(X_train, y_train, X_test, scaler)
        st = scaling.transform(scaler, X_train)
        se = scaling.transform(scaler, X_test)
        for q, got in zip(se, pred):
            dists = ((st - q) ** 2).sum(axis=1)
            assert got == y_train[int(np.argmin(dists))]

    def test_rows_that_are_not_numbers_raise_shape_error(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        scaler = scaling.fit(X)
        with pytest.raises(ShapeError):
            knn1_tabular(X, [0, 1], [["a", "b"]], scaler)
        with pytest.raises(ShapeError):
            knn1_tabular([[0.0, 0.0], [1.0]], [0, 1], X, scaler)

    def test_self_prediction_is_perfect(self):
        ds = generate_synthetic(30, 3, seed=5)
        scaler = scaling.fit(ds.X)
        pred = knn1_tabular(ds.X, ds.y, ds.X, scaler)
        assert balanced_accuracy(ds.y, pred) == 1.0

    @staticmethod
    def tie_heavy(n_rows=300, seed=11):
        """Rows of 5 integer levels 0..4 over 6 features, each level present
        in every column of the even (training) rows, and 3 labels."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(n_rows, 6)).astype(np.float64)
        X[:2] = [[0.0] * 6, [4.0] * 6]
        return X, rng.integers(0, 3, size=n_rows)

    def test_tie_heavy_predictions_pinned(self):
        # with bounds [0, 1] the scaled values are quarters, so every distance
        # is exact in any summation order and many tie: each tie goes to the
        # lowest training index. Digest recorded with the probe that held
        # the whole distance matrix
        X, y = self.tie_heavy()
        train, test = np.arange(0, 300, 2), np.arange(1, 300, 2)
        pred = knn1_tabular(X[train], y[train], X[test], scaling.fit(X[train], 0.0, 1.0))
        assert hashlib.sha256(pred.astype(np.int64).tobytes()).hexdigest() == (
            "d4490f4b40b95edf4bef0e1c78fa1101fbc5e1a1661eed7204d8fa57cb86cafb")
        quarters = X / 4.0
        distances = ((quarters[test, None] - quarters[None, train]) ** 2).sum(axis=2)
        tied = (distances == distances.min(axis=1, keepdims=True)).sum(axis=1)
        assert (tied > 1).sum() == 47  # of 150 queries
        assert pred.tolist() == y[train][distances.argmin(axis=1)].tolist()

    @pytest.mark.parametrize("n_test", [0, 1, 63, 64, 65, 129, 150])
    def test_blocks_give_the_bytes_of_one_distance_matrix(self, n_test):
        # at the default bounds the scaled values are inexact: the 64-query
        # blocks must form the same float64 expressions as _sq_distances
        X, y = self.tie_heavy(450, seed=n_test)
        train, test = np.arange(0, 300, 2), 1 + 2 * np.arange(n_test)
        scaler = scaling.fit(X[train])
        want = probe._nearest_label(probe._sq_distances(
            scaling.transform(scaler, X[test]), scaling.transform(scaler, X[train])), y[train])
        got = knn1_tabular(X[train], y[train], X[test], scaler)
        assert got.tolist() == want.tolist()

    def test_label_checks_run_without_queries(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        scaler = scaling.fit(X)
        with pytest.raises(ShapeError):
            knn1_tabular(X, [0], np.zeros((0, 2)), scaler)
        assert knn1_tabular(X, [0, 1], np.zeros((0, 2)), scaler).shape == (0,)


class TestRunCvEval:
    def small_ds(self):
        return generate_synthetic(24, 3, seed=2)

    def test_shapes_and_order(self):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        report = run_cv_eval(ds, "retire", plan, size=(32, 32))
        assert len(report.per_split_bac) == 10
        assert report.mean_bac == pytest.approx(float(np.mean(report.per_split_bac)))
        assert len(report.fold_predictions) == 10
        for (r, f, _, test_idx), preds in zip(plan.iter_splits(), report.fold_predictions):
            assert len(preds) == len(test_idx)

    def test_deterministic(self):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        a = run_cv_eval(ds, "retire", plan, size=(32, 32))
        b = run_cv_eval(ds, "retire", plan, size=(32, 32))
        assert a == b

    def test_tabular_dispatch(self):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=1)
        report = run_cv_eval(ds, "tabular", plan)
        assert report.encoder == "tabular"
        assert all(0.0 <= v <= 1.0 for v in report.per_split_bac)

    def test_unknown_encoder(self):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        with pytest.raises(ParameterError):
            run_cv_eval(ds, "forest", plan)

    @pytest.mark.parametrize("kind", EVAL_KINDS)
    def test_jobs_below_one_rejected_before_any_fit(self, kind, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the jobs check")

        monkeypatch.setattr(encoders, "fit", no_fit)
        monkeypatch.setattr(scaling, "fit", no_fit)
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        # encoding is serial: the keyword stays for callers passing jobs=1
        for jobs in (0, 2):
            with pytest.raises(ParameterError, match="jobs must be 1"):
                run_cv_eval(ds, kind, plan, jobs=jobs)

    @pytest.mark.parametrize("kind", EVAL_KINDS)
    def test_plan_that_is_not_a_cv_plan_rejected_before_any_fit(self, kind, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the plan check")

        monkeypatch.setattr(encoders, "fit", no_fit)
        monkeypatch.setattr(scaling, "fit", no_fit)
        ds = self.small_ds()
        splits = list(make_cv_plan(ds, seed=0).iter_splits())
        for plan in (None, splits):
            with pytest.raises(ParameterError, match="plan must be a CVPlan"):
                run_cv_eval(ds, kind, plan)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(encoders.KINDS), n=st.integers(6, 16),
           n_features=st.integers(2, 6), three_folds=st.booleans(),
           duplicates=st.integers(0, 4), data_seed=st.integers(0, 2**16))
    def test_matches_per_split_oracle(self, kind, n, n_features, three_folds, duplicates,
                                      data_seed):
        ds = generate_synthetic(n, n_features, seed=data_seed)
        rng = np.random.default_rng(data_seed)
        X = ds.X.copy()
        for _ in range(duplicates):
            # an exact copy of another row, maybe of the other class: a tie
            X[rng.integers(0, n)] = X[rng.integers(0, n)]
        ds = Dataset(ds.name, X, ds.y, ds.feature_names, ds.class_names)
        if three_folds:
            plan = CVPlan(1, 3, 0, [rng.permutation(np.arange(n) % 3)])
        else:
            plan = make_cv_plan(ds, seed=data_seed)
        options = {"size": (48, 48), "igtd_max_iters": 3}
        report = run_cv_eval(ds, kind, plan, **options)
        assert report.fold_predictions == reference_fold_predictions(ds, kind, plan, **options)

    def test_igtd_predictions_blind_to_the_assignment(self):
        # an igtd image puts one value per feature into one cell, so every
        # feature-to-cell bijection gives the same pixel distances: a search
        # cut at one scan predicts what the full search does
        ds = generate_synthetic(80, 20, seed=3)
        plan = make_cv_plan(ds, seed=3)
        train_idx = next(plan.iter_splits())[2]
        cut, full = (encoders.fit("igtd", ds.subset(train_idx), igtd_max_iters=iters).layout
                     for iters in (1, encoders.DEFAULT_IGTD_MAX_ITERS))
        assert not np.array_equal(cut.assignment, full.assignment)
        assert (run_cv_eval(ds, "igtd", plan, igtd_max_iters=1).fold_predictions
                == run_cv_eval(ds, "igtd", plan).fold_predictions)

    def test_igtd_eval_runs_no_search(self, monkeypatch):
        # the probe cannot see an assignment, so the eval searches none
        def no_search(*args, **kwargs):
            raise AssertionError("the igtd eval ran a search")

        ds = generate_synthetic(40, 7, seed=5)
        plan = make_cv_plan(ds, seed=5)
        monkeypatch.setattr(encoders, "fit_igtd", no_search)
        monkeypatch.setattr(encoders, "_swap_descent", no_search)
        report = run_cv_eval(ds, "igtd", plan)
        monkeypatch.undo()
        assert report.fold_predictions == reference_fold_predictions(ds, "igtd", plan)

    @pytest.mark.parametrize("iters", [0, -1, True, 2.5])
    def test_igtd_eval_checks_max_iters_as_a_fit_does(self, iters):
        ds = self.small_ds()
        with pytest.raises(ParameterError, match="max_iters"):
            encoders.fit("igtd", ds, igtd_max_iters=iters)
        with pytest.raises(ParameterError, match="max_iters"):
            run_cv_eval(ds, "igtd", make_cv_plan(ds, seed=0), igtd_max_iters=iters)

    def test_igtd_eval_needs_two_features_as_a_fit_does(self):
        ds = generate_synthetic(24, 1, seed=2)
        with pytest.raises(FitError, match="at least 2 features"):
            encoders.fit("igtd", ds)
        # the feature count is checked before max_iters, as in the fit
        for iters in (encoders.DEFAULT_IGTD_MAX_ITERS, 0):
            with pytest.raises(FitError, match="at least 2 features"):
                run_cv_eval(ds, "igtd", make_cv_plan(ds, seed=0), igtd_max_iters=iters)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 30), n_features=st.integers(2, 40), levels=st.integers(0, 4),
           data_seed=st.integers(0, 2**16))
    @example(n=8, n_features=150, levels=0, data_seed=0)  # past the float32 bound
    def test_igtd_values_give_the_drawn_distances(self, n, n_features, levels, data_seed):
        # an igtd image holds its row's igtd_values in permuted cells, plus
        # cells that are 0 in every row: the same distances, byte for byte
        ds = generate_synthetic(n, n_features, seed=data_seed)
        X = ds.X if not levels else np.random.default_rng(data_seed).integers(
            0, levels, size=ds.X.shape).astype(float)  # tie-heavy
        model = encoders.fit("igtd", ds, igtd_max_iters=5)
        split = n // 2
        drawn = drawn_distances(model, X, split)
        values = probe._pixel_distances(encoders.igtd_values(model.scaler, X), split)
        assert drawn.dtype == values.dtype and drawn.tobytes() == values.tobytes()

    @pytest.mark.parametrize("kind, matrices", [("stml", 1), ("retire", 10), ("igtd", 10)])
    def test_one_encode_and_distance_matrix_per_fitted_model(self, kind, matrices,
                                                            monkeypatch):
        # every stml split fits an equal model, so the ten splits share one
        # stamp Gram of all rows among themselves and draw no row; retire
        # models differ, so each split encodes its tested and training rows
        # once and sums one pixel matrix of the first against the second;
        # igtd scalers differ too, and each split sums one matrix of its
        # rows' values, one per feature, with no row encoded
        encoded, pixel, stamped = [], [], []
        encode_batch, pixel_distances = encoders.encode_batch, probe._pixel_distances
        stamp_distances = probe._stamp_distances

        def counted_encode(model, X, *, out=None):
            encoded.append(len(X))
            return encode_batch(model, X, out=out)

        def counted_pixels(pixels, split):
            pixel.append((pixels.shape, split))
            return pixel_distances(pixels, split)

        def counted_stamps(model, X, split):
            stamped.append((len(X), split))
            return stamp_distances(model, X, split)

        monkeypatch.setattr(encoders, "encode_batch", counted_encode)
        monkeypatch.setattr(probe, "_pixel_distances", counted_pixels)
        monkeypatch.setattr(probe, "_stamp_distances", counted_stamps)
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        run_cv_eval(ds, kind, plan, size=(48, 48))
        if kind == "stml":
            assert (encoded, pixel) == ([], [])
            assert stamped == [(ds.n_instances, None)] * matrices
        else:
            assert encoded == ([ds.n_instances] * matrices if kind == "retire" else [])
            assert stamped == []
            width = 48 * 48 if kind == "retire" else ds.n_features
            assert pixel == [((ds.n_instances, width), len(test_idx))
                             for *_, test_idx in plan.iter_splits()]

    @pytest.mark.parametrize("kind", EVAL_KINDS)
    def test_one_stack_per_eval(self, kind, monkeypatch):
        # the eval draws every retire group into the one stack it holds, and
        # the probe measures that stack. A tracemalloc peak cannot show this:
        # a stack per group, each freed before the next is allocated, peaks
        # at the same size. Each stack is kept here, so a new one could not
        # reuse a freed address. igtd measures its values with no stack
        stacks, measured = [], []
        encode_batch, pixel_distances = encoders.encode_batch, probe._pixel_distances

        def recorded_encode(model, X, *, out=None):
            stacks.append(out)
            return encode_batch(model, X, out=out)

        def recorded_pixels(pixels, split):
            measured.append(pixels)
            return pixel_distances(pixels, split)

        monkeypatch.setattr(encoders, "encode_batch", recorded_encode)
        monkeypatch.setattr(probe, "_pixel_distances", recorded_pixels)
        ds = self.small_ds()
        run_cv_eval(ds, kind, make_cv_plan(ds, seed=0), size=(48, 48), igtd_max_iters=3)
        if kind == "retire":
            assert len(stacks) == 10 and all(isinstance(out, np.ndarray) for out in stacks)
            addresses = {a.__array_interface__["data"][0] for a in stacks + measured}
            assert len(addresses) == 1 and len(measured) == 10
        elif kind == "igtd":  # no stack drawn, none allocated: one value per feature
            assert stacks == []
            assert [pixels.shape for pixels in measured] == [(ds.n_instances, ds.n_features)] * 10
        else:  # no stack drawn, none allocated
            assert stacks == measured == []

    @staticmethod
    def twin_splits():
        """Rows 0 and 1 are equal, and repeats 1 and 2 swap their folds, so
        each of their splits trains on the same matrix as its twin: the
        twins form one group of 14 rows, after the two 12-row groups of
        repeat 0 and before the two of repeat 3."""
        ds = generate_synthetic(12, 5, seed=4)
        X, y = ds.X.copy(), ds.y.copy()
        X[1], y[1] = X[0], y[0]
        ds = Dataset(ds.name, X, y, ds.feature_names, ds.class_names)
        swapped = np.array([0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1])
        plan = CVPlan(4, 2, 0, [np.arange(12) % 2, swapped, swapped[[1, 0, *range(2, 12)]],
                                np.arange(12) // 6])
        return ds, plan

    def test_stack_is_replaced_only_for_more_rows_and_stays_as_drawn(self, monkeypatch):
        ds, plan = self.twin_splits()
        stacks = []
        encode_batch, pixel_distances = encoders.encode_batch, probe._pixel_distances

        def recorded_encode(model, X, *, out=None):
            stacks.append(out)
            return encode_batch(model, X, out=out)

        def unchanged_pixels(pixels, split):
            drawn = pixels.copy()
            distances = pixel_distances(pixels, split)
            assert np.array_equal(pixels, drawn)
            return distances

        monkeypatch.setattr(encoders, "encode_batch", recorded_encode)
        monkeypatch.setattr(probe, "_pixel_distances", unchanged_pixels)
        report = run_cv_eval(ds, "retire", plan, size=(40, 40))
        assert [len(out) for out in stacks] == [12, 12, 14, 14, 12, 12]
        assert [out.base for out in stacks[1:2]] == [stacks[0].base]
        assert all(out.base is stacks[2].base for out in stacks[3:])
        assert stacks[0].base.shape == (12, 40, 40) and stacks[2].base.shape == (14, 40, 40)
        monkeypatch.undo()
        assert report.fold_predictions == reference_fold_predictions(ds, "retire", plan,
                                                                     size=(40, 40))

    def test_igtd_splits_with_one_scaler_share_one_matrix(self, monkeypatch):
        # twin splits fit equal scalers, so each pair shares one matrix of
        # its 14 rows' values
        ds, plan = self.twin_splits()
        measured = []
        pixel_distances = probe._pixel_distances

        def recorded_pixels(pixels, split):
            measured.append(pixels.shape)
            return pixel_distances(pixels, split)

        monkeypatch.setattr(probe, "_pixel_distances", recorded_pixels)
        report = run_cv_eval(ds, "igtd", plan)
        assert measured == [(rows, 5) for rows in (12, 12, 14, 14, 12, 12)]
        monkeypatch.undo()
        assert report.fold_predictions == reference_fold_predictions(ds, "igtd", plan)

    @pytest.mark.parametrize("folds", [2, 3])
    def test_complementary_splits_read_one_block(self, folds, monkeypatch):
        # tie-heavy texts on hand-built plans. With 2 folds a repeat's two
        # splits swap their folds, so the second reads the transpose of the
        # first one's block; with 3 no split's folds are another's swapped.
        # Either way the labels are those of each split's own block taken
        # from the matrix
        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        ds = Dataset("ties", X, np.arange(40) // 2 % 2, ("a", "b", "c"), ("0", "1"))
        fold = np.arange(40) % folds
        plan = CVPlan(3, folds, 0, [fold, np.arange(40) * folds // 40, rng.permutation(fold)])
        blocks = []
        nearest_label = probe._nearest_label

        def recorded(distances, labels):
            blocks.append(distances)
            return nearest_label(distances, labels)

        monkeypatch.setattr(probe, "_nearest_label", recorded)
        report = run_cv_eval(ds, "stml", plan, size=(64, 48))
        monkeypatch.undo()
        # which earlier block each split's block is a view of, if any
        shared = [[j for j in range(i) if np.shares_memory(blocks[i], blocks[j])]
                  for i in range(len(blocks))]
        if folds == 2:
            assert shared == [[], [0], [], [2], [], [4]]
            assert all((blocks[i] == blocks[i - 1].T).all() for i in (1, 3, 5))
        else:
            assert shared == [[]] * 9
        distances = probe._stamp_distances(encoders.fit_stml(ds, (64, 48)), ds.X, None)
        want, tied = [], 0
        for _, _, train_idx, test_idx in plan.iter_splits():
            block = distances[np.ix_(test_idx, train_idx)]
            nearest = block == block.min(axis=1, keepdims=True)
            # rows whose tied neighbours do not all share one label
            tied += sum(len(set(ds.y[train_idx][row].tolist())) > 1 for row in nearest)
            # the lowest training index among the tied
            want.append(tuple(ds.y[train_idx][nearest.argmax(axis=1)].tolist()))
        assert tied > 20, tied  # of the 120 tested rows
        assert report.fold_predictions == tuple(want)

    @pytest.mark.parametrize("fold", [0, 1])
    @pytest.mark.parametrize("kind", EVAL_KINDS)
    def test_empty_fold_raises(self, kind, fold):
        ds = self.small_ds()
        plan = CVPlan(1, 2, 0, np.full((1, ds.n_instances), fold))
        # stml fits on no rows, so the probe finds no training row; the
        # other kinds already fail to fit their scaler
        with pytest.raises(MetricError if kind == "stml" else (FitError, MetricError)):
            run_cv_eval(ds, kind, plan, size=(48, 48), igtd_max_iters=3)

    def test_plan_dataset_mismatch(self):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        other = generate_synthetic(30, 3, seed=3)
        with pytest.raises(ShapeError):
            run_cv_eval(other, "tabular", plan)

    def test_no_test_fold_leakage(self):
        # scaler fitted per split must be bit-identical when only the
        # held-out fold's values change
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=4)
        for repeat, fold, train_idx, test_idx in plan.iter_splits():
            fingerprint = scaling.fit(ds.X[train_idx]).fit_fingerprint
            X = ds.X.copy()
            X[test_idx] *= 10.0
            perturbed = Dataset(ds.name, X, ds.y, ds.feature_names, ds.class_names)
            assert scaling.fit(perturbed.X[train_idx]).fit_fingerprint == fingerprint

    def test_report_json_round_trip(self, tmp_path):
        ds = self.small_ds()
        plan = make_cv_plan(ds, seed=0)
        report = dataclasses.replace(run_cv_eval(ds, "tabular", plan), config={"seed": 0})
        path = tmp_path / "report.json"
        write_json(path, report)
        assert read_json(path, EvalReport) == report

    @pytest.mark.parametrize("change", [
        {"mean_bac": None}, {"per_split_bac": "0.5"}, {"fold_predictions": [[0.5]]},
        {"dataset": 3}, {"config": []}, {"extra": 1}])
    def test_malformed_report_raises_state_error(self, change):
        doc = to_doc(EvalReport("d", "retire", (0.5, 0.6), 0.55, ((0, 1),), {}))
        for key, value in change.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with pytest.raises(StateError):
            from_doc(EvalReport, doc, "report")
        with pytest.raises(StateError):
            from_doc(EvalReport, [doc], "report")


# SHA-256 of repr(run_cv_eval(...).fold_predictions), recorded with the
# float64 whole-stack probe; (rows, features, keywords) per kind. The
# retire and stml stacks are 0/255 (the float32 path), and 140 igtd
# pixels of 0..255 are past the float32 bound (the float64 path).
PINNED_PREDICTION_CASES = {
    "retire": (60, 5, {"size": (48, 48)}),
    "stml": (60, 5, {"size": (64, 64)}),
    "igtd": (60, 140, {"igtd_max_iters": 3}),
}
PINNED_PREDICTION_DIGESTS = {
    ("retire", 7): "1c61b3123f17438938e794e4f3357f5e4ec8059d6ba3637a9b9c0de6440711c6",
    ("retire", 13): "84fa606de71bd98f52ae3620fdff18f072b4b729b3f92d7075acafb96a115bda",
    ("stml", 7): "d37f36ecbdd40708388d4d7b1df1d87d8677463176524c33d8fb00f1e83bf88e",
    ("stml", 13): "053664cfe59727e20d22b5d1ddb01faa4ac76df76bdee21a14c6ed55b8b2bd61",
    ("igtd", 7): "8d8a67e2f0365194b7d81d81de0f85130f88e4a41203862d3fe971280b0721b3",
    ("igtd", 13): "be7474035a17cbacb91eca4922d60ebb5694d9043a6fe80cdbb92fc5579a4fc4",
}


class TestPinnedPredictions:
    @pytest.mark.parametrize("kind, seed", sorted(PINNED_PREDICTION_DIGESTS))
    def test_fold_predictions_unchanged(self, kind, seed):
        n, n_features, options = PINNED_PREDICTION_CASES[kind]
        ds = generate_synthetic(n, n_features, seed=seed)
        report = run_cv_eval(ds, kind, make_cv_plan(ds, seed=seed), **options)
        digest = hashlib.sha256(repr(report.fold_predictions).encode()).hexdigest()
        assert digest == PINNED_PREDICTION_DIGESTS[kind, seed]


# SHA-256 of dtype.str plus the bytes of _pixel_distances, recorded with
# the probe that summed its own norms and Gram matrix: per (kind, seed),
# the first split of a 208 x 60 synthetic set, tested rows then training
# rows, at 224x224
PINNED_PIXEL_DISTANCE_DIGESTS = {
    ("retire", 0): "49af1eb320fffb4c79e62cf7db9cf6375bf8da39a47e3101382a688394a1ba73",
    ("retire", 7): "9531ec276eaed429c996ebd59f17df23e0f20463aca8435aafd41910eee222e0",
    ("igtd", 0): "81040f5f30f2c8ee5bca266c736e44ae5887fc2f931445c426fb25d46275eeb3",
    ("igtd", 7): "c98b0a701b4b228313da3e403ae4df8863c5a107c0a7dc183a9e7197390426d3",
}


def distance_digest(distances):
    return hashlib.sha256(distances.dtype.str.encode() + distances.tobytes()).hexdigest()


# SHA-256 of dtype.str plus the bytes of _stamp_distances at 224x224 on the
# benchmark's eval data (its Gaussian classes at seed 7), recorded with Ψ
# formed by one stacked matmul per row: every row against every row, and the
# first split's tested rows against its training rows
PINNED_STAMP_DISTANCE_DIGESTS = {
    ("banknote", "all"): "ddcf4b7714a7b904f786d3228f4feb24fdee47a444089cf7dda09403c172f435",
    ("banknote", "split"): "8ed5f961a77d766eae5574acf4a8675a7f2d70565cc9c12cef6fd7866a676226",
    ("sonar", "all"): "6d7087ba9d9ac27a93c36d4ee270132948233165681dacd46025a9268a7cb534",
    ("sonar", "split"): "93d21c0bf5d6f94c163822ab1d801221383e40e1b641f317fc4c24178796821a",
}


class TestPinnedStampDistances:
    @pytest.mark.parametrize("name, rows", sorted(PINNED_STAMP_DISTANCE_DIGESTS))
    def test_eval_shapes_unchanged(self, name, rows):
        ds = make_benchmark_dataset(name, seed=7)
        model = encoders.fit_stml(ds, size=(224, 224))
        if rows == "all":
            distances = probe._stamp_distances(model, ds.X, None)
        else:
            _, _, train_idx, test_idx = next(make_cv_plan(ds, seed=7).iter_splits())
            X = ds.X[np.concatenate([test_idx, train_idx])]
            distances = probe._stamp_distances(model, X, len(test_idx))
        assert distance_digest(distances) == PINNED_STAMP_DISTANCE_DIGESTS[name, rows]


class TestPinnedPixelDistances:
    @pytest.mark.parametrize("kind, seed", sorted(PINNED_PIXEL_DISTANCE_DIGESTS))
    def test_group_distances_unchanged(self, kind, seed):
        ds = generate_synthetic(208, 60, seed=seed)
        _, _, train_idx, test_idx = next(make_cv_plan(ds, seed=seed).iter_splits())
        model = encoders.fit(kind, ds.subset(train_idx), size=(224, 224))
        X = ds.X[np.concatenate([test_idx, train_idx])]
        distances = drawn_distances(model, X, len(test_idx))
        assert distance_digest(distances) == PINNED_PIXEL_DISTANCE_DIGESTS[kind, seed]

    def test_every_row_against_every_row_unchanged(self):
        ds = generate_synthetic(40, 60, seed=0)
        model = encoders.fit("retire", ds, size=(96, 96))
        assert distance_digest(drawn_distances(model, ds.X, None)) == (
            "a04cc91cd9b74faa86e2b77d94e130340d70c803ad8919a98ef5cfd2b40c0a73")

    @pytest.mark.parametrize("split, want", [
        (None, "1123666c6a75f9022a173833a7354c2edcdce629bff45e1d67f17e2cc988a51d"),
        (7, "9d7d7e348b34802349a9152fef3018ff3277eaf972693140c3cf08c991bad8d9")])
    def test_full_gcd_restart_unchanged(self, split, want):
        assert distance_digest(probe._pixel_distances(extremes_overstate_the_gcd(), split)) == want
