import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import rankdata

from fixtures import (argsort_rank_average, assignment_error, glyph_masks, make_benchmark_dataset,
                      text_codes)
from mdenc import _font, encoders, scaling
from mdenc._doc import from_doc, read_json, to_doc, write_json
from mdenc.data import Dataset
from mdenc.errors import CapacityError, FitError, ParameterError, ShapeError, StateError
from mdenc.raster import PolarLayout, polar_vertices, scanline_fill_mask


def model_from_doc(doc):
    return from_doc(encoders.EncoderModel, doc, "model")


def toy_dataset(n_features, n_rows=20, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
    y = np.tile([0, 1], n_rows // 2)
    return Dataset(name, X, y, tuple(f"f{i}" for i in range(n_features)), ("0", "1"))


# the hand-drawn glyphs, not the atlas that draw_text reads
GLYPH_MASKS = glyph_masks()


def reference_draw_text(pixels, text, rect):
    """Oracle for ``_font.draw_text``: the placement ``encode_stml`` used to
    work out (largest integer scale that fits, at least 1, centered), then
    one glyph at a time, each clipped to the rect and the buffer and
    advanced by the glyph width plus a blank column."""
    x0, y0, x1, y1 = rect
    tw, th = len(text) * 6 - 1, 7
    scale = max(1, min((x1 - x0) // tw, (y1 - y0) // th))
    x = x0 + (x1 - x0 - tw * scale) // 2
    y = y0 + (y1 - y0 - th * scale) // 2
    cx0, cy0 = max(0, x0), max(0, y0)
    cx1, cy1 = min(pixels.shape[1], x1), min(pixels.shape[0], y1)
    for ch in text:
        mask = GLYPH_MASKS[ch].repeat(scale, axis=0).repeat(scale, axis=1)
        gx0, gy0 = max(x, cx0), max(y, cy0)
        gx1, gy1 = min(x + mask.shape[1], cx1), min(y + mask.shape[0], cy1)
        if gx0 < gx1 and gy0 < gy1:
            pixels[gy0:gy1, gx0:gx1][mask[gy0 - y:gy1 - y, gx0 - x:gx1 - x]] = 255
        x += 6 * scale
    return pixels


def ink_box(pixels):
    """(x0, y0, x1, y1) bounding box of the set pixels."""
    ys, xs = np.nonzero(pixels)
    return xs.min(), ys.min(), xs.max() + 1, ys.max() + 1


def draw_one(pixels, text):
    """``_font.draw_text`` on one cell: the whole of ``pixels``."""
    _font.draw_text(pixels[None], text_codes([text]))
    return pixels


class TestFont:
    def test_text_size(self):
        # "8" is inked in its first and last column and row, so the ink of
        # "88888" spans the whole text: 5 glyphs of 5 plus 4 blank columns
        one = draw_one(np.zeros((7, 29), dtype=np.uint8), "88888")
        assert ink_box(one) == (0, 0, 29, 7)
        three = draw_one(np.zeros((21, 87), dtype=np.uint8), "88888")
        assert ink_box(three) == (0, 0, 87, 21)

    def test_largest_integer_scale_centered(self):
        # 86 // 29 = 2, 30 // 7 = 4: scale 2, text 58x14, centered in the cell
        pixels = np.zeros((40, 100), dtype=np.uint8)
        draw_one(pixels[3:33, 5:91], "88888")
        assert ink_box(pixels) == (5 + 14, 3 + 8, 5 + 14 + 58, 3 + 8 + 14)

    def test_draw_respects_clip(self):
        # text wider than its cell: nothing outside the cell is touched
        pixels = np.zeros((20, 20), dtype=np.uint8)
        draw_one(pixels[2:6, 2:6], "888")
        x0, y0, x1, y1 = ink_box(pixels)
        assert x0 >= 2 and y0 >= 2 and x1 <= 6 and y1 <= 6
        # the scale-1 text "8" is 5x7; in a 3x4 cell it is centered by floor
        # division (offsets (3 - 5) // 2 = -1 and (4 - 7) // 2 = -2) and cut
        pixels = np.zeros((20, 20), dtype=np.uint8)
        draw_one(pixels[10:14, 10:13], "8")
        glyph = GLYPH_MASKS["8"]
        assert np.array_equal(pixels[10:14, 10:13] > 0, glyph[2:6, 1:4])
        assert pixels.sum() == 255 * glyph[2:6, 1:4].sum()

    def test_scaling_doubles_glyph(self):
        one = draw_one(np.zeros((7, 5), dtype=np.uint8), "7")
        two = draw_one(np.zeros((14, 10), dtype=np.uint8), "7")
        assert np.array_equal(two, one.repeat(2, axis=0).repeat(2, axis=1))

    def test_one_cell_of_every_image(self):
        # cell (x 4:24, y 2:12) of three images, texts of two lengths
        images = np.zeros((3, 16, 30), dtype=np.uint8)
        texts = ["1.5", "-20.25", "7.0"]
        _font.draw_text(images[:, 2:12, 4:24], text_codes(texts))
        for image, text in zip(images, texts):
            want = reference_draw_text(np.zeros((16, 30), dtype=np.uint8), text, (4, 2, 24, 12))
            assert np.array_equal(image, want)

    def test_empty_text_draws_nothing(self):
        pixels = draw_one(np.zeros((8, 8), dtype=np.uint8), "")
        assert not pixels.any()
        _font.draw_text(np.zeros((0, 8, 8), dtype=np.uint8), text_codes([]))

    def test_glyphs_carry_blank_spacer(self):
        assert _font._ATLAS.shape == (128, _font.GLYPH_HEIGHT, _font.GLYPH_WIDTH + 1)
        assert not _font._ATLAS[:, :, -1].any()


texts = st.floats(allow_nan=False, allow_infinity=False).map(encoders.format_value)
sides = st.integers(0, 80)


class TestFontOracle:
    @settings(max_examples=400, deadline=None)
    @given(text=texts, width=sides, height=sides, x0=st.integers(0, 40),
           y0=st.integers(0, 40), w=st.integers(0, 90), h=st.integers(0, 90))
    def test_matches_reference(self, text, width, height, x0, y0, w, h):
        # a cell of any size, also narrower or shorter than a glyph, inside
        # a larger image that must stay blank around it
        x1, y1 = min(x0 + w, width), min(y0 + h, height)
        got = np.zeros((height, width), dtype=np.uint8)
        _font.draw_text(got[None, y0:y1, x0:x1], text_codes([text]))
        want = reference_draw_text(np.zeros((height, width), dtype=np.uint8), text,
                                   (x0, y0, max(x0, x1), max(y0, y1)))
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(stack=st.lists(texts | st.just(""), max_size=12), width=sides, height=sides)
    def test_stack_matches_reference_image_by_image(self, stack, width, height):
        # one call on texts of mixed lengths equals one oracle call per image
        got = np.zeros((len(stack), height, width), dtype=np.uint8)
        _font.draw_text(got, text_codes(stack))
        for image, text in zip(got, stack):
            want = reference_draw_text(np.zeros((height, width), dtype=np.uint8), text,
                                       (0, 0, width, height))
            assert np.array_equal(image, want)

    def test_matches_reference_on_seeded_cells(self):
        # narrow cells and values of every magnitude
        rng = np.random.default_rng(23)
        for _ in range(300):
            width, height = (int(v) for v in rng.integers(1, 90, size=2))
            value = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            text = encoders.format_value(value)
            got = draw_one(np.zeros((height, width), dtype=np.uint8), text)
            want = reference_draw_text(np.zeros((height, width), dtype=np.uint8), text,
                                       (0, 0, width, height))
            assert np.array_equal(got, want)


class TestRetire:
    def test_fit_geometry(self):
        ds = make_benchmark_dataset("banknote")
        model = encoders.fit_retire(ds, size=(224, 224))
        layout = model.layout
        assert layout.n == 4
        assert layout.rmax == 108.0  # 224/2 - 4 margin
        assert (layout.cx, layout.cy) == (112.0, 112.0)

    def test_fit_sonar_vertex_count(self):
        assert encoders.fit_retire(make_benchmark_dataset("sonar")).layout.n == 60

    def test_empty_training_fold(self):
        ds = toy_dataset(3)
        with pytest.raises(FitError):
            encoders.fit_retire(ds.subset([]))

    @pytest.mark.parametrize("kind", ["retire", "igtd"])
    @pytest.mark.parametrize("bounds", [{"l": "0.1"}, {"u": None}, {"l": [0.1]}])
    def test_guard_bounds_must_be_numbers(self, kind, bounds):
        with pytest.raises(ParameterError, match=f"{next(iter(bounds))} must be a number"):
            encoders.fit(kind, toy_dataset(3), **bounds)

    def test_maxima_sit_at_upper_guard_radius(self):
        ds = toy_dataset(5, seed=3)
        model = encoders.fit_retire(ds, l=0.05, u=0.95, size=(64, 64))
        scaled = scaling.transform(model.scaler, ds.X.max(axis=0))
        assert (scaled == 0.95).all()
        verts = polar_vertices(model.layout, scaled)
        center = np.array([model.layout.cx, model.layout.cy])
        radii = np.linalg.norm(verts - center, axis=1)
        assert np.allclose(radii, 0.95 * model.layout.rmax, atol=1e-9)
        # silhouette stays strictly inside the border ring
        assert radii.max() < model.layout.rmax

    def test_minima_give_small_nonempty_polygon(self):
        ds = toy_dataset(5, seed=3)
        model = encoders.fit_retire(ds, l=0.05, u=0.95, size=(64, 64))
        canvas = encoders.encode(model, ds.X.min(axis=0))
        scaled = scaling.transform(model.scaler, ds.X.min(axis=0))
        mask = scanline_fill_mask(polar_vertices(model.layout, scaled), 64, 64)
        assert canvas.any()
        ys, xs = np.nonzero(mask)
        if len(xs):
            radii = np.hypot(xs + 0.5 - 32.0, ys + 0.5 - 32.0)
            assert radii.max() <= 0.05 * model.layout.rmax + 1.5

    def test_border_present_even_for_minimal_sample(self):
        ds = toy_dataset(4, seed=1)
        model = encoders.fit_retire(ds, size=(64, 64))
        canvas = encoders.encode(model, ds.X.min(axis=0))
        # the all-ones border polygon passes through 12 o'clock at rmax
        top = polar_vertices(model.layout, np.ones(4))[0]
        assert canvas[int(top[1]), int(top[0])] == 255

    def test_identical_scaled_vectors_byte_identical(self):
        ds = toy_dataset(6, seed=2)
        model = encoders.fit_retire(ds, size=(64, 64))
        a = encoders.encode(model, ds.X[0])
        b = encoders.encode(model, ds.X[0].copy())
        assert a.tobytes() == b.tobytes()

    def test_vertex_radius_monotone_in_feature(self):
        ds = toy_dataset(4, seed=5)
        model = encoders.fit_retire(ds, size=(64, 64))
        base = ds.X[0].copy()
        radii = []
        for bump in (0.0, 0.1, 0.3, 10.0):
            x = base.copy()
            x[2] += bump
            scaled = scaling.transform(model.scaler, x)
            radii.append(scaled[2] * model.layout.rmax)
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_cyclic_shift_rotates_silhouette(self):
        # N=4 shifts rotate by right angles, so the pixel-center lattice
        # maps onto itself: the even-odd fill count is exactly invariant
        # and only the 1-px stroke discretization moves the total count.
        ds = toy_dataset(4, n_rows=30, seed=8)
        x = ds.X[0]
        model = encoders.fit_retire(ds, size=(224, 224))
        scaled = scaling.transform(model.scaler, x)
        base_mask = scanline_fill_mask(polar_vertices(model.layout, scaled), 224, 224).sum()
        base_full = int((encoders.encode(model, x) == 255).sum())
        for shift in range(1, 4):
            rolled = Dataset("t", np.roll(ds.X, shift, axis=1), ds.y,
                             ds.feature_names, ds.class_names)
            m2 = encoders.fit_retire(rolled, size=(224, 224))
            scaled2 = scaling.transform(m2.scaler, np.roll(x, shift))
            mask2 = scanline_fill_mask(polar_vertices(m2.layout, scaled2), 224, 224).sum()
            full2 = int((encoders.encode(m2, np.roll(x, shift)) == 255).sum())
            assert mask2 == base_mask
            assert abs(full2 - base_full) <= 6 * 4  # stroke discretization

    def test_low_vertex_counts(self):
        for n in (1, 2):
            ds = toy_dataset(n, seed=n)
            model = encoders.fit_retire(ds, size=(32, 32))
            canvas = encoders.encode(model, ds.X[0])
            assert canvas.any()
            assert set(np.unique(canvas)) <= {0, 255}

    def test_wrong_kind_or_shape(self):
        ds = toy_dataset(3)
        stml = encoders.fit_stml(ds)
        retire = encoders.fit_retire(ds)
        with pytest.raises(StateError):
            encoders.EncoderModel("retire", stml.canvas_size, retire.scaler, stml.layout)
        with pytest.raises(ShapeError):
            encoders.encode(retire, np.zeros(5))
        with pytest.raises(ShapeError):
            encoders.encode_batch(retire, np.zeros(3))

    @pytest.mark.parametrize("rows", [
        [["a"] * 3],
        [[1.0, 2.0, 3.0], [1.0, "b", 3.0]],
        [[1.0, 2.0, 3.0], [1.0, 2.0]],
    ], ids=["text", "one-text-cell", "ragged"])
    def test_rows_that_are_not_numbers_raise_shape_error(self, rows):
        retire = encoders.fit_retire(toy_dataset(3))
        with pytest.raises(ShapeError, match="rows must be an array of feature values"):
            encoders.encode_batch(retire, rows)
        with pytest.raises(ShapeError):
            encoders.encode(retire, rows[-1])


def pinned_retire_rows(n):
    """Seeded training rows and test rows for the pinned-bytes check; the
    last two test rows clamp every feature to 0 and to 1."""
    rng = np.random.default_rng(1000 + n)
    X_train = rng.normal(size=(30, n))
    test = np.vstack([
        rng.normal(size=(4, n)),
        rng.normal(scale=3.0, size=(3, n)),
        X_train.min(axis=0) - 10.0,
        X_train.max(axis=0) + 10.0,
    ])
    return X_train, test


# SHA-256 of the retire ``encode_batch`` bytes, recorded with the
# reference per-scanline fill and per-step Bresenham stroke
PINNED_RETIRE_DIGESTS = {
    (1, 224): "3b80c24d496cbc78dcab781d5b5fc3376b931db675bb69b29302e5523003f0c2",
    (1, 64): "28bfe6a07ff1c05bb4cd250065f0d94de173f1bb0957e29ed2a8786c1cdc058c",
    (2, 224): "669151a002561d44a26810f2ee74a0423740a5b6268e4f20aa5a036d53d5abf2",
    (2, 64): "31908251e9ce6e24439a606e88896f21fd27119db870087f78fe861a9c82790a",
    (3, 224): "72721c81ea7340bd231458bff3051bf32cb9e621e2ab52824d2103df0da4f388",
    (3, 64): "fe2d420b22148706b0fe7b6cd6e45bfecc98f7ccbf13f5f674c9c3cdb4370b08",
    (10, 224): "cc04d00909402dd946b06d0857c18231ccedeca48b4db927b8be46a221f2597f",
    (10, 64): "55c7e0a55391e806bd39f1c6e845ccc3aadb80b390ba5b5f51e6a61fbea793c7",
    (100, 224): "b6d01c85a9ca6f833e3da8305bea492e6cb5799d7dd30bbe36cfac68f789cb60",
    (100, 64): "367d44f8c2b33f45f1302ca675d489d44fa73795d1da60c5717b434c3142d746",
    (500, 224): "b9bbfcd31889287d1efbee15c7d4ff8b86ef05f92c7887171931b6acd8d6f886",
    (500, 64): "895be84f7bd1514f3f97738a9d23a72c0f1613930690abfae7ea1a72852cbb13",
}


class TestRetirePinnedBytes:
    @pytest.mark.parametrize("n, side", sorted(PINNED_RETIRE_DIGESTS))
    def test_encode_batch_bytes_unchanged(self, n, side):
        X_train, test = pinned_retire_rows(n)
        ds = Dataset("pin", X_train, np.tile([0, 1], 15),
                     tuple(f"f{i}" for i in range(n)), ("0", "1"))
        model = encoders.fit("retire", ds, size=(side, side))
        scaled = scaling.transform(model.scaler, test)
        assert (scaled[-2] == 0.0).all() and (scaled[-1] == 1.0).all()
        images = encoders.encode_batch(model, test)
        assert images.shape == (len(test), side, side)
        digest = hashlib.sha256(images.tobytes()).hexdigest()
        assert digest == PINNED_RETIRE_DIGESTS[n, side]


class TestRetireChunks:
    @pytest.mark.parametrize("n", [1, 2, 3, 60])
    @pytest.mark.parametrize("rows", [1, 3, 4, 5, 9])
    def test_batch_rows_equal_single_rows(self, rows, n):
        # ``rows`` counts rows at the 4-row minimum chunk: 1, c - 1, c, c + 1
        # and 2c + 1 there, and the same places around n's own chunk c here.
        # n = 1 and 2 take the stroke-only path; a row far below the
        # training range scales to radius 0, a zero-area polygon
        c = encoders._retire_chunk(n, 64 * 64)
        rows = {1: 1, 3: c - 1, 4: c, 5: c + 1, 9: 2 * c + 1}[rows]
        ds = toy_dataset(n, seed=n)
        model = encoders.fit_retire(ds, size=(64, 64))
        X = np.random.default_rng(rows).normal(0.5, 0.6, size=(rows, n))
        X[rows // 2] = -1e6
        images = encoders.encode_batch(model, X)
        for i in range(rows):
            assert np.array_equal(images[i], encoders.encode(model, X[i]))

    def test_encode_allocates_little_beyond_its_output(self):
        # tracemalloc counts what numpy allocates, whatever the allocator
        # keeps; the fill and stroke temporaries of one chunk are the margin
        rng = np.random.default_rng(0)
        ds = Dataset("m", rng.normal(size=(30, 500)), np.tile([0, 1], 15),
                     tuple(f"f{i}" for i in range(500)), ("0", "1"))
        model = encoders.fit_retire(ds, size=(224, 224))
        X = rng.normal(size=(100, 500))
        tracemalloc.start()
        try:
            images = encoders.encode_batch(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes + 6 * 2**20

    def test_large_canvas_chunks_hold_a_bounded_stack(self):
        # 3 vertices would take 341 rows per call; at 1024x1024 the 2**23-
        # pixel cap takes 8, so the fill's interior stack is 8 MiB, not the
        # whole 24-row batch
        model = encoders.fit_retire(toy_dataset(3, seed=3), size=(1024, 1024))
        X = np.random.default_rng(5).normal(0.5, 0.6, size=(24, 3))
        tracemalloc.start()
        try:
            images = encoders.encode_batch(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert encoders._retire_chunk(3, 1024 * 1024) == 8
        assert peak < images.nbytes + 12 * 2**20


class TestFormatValue:
    def test_reference_cases(self):
        assert encoders.format_value(1.0) == "1.000"
        assert encoders.format_value(0.0) == "0.000"
        assert encoders.format_value(123456.7) == "1.235e5"
        assert encoders.format_value(-12.5) == "-12.50"

    def test_rule_simulation(self):
        # oracle: 4 significant digits; compact scientific whenever the
        # fixed form carries an exponent or exceeds 7 characters
        rng = np.random.default_rng(0)
        values = [float(v) for v in rng.uniform(-1e7, 1e7, size=200)]
        values += [0.0, 1.0, -1.0, 1e-8, -3.21e-5, 99999.99, 123456.7]
        for v in values:
            fixed = f"{v:#.4g}"
            if "e" not in fixed and len(fixed) <= 7:
                expected = fixed
            else:
                mantissa, _, exponent = f"{v:.3e}".partition("e")
                expected = f"{mantissa}e{int(exponent)}"
            assert encoders.format_value(v) == expected

    def test_renderable_with_embedded_font(self):
        rng = np.random.default_rng(1)
        for v in rng.uniform(-1e9, 1e9, size=100):
            text = encoders.format_value(float(v))
            assert set(text) <= set(GLYPH_MASKS)


# floats where format_value's rules meet: 4-significant-digit ties, the
# 0.01, 0.1 (negative) and 1e4 edges of the fixed form, subnormals, signed
# zeros and the largest finite floats; each also one step up and down
EDGE_FLOATS = [9.9995, 999.95, 0.0099995, 0.099995, 99.995, 9999.5, 9999.49, 1e4, 0.01,
               0.00999, 0.1, 1e-4, 5e-324, 2.2250738585072014e-308, 0.0, 123456.7, -1.5e-10,
               1e300, sys.float_info.max]
edge_floats = (
    st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]).flatmap(
        lambda v: st.sampled_from([v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]))
    .filter(math.isfinite)
    # log-uniform magnitudes over the whole finite range
    | st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                st.floats(-323.0, 308.0)))
# six rows of four features that hold the edge values, for the pins below
EDGE_MATRIX = np.array([
    [9.9995, 999.95, 0.0099995, -0.0],
    [5e-324, -5e-324, sys.float_info.max, -sys.float_info.max],
    [9999.5, 9999.49, 0.01, 0.00999],
    [-0.1, -0.099995, 1e-4, 0.0],
    [123456.7, -1.5e-10, 1e300, -2.2250738585072014e-308],
    [1.0, -12.5, 99.995, 1e4],
])




def nudged(value, steps):
    """``value`` moved ``steps`` floats up (or down, if negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# where stml_codes' numpy formatter must hand a value to format_value, or
# must round as it does: within a few ulps of a 4-significant-digit tie
# d.ddd5·10^k (9.9995·10^k rounds up to the next power), of a power of ten
# (where log10 may be off by one), of the magnitudes where #.4g turns
# scientific (1e-4, 1e4) or passes 7 characters (0.01, and 0.1 when
# negative); either sign, and signed zeros and subnormals
hazard_floats = st.builds(
    lambda base, steps, sign: sign * nudged(base, steps),
    st.builds(lambda digits, k: (digits + 0.5) * 10.0 ** k, st.integers(1000, 9999),
              st.integers(-10, 8))
    | st.builds(lambda k: 10.0 ** k, st.integers(-9, 9))
    | st.sampled_from([1e-4, 0.01, 0.1, 1e4, 0.0099995, 0.099995, 9999.5]),
    st.integers(-4, 4), st.sampled_from([1.0, -1.0])) | st.sampled_from([0.0, -0.0]) | st.floats(
    -sys.float_info.min, sys.float_info.min, allow_nan=False)


class TestStmlCodes:
    """``stml_codes`` against ``format_value`` and a plain-Python code oracle."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(values=st.lists(hazard_floats, min_size=1, max_size=30))
    def test_hazards_give_the_format_value_codes(self, values):
        X = np.array(values).reshape(1, -1)
        want = text_codes([encoders.format_value(v) for v in values])
        assert np.array_equal(encoders.stml_codes(X), want.reshape(1, len(values), -1))

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponents_are_checked_not_trusted(self, shift, monkeypatch):
        # with log10 off by half a decade, half of the exponents are off by
        # one; the mantissa range must catch each of them
        X = np.geomspace(0.011, 9000.0, 600).reshape(-1, 6) * [1, -1, 1, -1, 1, 1]
        want = encoders.stml_codes(X)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert np.array_equal(encoders.stml_codes(X), want)

    @pytest.mark.parametrize("exponent", range(-3, 5))
    def test_every_mantissa_and_tie_of_an_exponent(self, exponent):
        # the mantissas 1000..9999 and their ties, at 10**exponent, one ulp
        # either side and both signs: every fixed text, and each rounding
        # hazard the numpy path decides itself
        base = np.arange(1000, 10000, 0.5) * 10.0 ** (exponent - 3)
        values = np.concatenate([base, np.nextafter(base, 0), np.nextafter(base, np.inf)])
        X = np.concatenate([values, -values]).reshape(-1, 6)
        want = text_codes([encoders.format_value(v) for v in X.ravel().tolist()])
        assert np.array_equal(encoders.stml_codes(X), want.reshape(*X.shape, -1))

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(edge_floats, min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_codes_are_the_ascii_of_format_value(self, rows):
        X = np.array(rows)
        texts = [encoders.format_value(v) for v in X.ravel().tolist()]
        for text in texts:
            assert set(text) <= set(GLYPH_MASKS) and len(text) <= 11, text
        got = encoders.stml_codes(X)
        assert got.dtype == np.uint8
        assert np.array_equal(got, text_codes(texts).reshape(*X.shape, -1))

    def test_pinned_codes_and_image(self):
        # recorded before the codes came from numpy's byte strings
        codes = encoders.stml_codes(EDGE_MATRIX)
        assert codes.shape == (6, 4, 11)
        assert hashlib.sha256(codes.tobytes()).hexdigest() == (
            "8fd08b168238c2514dd3287711dc841bea0c47a76ad5930cde63d9df01a336cb")
        model = encoders.fit_stml(toy_dataset(4), size=(64, 64))
        images = encoders.encode_batch(model, EDGE_MATRIX)
        assert hashlib.sha256(images.tobytes()).hexdigest() == (
            "9cb1a686f196948689642ad673bf0cc78c764d2d86984bc59eacfad0963d7c49")


class TestStml:
    def test_grid_six_features(self):
        model = encoders.fit_stml(toy_dataset(6), size=(224, 224))
        layout = model.layout
        assert (layout.rows, layout.cols) == (3, 2)
        # base cell 112x74, integer-division remainder to the last row
        assert layout.cell_rect(0, 224, 224) == (0, 0, 112, 74)
        assert layout.cell_rect(5, 224, 224) == (112, 148, 224, 224)

    def test_single_feature_full_canvas_cell(self):
        model = encoders.fit_stml(toy_dataset(1), size=(224, 224))
        assert (model.layout.rows, model.layout.cols) == (1, 1)
        assert model.layout.cell_rect(0, 224, 224) == (0, 0, 224, 224)

    def test_no_features_raises_fit_error(self):
        with pytest.raises(FitError, match="need at least 1 feature"):
            encoders.fit("stml", toy_dataset(0))

    def test_capacity_error(self):
        ds = toy_dataset(5000, n_rows=2)
        with pytest.raises(CapacityError):
            encoders.fit_stml(ds, size=(32, 32))

    def test_single_cell_renders_expected_glyphs(self):
        ds = Dataset("one", np.array([[1.0], [0.5]]), np.array([0, 1]),
                     ("f0",), ("a", "b"))
        model = encoders.fit_stml(ds, size=(224, 224))
        canvas = encoders.encode(model, np.array([1.0]))
        # independent rendering of "1.000" centered at the largest scale
        expected = reference_draw_text(np.zeros((224, 224), dtype=np.uint8), "1.000",
                                       (0, 0, 224, 224))
        assert np.array_equal(canvas, expected)

    def test_deterministic(self):
        ds = toy_dataset(6, seed=4)
        model = encoders.fit_stml(ds, size=(128, 128))
        a = encoders.encode(model, ds.X[3])
        b = encoders.encode(model, ds.X[3])
        assert a.tobytes() == b.tobytes()

    def test_every_cell_written(self):
        ds = toy_dataset(6, seed=4)
        model = encoders.fit_stml(ds, size=(224, 224))
        canvas = encoders.encode(model, ds.X[0])
        for f in range(6):
            x0, y0, x1, y1 = model.layout.cell_rect(f, 224, 224)
            assert canvas[y0:y1, x0:x1].any()

    def test_shape_error(self):
        model = encoders.fit_stml(toy_dataset(3))
        with pytest.raises(ShapeError):
            encoders.encode(model, np.zeros(4))


STML_SPECIALS = np.array([1e-7, -1e-12, 123456.7, -1e6, -0.5, 0.0, -3.25e-5, 99999.99])


def pinned_stml_rows(n):
    """Seeded rows for the pinned-bytes check: signed values of unit and
    1e4 scale, then one row per rotation of the special values, so each
    of them (tiny and huge exponents, zero, negatives) reaches cell 0."""
    rng = np.random.default_rng(2000 + n)
    X_train = rng.normal(size=(4, n))
    test = np.vstack([
        rng.normal(size=(3, n)),
        rng.normal(scale=1e4, size=(1, n)),
        [np.resize(np.roll(STML_SPECIALS, -k), n) for k in range(len(STML_SPECIALS))],
    ])
    return X_train, test


# SHA-256 of the stml ``encode_batch`` bytes per (features, width, height),
# recorded with the per-character glyph blit; the last two shapes clip text
PINNED_STML_DIGESTS = {
    (1, 224, 224): "5bcab0cf0ba2ff512ad8eeef57d02c13507949f0ace61836ea0228fdeb9a5618",
    (4, 224, 224): "84c815062879b6e00c95873c325e0c8c2e83e38891d7a669a7e3ce9f83f4d24a",
    (60, 224, 224): "83119fbd82d50a9c33323f2dabf055d94d11aac9cda74fca0536c5ab5cf4cbe0",
    (100, 224, 224): "4400a519a18adc9ceb96251e02b8fd5595a6ebccce0cf3f1b29c4e5631349a7a",
    (500, 224, 224): "6e708f8303187d2dd0927b375a5f6a267d60aadba0e1e22f21f985ad1096d7b9",
    (30, 64, 48): "c545b6e131659b59227e6517b181e8f9d45b25e0cbe091e1b8a098c0d28311e2",
    (7, 30, 90): "379b3bd797ce6fae36ced1001c78e15d21732f782c474ae3d7cebcb38f8e1e5e",
}


class TestStmlPinnedBytes:
    @pytest.mark.parametrize("n, width, height", sorted(PINNED_STML_DIGESTS))
    def test_encode_batch_bytes_unchanged(self, n, width, height):
        X_train, test = pinned_stml_rows(n)
        ds = Dataset("pin", X_train, np.tile([0, 1], 2),
                     tuple(f"f{i}" for i in range(n)), ("0", "1"))
        model = encoders.fit("stml", ds, size=(width, height))
        images = encoders.encode_batch(model, test)
        assert images.shape == (len(test), height, width)
        digest = hashlib.sha256(images.tobytes()).hexdigest()
        assert digest == PINNED_STML_DIGESTS[n, width, height]


# The separate feature-distance, cell-distance and rank builders that
# ``encoders._distance_ranks`` replaced, kept as its oracles

def _column_distances(Xs: np.ndarray) -> np.ndarray:
    """Euclidean distances between feature columns of the scaled matrix,
    from a Gram summed by numpy's own loop, as ``_distance_ranks`` sums it."""
    gram = np.einsum("ki,kj->ij", Xs, Xs)
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _cell_distances(cols: int, n: int) -> np.ndarray:
    """Euclidean distances between the centers of the first n grid cells."""
    r, c = divmod(np.arange(n), cols)
    dr = r[:, None] - r[None, :]
    dc = c[:, None] - c[None, :]
    return np.sqrt((dr * dr + dc * dc).astype(np.float64))


def _pair_rank_matrix(dist: np.ndarray) -> np.ndarray:
    """Average ranks of the upper-triangle distances, symmetrized.

    Ranks are multiples of 0.5, so objective sums stay exact in float64.
    """
    n = dist.shape[0]
    iu = np.triu_indices(n, 1)
    ranks = argsort_rank_average(dist[iu])
    out = np.zeros_like(dist)
    out[iu] = ranks
    out[(iu[1], iu[0])] = ranks
    return out


class TestDistanceRanks:
    # the smallest grids, and perfect squares, whose grids have no spare cell
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 600))
    @example(n=2)
    @example(n=3)
    @example(n=4)
    @example(n=9)
    @example(n=16)
    @example(n=64)
    @example(n=225)
    @example(n=576)
    def test_cell_grids_match_the_separate_builders(self, n):
        cols = math.ceil(math.sqrt(n))
        # the 2 x n float64 (row, column) coordinates that fit_igtd ranks
        got = encoders._distance_ranks(np.array(divmod(np.arange(n), cols), dtype=np.float64))
        want = _pair_rank_matrix(_cell_distances(cols, n))
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 30), n=st.integers(2, 60), seed=st.integers(0, 2**16),
           kind=st.sampled_from(["random", "rounded", "duplicates"]))
    def test_feature_matrices_match_the_separate_builders(self, rows, n, seed, kind):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(rows, n))
        if kind == "rounded":  # distances tie
            X = np.round(X, 1)
        elif kind == "duplicates":  # columns repeat, so some distances are 0
            X = X[:, rng.integers(0, max(1, n // 3), size=n)]
        got = encoders._distance_ranks(X)
        assert got.tobytes() == _pair_rank_matrix(_column_distances(X)).tobytes()

    def test_feature_ranks_do_not_depend_on_the_blas_thread_count(self):
        # scaled data of 3 levels ties many distances; a BLAS Gram sums each
        # column pair in an order that its thread count picks, which breaks
        # such ties one way or the other
        script = ("import hashlib, numpy as np; from mdenc import encoders, scaling; "
                  "X = np.random.default_rng(0).integers(0, 3, size=(500, 100)).astype(float); "
                  "ranks = encoders._distance_ranks(scaling.transform(scaling.fit(X), X)); "
                  "print(hashlib.sha256(ranks.tobytes()).hexdigest())")
        src = str(Path(encoders.__file__).parents[1])
        digests = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  check=True, env={**os.environ, "PYTHONPATH": src,
                                                   "OPENBLAS_NUM_THREADS": threads,
                                                   "OMP_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")}
        assert len(digests) == 1


def igtd_rank_matrices(model, ds):
    mapping = model.layout
    scaled = scaling.transform(model.scaler, ds.X)
    rank_feat = _pair_rank_matrix(_column_distances(scaled))
    rank_pix = _pair_rank_matrix(_cell_distances(mapping.cols, mapping.n))
    return rank_feat, rank_pix


def oracle_error(ds, model, assignment):
    """Objective recomputed from scratch with scipy's independent ranking."""
    mapping = model.layout
    scaled = scaling.transform(model.scaler, ds.X)
    n = ds.n_features
    feat_dist = np.sqrt(((scaled.T[:, None, :] - scaled.T[None, :, :]) ** 2).sum(axis=2))
    rows, cols = divmod(np.arange(n), mapping.cols)
    pix_dist = np.sqrt((rows[:, None] - rows[None, :]) ** 2.0
                       + (cols[:, None] - cols[None, :]) ** 2.0)
    iu = np.triu_indices(n, 1)
    rank_feat = np.zeros((n, n))
    rank_feat[iu] = rankdata(feat_dist[iu], method="average")
    rank_pix = np.zeros((n, n))
    rank_pix[iu] = rankdata(pix_dist[iu], method="average")
    rank_feat += rank_feat.T
    rank_pix += rank_pix.T
    total = 0.0
    for i, j in zip(*iu):
        total += abs(rank_feat[i, j] - rank_pix[assignment[i], assignment[j]])
    return total


def reference_swap_delta(rank_feat, rank_pix, assignment, i, j):
    """Objective change of swapping the cells of features i and j, scored
    one pair at a time (the oracle for ``encoders._swap_deltas``)."""
    others = np.ones(assignment.shape[0], dtype=bool)
    others[i] = others[j] = False
    k = np.flatnonzero(others)
    ai, aj, ak = assignment[i], assignment[j], assignment[k]
    before = (np.abs(rank_feat[i, k] - rank_pix[ai, ak]).sum()
              + np.abs(rank_feat[j, k] - rank_pix[aj, ak]).sum())
    after = (np.abs(rank_feat[i, k] - rank_pix[aj, ak]).sum()
             + np.abs(rank_feat[j, k] - rank_pix[ai, ak]).sum())
    return float(after - before)


def swap_scratch(P):
    """The buffers that ``encoders._swap_deltas`` writes into: two (n, n)
    matrices and a vector of n ones, in the dtype of ``P``."""
    n = len(P)
    return np.empty((n, n), P.dtype), np.empty((n, n), P.dtype), np.ones(n, P.dtype)


def reference_swap_descent(rank_feat, rank_pix, max_iters):
    """Per-pair IGTD steps in one descent from the identity: the oracle for
    ``encoders._swap_descent``, returning the same
    (assignment, trace, converged)."""
    n = rank_feat.shape[0]
    assignment = np.arange(n)
    error = assignment_error(rank_feat, rank_pix, assignment)
    trace = [error]
    last_selected = [0] * n
    idle = 0
    for step in range(1, max_iters + 1):
        i = last_selected.index(min(last_selected))  # idle longest, lowest index
        best_j, best_delta = None, 0.0
        for j in range(n):
            if j != i:
                delta = reference_swap_delta(rank_feat, rank_pix, assignment, i, j)
                if delta < best_delta:  # strict: the lowest j wins a tie
                    best_j, best_delta = j, delta
        last_selected[i] = step
        if best_j is None:
            idle += 1
        else:
            assignment[[i, best_j]] = assignment[[best_j, i]]
            error += best_delta
            last_selected[best_j] = step
            idle = 0
        trace.append(error)
        if idle == n:
            return assignment, trace, True
    return assignment, trace, False


def random_rank_matrices(n, seed, coarse=False):
    """Feature and pixel rank matrices of a random n-feature problem;
    ``coarse`` rounds the data so feature distances tie as well."""
    X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(12, n))
    if coarse:
        X = np.round(X)
    cols = math.ceil(math.sqrt(n))
    return (_pair_rank_matrix(_column_distances(X)),
            _pair_rank_matrix(_cell_distances(cols, n)))


class TestSwapSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), data_seed=st.integers(0, 2**16),
           max_iters=st.integers(1, 200), coarse=st.booleans())
    def test_block_descent_matches_per_pair_descent(self, n, data_seed, max_iters, coarse):
        rank_feat, rank_pix = random_rank_matrices(n, data_seed, coarse)
        got = encoders._swap_descent(rank_feat, rank_pix, max_iters)
        want = reference_swap_descent(rank_feat, rank_pix, max_iters)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]  # exact, element by element
        assert got[2] == want[2]
        if len(got[1]) - 1 < max_iters:
            assert got[2]  # stopped early only at a pairwise local optimum

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tied_best_swaps_match_per_pair_descent(self, n):
        # coarse data on a tiny grid often ties the best swaps of a step,
        # which random draws of up to 40 features seldom do
        for data_seed in range(5):
            rank_feat, rank_pix = random_rank_matrices(n, data_seed, coarse=True)
            got = encoders._swap_descent(rank_feat, rank_pix, 50)
            want = reference_swap_descent(rank_feat, rank_pix, 50)
            assert np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]

    @pytest.mark.parametrize("coarse", [False, True])
    def test_swap_deltas_equal_per_pair_deltas(self, coarse):
        n = 23
        rank_feat, rank_pix = random_rank_matrices(n, 5, coarse)
        assignment = np.random.default_rng(6).permutation(n)
        P = rank_pix[np.ix_(assignment, assignment)]
        D = np.abs(rank_feat - P)
        scratch = swap_scratch(P)
        deltas = np.array([encoders._swap_deltas(rank_feat, P, D, i, scratch) for i in range(n)])
        want = [[0.0 if j == i else reference_swap_delta(rank_feat, rank_pix, assignment, i, j)
                 for j in range(n)] for i in range(n)]
        assert deltas.tolist() == want
        assert (deltas < 0).any() and (deltas > 0).any()

    def test_search_is_logged(self, caplog):
        ds = toy_dataset(12, seed=4)
        with caplog.at_level("INFO", logger="mdenc.encoders"):
            encoders.fit_igtd(ds)
            encoders.fit_igtd(ds, max_iters=1)
            # the line ends with the search's arithmetic, on each side of its bound
            for n in (203, 204):
                encoders.fit_igtd(toy_dataset(n, seed=4), max_iters=1)
        converged, capped, last32, first64 = [r.getMessage() for r in caplog.records]
        assert converged.startswith("igtd search: 12 features, ")
        assert converged.endswith(" steps, converged, float32")
        assert capped == "igtd search: 12 features, 1 steps, stopped at max_iters, float32"
        assert last32 == "igtd search: 203 features, 1 steps, stopped at max_iters, float32"
        assert first64 == "igtd search: 204 features, 1 steps, stopped at max_iters, float64"

    def test_exact_float_bound(self):
        # float32 holds every integer up to 2**24, and 2**24 + 1 is the first it rounds
        assert encoders.exact_float(2**24) is np.float32
        assert encoders.exact_float(2**24 + 1) is np.float64
        assert float(np.float32(2**24 + 1)) != 2**24 + 1


class TestIgtd:
    def test_two_features_symmetric(self):
        ds = toy_dataset(2, seed=1)
        model = encoders.fit_igtd(ds)
        mapping = model.layout
        assert (mapping.rows, mapping.cols) == (1, 2)
        trace = np.array(mapping.error_trace)
        # both assignments have equal error; no swap ever improves
        assert trace[0] == trace[-1]
        assert np.array_equal(mapping.assignment, np.array([0, 1]))

    def test_grid_shapes(self):
        assert encoders.fit_igtd(toy_dataset(5)).layout.rows == 2
        assert encoders.fit_igtd(toy_dataset(5)).layout.cols == 3
        model = encoders.fit_igtd(toy_dataset(9))
        assert (model.layout.rows, model.layout.cols) == (3, 3)
        assert model.canvas_size == (3, 3)

    def test_four_features_reach_exhaustive_minimum(self):
        for seed in range(5):
            ds = toy_dataset(4, seed=100 + seed)
            model = encoders.fit_igtd(ds)
            rank_feat, rank_pix = igtd_rank_matrices(model, ds)
            best = min(assignment_error(rank_feat, rank_pix, np.array(p))
                       for p in itertools.permutations(range(4)))
            assert model.layout.error_trace[-1] == best

    @pytest.mark.parametrize("shape", ["sonar", "ionosphere", "spambase", 0, 1, 2, 3, 4])
    def test_converged_fit_is_a_pairwise_local_optimum(self, shape, caplog):
        if isinstance(shape, str):
            ds = make_benchmark_dataset(shape)
        else:  # a random shape
            rng = np.random.default_rng(300 + shape)
            ds = toy_dataset(int(rng.integers(3, 41)), n_rows=2 * int(rng.integers(3, 30)),
                             seed=shape)
        with caplog.at_level("INFO", logger="mdenc.encoders"):
            model = encoders.fit_igtd(ds)  # the default max_iters does not bind
        assert caplog.records[-1].getMessage().endswith(" converged, float32")
        rank_feat, rank_pix = igtd_rank_matrices(model, ds)
        a = model.layout.assignment
        P = rank_pix[np.ix_(a, a)]
        D = np.abs(rank_feat - P)
        scratch = swap_scratch(P)
        assert min(encoders._swap_deltas(rank_feat, P, D, i, scratch).min()
                   for i in range(ds.n_features)) >= 0.0

    def test_error_trace_non_increasing(self):
        for seed in range(10):
            ds = toy_dataset(int(np.random.default_rng(seed).integers(3, 8)), seed=seed)
            trace = np.array(encoders.fit_igtd(ds).layout.error_trace)
            assert (np.diff(trace) <= 0).all()

    def test_incremental_error_equals_scratch_recomputation(self):
        for seed in range(6):
            ds = toy_dataset(7, seed=50 + seed)
            model = encoders.fit_igtd(ds)
            rank_feat, rank_pix = igtd_rank_matrices(model, ds)
            recomputed = assignment_error(rank_feat, rank_pix, model.layout.assignment)
            assert model.layout.error_trace[-1] == recomputed  # exact
            assert oracle_error(ds, model, model.layout.assignment) == recomputed

    def test_intensities(self):
        ds = toy_dataset(5, seed=9)
        model = encoders.fit_igtd(ds, l=0.05, u=0.95)
        top = encoders.encode(model, ds.X.max(axis=0))
        rows, cols = divmod(model.layout.assignment, model.layout.cols)
        assert (top[rows, cols] == 242).all()  # round(255 * 0.95)
        bottom = encoders.encode(model, ds.X.min(axis=0))
        assert (bottom[rows, cols] == 13).all()  # round(255 * 0.05)

    def test_surplus_cells_blank(self):
        ds = toy_dataset(5, seed=9)
        model = encoders.fit_igtd(ds)
        canvas = encoders.encode(model, ds.X.max(axis=0))
        assert canvas.size == 6
        assert int((canvas == 0).sum()) == 1

    def test_preconditions(self):
        with pytest.raises(FitError):
            encoders.fit_igtd(toy_dataset(1))
        with pytest.raises(ParameterError):
            encoders.fit_igtd(toy_dataset(3), max_iters=0)
        for max_iters in (10.5, "3", None):
            with pytest.raises(ParameterError, match="max_iters must be a non-negative integer"):
                encoders.fit_igtd(toy_dataset(3), max_iters=max_iters)
        assert encoders.fit_igtd(toy_dataset(3), max_iters=np.int64(2)).layout.n == 3

    def test_deterministic(self):
        ds = toy_dataset(6, seed=3)
        a = encoders.fit_igtd(ds)
        b = encoders.fit_igtd(ds)
        assert np.array_equal(a.layout.assignment, b.layout.assignment)
        assert a.layout.error_trace == b.layout.error_trace


class TestGenericSurface:
    def test_dispatch_and_unknown_kind(self):
        ds = toy_dataset(4)
        for kind in encoders.KINDS:
            model = encoders.fit(kind, ds, size=(64, 64))
            assert model.kind == kind
            encoders.encode(model, ds.X[0])
        with pytest.raises(ParameterError):
            encoders.fit("nope", ds)
        with pytest.raises(StateError):
            encoders.encode("not a model", ds.X[0])

    @pytest.mark.parametrize("options", [
        {"l": 5, "u": -1}, {"l": 0.9, "u": 0.1}, {"u": float("nan")},
        {"size": (64, 64, 1)}, {"size": (-1, 64)}, {"size": "64x64"}, {"size": (0, 0)},
        {"size": (10**6, 10**6)},
        {"igtd_max_iters": -5}, {"igtd_max_iters": 0}, {"igtd_max_iters": 2.5},
        {"seed": "x"}, {"seed": -5}])
    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_options_the_kind_ignores_are_checked_before_fitting(self, kind, options,
                                                                 monkeypatch):
        # stml scales nothing, igtd draws on its own grid and only igtd
        # searches, but fit checks every option for every kind, up front
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        for fit in ("fit_retire", "fit_stml", "fit_igtd"):
            monkeypatch.setattr(encoders, fit, no_fit)
        monkeypatch.setattr(scaling, "fit", no_fit)
        huge = options == {"size": (10**6, 10**6)}
        with pytest.raises(CapacityError if huge else ParameterError):
            encoders.fit(kind, toy_dataset(4), **options)

    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_training_data_must_be_a_dataset(self, kind):
        with pytest.raises(ParameterError, match="must be a Dataset, got ndarray"):
            encoders.fit(kind, toy_dataset(4).X)

    def test_seed_has_no_effect(self):
        # kept for callers that pass it; no encoder draws random numbers
        ds = toy_dataset(5, seed=11)
        for kind in encoders.KINDS:
            assert (to_doc(encoders.fit(kind, ds, size=(64, 64), seed=5))
                    == to_doc(encoders.fit(kind, ds, size=(64, 64))))

    def test_batch_matches_serial_and_order(self):
        ds = toy_dataset(4, n_rows=12, seed=6)
        model = encoders.fit("retire", ds, size=(32, 32))
        batch = encoders.encode_batch(model, ds.X)
        assert batch.shape == (12, 32, 32)
        assert batch.dtype == np.uint8
        for row, image in zip(ds.X, batch):
            assert np.array_equal(encoders.encode(model, row), image)

    LAYOUT_KEYS = {
        "retire": ["cx", "cy", "rmax", "n"],
        "stml": ["rows", "cols", "n"],
        "igtd": ["rows", "cols", "assignment", "error_trace"],
    }

    def test_model_json_round_trip(self, tmp_path):
        ds = toy_dataset(5, seed=11)
        for kind in encoders.KINDS:
            model = encoders.fit(kind, ds, size=(64, 64))
            path = tmp_path / f"{kind}.json"
            write_json(path, model)
            again = read_json(path, encoders.EncoderModel)
            x = ds.X[1]
            assert encoders.encode(model, x).tobytes() == \
                encoders.encode(again, x).tobytes()
            # key order is part of the file format
            doc = json.loads(path.read_text())
            assert list(doc) == ["kind", "canvas_size", "scaler", "layout"]
            assert list(doc["layout"]) == self.LAYOUT_KEYS[kind]
            if model.scaler is None:
                assert doc["scaler"] is None and again.scaler is None
                continue
            # scaler parameters survive exactly, as plain JSON
            assert list(doc["scaler"]) == ["mins", "maxs", "l", "u", "fit_fingerprint"]
            assert np.array_equal(model.scaler.mins, again.scaler.mins)
            assert np.array_equal(model.scaler.maxs, again.scaler.maxs)
            assert (model.scaler.l, model.scaler.u) == (again.scaler.l, again.scaler.u)
            assert model.scaler.fit_fingerprint == again.scaler.fit_fingerprint

    def test_model_from_bad_document(self):
        with pytest.raises(StateError):
            model_from_doc({"kind": "bogus", "layout": {}})
        with pytest.raises(StateError):
            model_from_doc(["retire"])

    @staticmethod
    def model_doc(kind):
        return to_doc(encoders.fit(kind, toy_dataset(5, seed=2), size=(64, 64)))

    @pytest.mark.parametrize("kind, path, value", [
        ("retire", ("layout", "n"), None),
        ("retire", ("canvas_size",), None),
        ("retire", ("scaler", "mins"), None),
        ("retire", ("layout", "extra"), 1),
        ("retire", ("layout", "n"), "5"),
        ("retire", ("layout", "n"), True),
        ("retire", ("layout", "cx"), float("nan")),
        ("retire", ("canvas_size",), [64]),
        ("retire", ("scaler",), None),
        ("retire", ("scaler", "mins"), [0.0, "a", 0.0, 0.0, 0.0]),
        ("stml", ("layout",), [3, 2, 5]),
        ("stml", ("scaler",), {}),
        ("igtd", ("layout", "error_trace"), 3.0),
    ])
    def test_malformed_document_raises_state_error(self, kind, path, value):
        doc = self.model_doc(kind)
        *parents, key = path
        node = doc
        for name in parents:
            node = node[name]
        if value is None and key != "scaler":
            del node[key]
        else:
            node[key] = value
        with pytest.raises(StateError):
            model_from_doc(doc)

    @pytest.mark.parametrize("assignment", [
        [0, 1, 2, 3, 6], [0, 1, 2, 3, -1], [0, 1, 2, 3, 3], [0.0, 1.0, 2.0, 3.0, 4.0]])
    def test_igtd_assignment_must_hit_distinct_grid_cells(self, assignment):
        doc = self.model_doc("igtd")  # 5 features on a 2x3 grid
        doc["layout"]["assignment"] = assignment
        with pytest.raises(StateError):
            model_from_doc(doc)

    @pytest.mark.parametrize("kind", ["retire", "igtd"])
    def test_layout_width_must_match_scaler(self, kind):
        doc = self.model_doc(kind)
        doc["scaler"]["mins"].pop()
        doc["scaler"]["maxs"].pop()
        with pytest.raises(StateError):
            model_from_doc(doc)

    def test_igtd_canvas_is_its_grid(self):
        doc = self.model_doc("igtd")
        doc["canvas_size"] = [64, 64]
        with pytest.raises(StateError):
            model_from_doc(doc)

    @pytest.mark.parametrize("key, value", [
        ("layout", {"rows": 10**6, "cols": 10**6, "n": 5}), ("canvas_size", [3, 3])])
    def test_loaded_stml_cells_must_hold_a_glyph(self, key, value):
        doc = self.model_doc("stml")
        doc[key] = value
        with pytest.raises(StateError, match="one 5x7 glyph per cell"):
            model_from_doc(doc)

    @pytest.mark.parametrize("kind", encoders.KINDS)
    @pytest.mark.parametrize("side", [10**5, 10**12])
    def test_canvas_pixel_cap(self, kind, side):
        doc = self.model_doc(kind)
        doc["canvas_size"] = [side, side]
        if kind == "igtd":  # its canvas is its grid, whatever size asks
            doc["layout"].update(rows=side, cols=side)
        with pytest.raises(StateError, match="exceeds 16777216 pixels"):
            model_from_doc(doc)
        if kind != "igtd":
            with pytest.raises(CapacityError):
                encoders.fit(kind, toy_dataset(5), size=(side, side))

    @pytest.mark.parametrize("kind", ["retire", "stml"])
    def test_canvas_sides_must_be_integers(self, kind):
        ds = toy_dataset(5)
        for size in (("a", 64), (10.5, 64), (64, 64.0)):
            with pytest.raises(ParameterError, match="must be a non-negative integer"):
                encoders.fit(kind, ds, size=size)
        model = encoders.fit(kind, ds, size=(np.int64(64), np.uint16(48)))
        assert model.canvas_size == (64, 48)
        assert all(type(side) is int for side in model.canvas_size)

    @pytest.mark.parametrize("size, error", [((0, 10**5000), ParameterError),
                                             ((10**5000, 64), CapacityError)])
    def test_canvas_side_too_long_to_print(self, size, error):
        # str() of an int of more than 4,300 digits raises ValueError
        with pytest.raises(error, match="canvas"):
            encoders.fit("stml", toy_dataset(5), size=size)

    @pytest.mark.parametrize("kind", ["retire", "stml"])
    @pytest.mark.parametrize("size", [(64,), 64, (64, 64, 3), None])
    def test_canvas_size_must_be_a_pair(self, kind, size):
        with pytest.raises(ParameterError, match="canvas size must be a"):
            encoders.fit(kind, toy_dataset(5), size=size)

    @pytest.mark.parametrize("build", [
        lambda m: encoders.EncoderModel("stml", (32.0, 32.0), None, m["stml"].layout),
        lambda m: encoders.EncoderModel("stml", ("a", "b"), None, m["stml"].layout),
        lambda m: encoders.EncoderModel("retire", (64, None), m["retire"].scaler,
                                        m["retire"].layout),
        lambda m: encoders.GridLayout(3.0, 2, 5),
        lambda m: encoders.GridLayout(3, "2", 5),
        lambda m: encoders.GridLayout(3, 2, 5.0),
        lambda m: encoders.IgtdMapping(2.0, 3, np.arange(5), ()),
        lambda m: encoders.IgtdMapping(2, None, np.arange(5), ()),
        lambda m: PolarLayout(32.0, 32.0, 28.0, 5.0),
    ], ids=["float-canvas", "text-canvas", "none-canvas", "float-grid-rows", "text-grid-cols",
            "float-grid-n", "float-igtd-rows", "none-igtd-cols", "float-vertex-count"])
    def test_integer_fields_checked_when_built(self, build):
        models = {kind: encoders.fit(kind, toy_dataset(5), size=(64, 64))
                  for kind in ("retire", "stml")}
        with pytest.raises(ParameterError, match="must be a non-negative integer"):
            build(models)

    @pytest.mark.parametrize("build, error", [
        (lambda: scaling.ScalerParams(["a"], ["b"], 0.1, 0.9, ""), ShapeError),
        (lambda: scaling.ScalerParams([0.0], [[1.0], 2.0], 0.1, 0.9, ""), ShapeError),
        (lambda: encoders.IgtdMapping(1, 2, [0, 1], ("a",)), ShapeError),
        (lambda: encoders.IgtdMapping(1, 2, [0, 1], 0.5), ShapeError),
        (lambda: encoders.IgtdMapping(1, 2, [0, 1], [[0.5]]), ShapeError),
    ], ids=["text-scaler-extrema", "ragged-scaler-maxs", "text-igtd-trace", "scalar-igtd-trace",
            "nested-igtd-trace"])
    def test_number_fields_checked_when_built(self, build, error):
        with pytest.raises(error):
            build()

    def test_ragged_igtd_assignment_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="assignment must hit distinct cells"):
            encoders.IgtdMapping(2, 3, [[[2]], 4, 1, 3, 0], (1.0,))

    @pytest.mark.parametrize("kind", [["retire"], {"retire": 0}, None, 5, b"retire"])
    def test_kind_must_be_text(self, kind):
        model = encoders.fit("retire", toy_dataset(5), size=(64, 64))
        with pytest.raises(StateError, match="model kind must be text"):
            encoders.EncoderModel(kind, model.canvas_size, model.scaler, model.layout)

    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_numpy_integer_fields_round_trip(self, kind, tmp_path):
        ds = toy_dataset(5, seed=3)
        model = encoders.fit(kind, ds, size=(64, 48))
        ints = {name: np.int64(value) for name, value in vars(model.layout).items()
                if isinstance(value, int)}
        layout = type(model.layout)(**{**vars(model.layout), **ints})
        size = tuple(map(np.uint16, model.canvas_size))
        built = encoders.EncoderModel(kind, size, model.scaler, layout)
        assert to_doc(built) == to_doc(model)
        write_json(tmp_path / "model.json", built)
        again = read_json(tmp_path / "model.json", encoders.EncoderModel)
        assert to_doc(again) == to_doc(model)
        assert all(type(side) is int for side in again.canvas_size)
        assert encoders.encode_batch(again, ds.X).tobytes() == \
            encoders.encode_batch(model, ds.X).tobytes()

    def test_largest_canvas_allowed(self):
        model = encoders.fit("stml", toy_dataset(5, n_rows=2), size=(4096, 4096))
        assert model.canvas_size == (4096, 4096)
        with pytest.raises(CapacityError):
            encoders.fit("stml", toy_dataset(5, n_rows=2), size=(4097, 4096))

    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_non_finite_rows_rejected(self, kind):
        ds = toy_dataset(5, seed=1)
        model = encoders.fit(kind, ds, size=(64, 64))
        for bad in (np.nan, np.inf, -np.inf):
            X = ds.X[:3].copy()
            X[1, 2] = bad
            with pytest.raises(ParameterError, match="row 1 "):
                encoders.encode_batch(model, X)
            with pytest.raises(ParameterError, match="row 0 "):
                encoders.encode(model, X[1])


def out_cases():
    """(id, model, rows) for every encoder: retire polygons, its stroke-only
    path, and 500 features, whose 4-row chunks 9 rows cross twice; stml;
    igtd with one surplus cell and with a full grid."""
    rng = np.random.default_rng(17)
    cases = []
    for kind, n, rows in [("retire", 1, 5), ("retire", 3, 7), ("retire", 60, 20),
                          ("retire", 500, 9), ("stml", 7, 6), ("igtd", 5, 8), ("igtd", 6, 8)]:
        model = encoders.fit(kind, toy_dataset(n, seed=n), size=(64, 64), igtd_max_iters=20)
        X = rng.normal(0.5, 0.6, size=(rows, n))
        X[rows // 2] = -1e6  # every feature clamped to the lower bound
        cases.append((f"{kind}-{n}", model, X))
    return cases


OUT_CASES = out_cases()


class TestOutStack:
    @pytest.mark.parametrize("model, X", [c[1:] for c in OUT_CASES], ids=[c[0] for c in OUT_CASES])
    def test_dirty_out_gives_the_fresh_bytes(self, model, X):
        fresh = encoders.encode_batch(model, X)
        dirty = np.full_like(fresh, 0xAB)
        assert encoders.encode_batch(model, X, out=dirty) is dirty
        assert dirty.tobytes() == fresh.tobytes()
        # a leading view of a larger stack, as run_cv_eval passes it
        larger = np.full((len(X) + 3, *fresh.shape[1:]), 0xAB, dtype=np.uint8)
        encoders.encode_batch(model, X, out=larger[:len(X)])
        assert larger[:len(X)].tobytes() == fresh.tobytes()
        assert (larger[len(X):] == 0xAB).all()

    def bad_outs(self, shape):
        rows, height, width = shape
        read_only = np.zeros(shape, dtype=np.uint8)
        read_only.setflags(write=False)
        return {
            "one-row-short": np.zeros((rows - 1, height, width), dtype=np.uint8),
            "one-column-wide": np.zeros((rows, height, width + 1), dtype=np.uint8),
            "flat": np.zeros((rows, height * width), dtype=np.uint8),
            "uint16": np.zeros(shape, dtype=np.uint16),
            "float64": np.zeros(shape),
            "strided": np.zeros((2 * rows, height, width), dtype=np.uint8)[::2],
            "fortran": np.zeros(shape, dtype=np.uint8, order="F"),
            "read-only": read_only,
            "list": np.zeros(shape, dtype=np.uint8).tolist(),
        }

    @pytest.mark.parametrize("model, X", [c[1:] for c in OUT_CASES], ids=[c[0] for c in OUT_CASES])
    def test_unfit_out_raises_shape_error_and_is_left_alone(self, model, X):
        width, height = model.canvas_size
        for name, out in self.bad_outs((len(X), height, width)).items():
            before = np.array(out, copy=True)
            with pytest.raises(ShapeError, match="out must be"):
                encoders.encode_batch(model, X, out=out)
            assert np.array_equal(np.asarray(out), before), name

    @pytest.mark.parametrize("kind", ["retire", "stml"])
    def test_encoding_into_out_allocates_no_stack(self, kind):
        # tracemalloc counts what numpy allocates: chunk temporaries and
        # glyph blits, well under half of the 4.8 MiB stack
        model = encoders.fit(kind, toy_dataset(60, seed=2), size=(224, 224))
        X = np.random.default_rng(2).uniform(size=(100, 60))
        out = np.empty((100, 224, 224), dtype=np.uint8)
        tracemalloc.start()
        try:
            encoders.encode_batch(model, X, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 2
