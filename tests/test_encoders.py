import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from fixtures import make_benchmark_dataset
from mdenc import _font, encoders, scaling
from mdenc._doc import to_doc
from mdenc.data import Dataset
from mdenc.errors import CapacityError, FitError, ParameterError, ShapeError, StateError
from mdenc.raster import polar_vertices, scanline_fill_mask


def toy_dataset(n_features, n_rows=20, seed=0, name="toy"):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n_rows, n_features))
    y = np.tile([0, 1], n_rows // 2)
    return Dataset(name, X, y, tuple(f"f{i}" for i in range(n_features)), ("0", "1"))


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
        mask = _font.GLYPHS[ch][:, :5].repeat(scale, axis=0).repeat(scale, axis=1)
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


class TestFont:
    def test_text_size(self):
        # "8" is inked in its first and last column and row, so the ink of
        # "88888" spans the whole text: 5 glyphs of 5 plus 4 blank columns
        one = np.zeros((7, 29), dtype=np.uint8)
        _font.draw_text(one, "88888", (0, 0, 29, 7))
        assert ink_box(one) == (0, 0, 29, 7)
        three = np.zeros((21, 87), dtype=np.uint8)
        _font.draw_text(three, "88888", (0, 0, 87, 21))
        assert ink_box(three) == (0, 0, 87, 21)

    def test_largest_integer_scale_centered(self):
        # 86 // 29 = 2, 30 // 7 = 4: scale 2, text 58x14, centered in the rect
        pixels = np.zeros((40, 100), dtype=np.uint8)
        _font.draw_text(pixels, "88888", (5, 3, 91, 33))
        assert ink_box(pixels) == (5 + 14, 3 + 8, 5 + 14 + 58, 3 + 8 + 14)

    def test_draw_respects_clip(self):
        # text wider than its rect: nothing outside the rect is touched
        pixels = np.zeros((20, 20), dtype=np.uint8)
        _font.draw_text(pixels, "888", (2, 2, 6, 6))
        x0, y0, x1, y1 = ink_box(pixels)
        assert x0 >= 2 and y0 >= 2 and x1 <= 6 and y1 <= 6
        # the scale-1 text "8" is 5x7; in a 3x4 rect it is centered by floor
        # division (offsets (3 - 5) // 2 = -1 and (4 - 7) // 2 = -2) and cut
        pixels = np.zeros((20, 20), dtype=np.uint8)
        _font.draw_text(pixels, "8", (10, 10, 13, 14))
        glyph = _font.GLYPHS["8"][:, :5]
        assert np.array_equal(pixels[10:14, 10:13] > 0, glyph[2:6, 1:4])
        assert pixels.sum() == 255 * glyph[2:6, 1:4].sum()

    def test_clips_to_buffer(self):
        # a rect hanging off the top-left corner keeps its placement
        pixels = np.zeros((20, 20), dtype=np.uint8)
        _font.draw_text(pixels, "8", (-2, -3, 3, 4))
        glyph = _font.GLYPHS["8"][:, :5]
        assert np.array_equal(pixels[:4, :3] > 0, glyph[3:, 2:])
        assert pixels.sum() == 255 * glyph[3:, 2:].sum()
        # and one wholly outside draws nothing
        _font.draw_text(pixels, "8", (30, 0, 40, 10))
        assert pixels.sum() == 255 * glyph[3:, 2:].sum()

    def test_scaling_doubles_glyph(self):
        one = np.zeros((7, 5), dtype=np.uint8)
        two = np.zeros((14, 10), dtype=np.uint8)
        _font.draw_text(one, "7", (0, 0, 5, 7))
        _font.draw_text(two, "7", (0, 0, 10, 14))
        assert np.array_equal(two, one.repeat(2, axis=0).repeat(2, axis=1))

    def test_unknown_glyph(self):
        pixels = np.zeros((8, 20), dtype=np.uint8)
        with pytest.raises(ParameterError, match="'x'"):
            _font.draw_text(pixels, "1x", (0, 0, 20, 8))
        assert not pixels.any()

    def test_empty_text_draws_nothing(self):
        pixels = np.zeros((8, 8), dtype=np.uint8)
        _font.draw_text(pixels, "", (0, 0, 8, 8))
        assert not pixels.any()

    def test_glyphs_carry_blank_spacer(self):
        for glyph in _font.GLYPHS.values():
            assert glyph.shape == (_font.GLYPH_HEIGHT, _font.GLYPH_WIDTH + 1)
            assert not glyph[:, -1].any()


texts = st.floats(allow_nan=False, allow_infinity=False).map(encoders.format_value)
sides = st.integers(1, 80)


class TestFontOracle:
    @settings(max_examples=400, deadline=None)
    @given(text=texts, width=sides, height=sides, x0=st.integers(-40, 90),
           y0=st.integers(-40, 90), w=st.integers(0, 130), h=st.integers(0, 130))
    def test_matches_reference(self, text, width, height, x0, y0, w, h):
        rect = (x0, y0, x0 + w, y0 + h)
        got = np.zeros((height, width), dtype=np.uint8)
        _font.draw_text(got, text, rect)
        want = reference_draw_text(np.zeros((height, width), dtype=np.uint8), text, rect)
        assert np.array_equal(got, want)

    def test_matches_reference_on_seeded_cells(self):
        # narrow cells, cells off every edge and values of every magnitude
        rng = np.random.default_rng(23)
        for _ in range(300):
            width, height = (int(v) for v in rng.integers(1, 70, size=2))
            x0, y0 = (int(v) for v in rng.integers(-30, 70, size=2))
            w, h = (int(v) for v in rng.integers(0, 90, size=2))
            value = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            text = encoders.format_value(value)
            rect = (x0, y0, x0 + w, y0 + h)
            got = np.zeros((height, width), dtype=np.uint8)
            _font.draw_text(got, text, rect)
            want = reference_draw_text(np.zeros((height, width), dtype=np.uint8), text, rect)
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
            assert set(text) <= set(_font.GLYPHS)


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


def igtd_rank_matrices(model, ds):
    mapping = model.layout
    scaled = scaling.transform(model.scaler, ds.X)
    rank_feat = encoders._pair_rank_matrix(encoders._column_distances(scaled))
    rank_pix = encoders._pair_rank_matrix(
        encoders._cell_distances(mapping.rows, mapping.cols, mapping.n))
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
    one pair at a time (the oracle for ``encoders._block_deltas``)."""
    others = np.ones(assignment.shape[0], dtype=bool)
    others[i] = others[j] = False
    k = np.flatnonzero(others)
    ai, aj, ak = assignment[i], assignment[j], assignment[k]
    before = (np.abs(rank_feat[i, k] - rank_pix[ai, ak]).sum()
              + np.abs(rank_feat[j, k] - rank_pix[aj, ak]).sum())
    after = (np.abs(rank_feat[i, k] - rank_pix[aj, ak]).sum()
             + np.abs(rank_feat[j, k] - rank_pix[ai, ak]).sum())
    return float(after - before)


def reference_swap_descent(rank_feat, rank_pix, max_iters, patience, seed):
    """Per-pair restarted first-improvement descent: the oracle for
    ``encoders._swap_descent``, returning the same
    (assignment, trace, restarts, converged)."""
    n = rank_feat.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assignment = np.arange(n)
    error = encoders.assignment_error(rank_feat, rank_pix, assignment)
    best_assignment, best_error = assignment.copy(), error
    trace = [best_error]
    descent_improved_best = False
    stale = restarts = 0
    for _ in range(max_iters):
        improved = False
        for p in rng.permutation(len(pairs)):
            i, j = pairs[p]
            delta = reference_swap_delta(rank_feat, rank_pix, assignment, i, j)
            if delta < 0.0:
                assignment[[i, j]] = assignment[[j, i]]
                error += delta
                improved = True
                break
        if error < best_error:
            best_error = error
            best_assignment = assignment.copy()
            descent_improved_best = True
        trace.append(best_error)
        if improved:
            continue
        stale = 0 if descent_improved_best else stale + 1
        if stale >= patience:
            return best_assignment, trace, restarts, True
        assignment = rng.permutation(n)
        error = encoders.assignment_error(rank_feat, rank_pix, assignment)
        descent_improved_best = False
        restarts += 1
    return best_assignment, trace, restarts, False


def random_rank_matrices(n, seed, coarse=False):
    """Feature and pixel rank matrices of a random n-feature problem;
    ``coarse`` rounds the data so feature distances tie as well."""
    X = np.random.default_rng(seed).uniform(0.0, 1.0, size=(12, n))
    if coarse:
        X = np.round(X)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    return (encoders._pair_rank_matrix(encoders._column_distances(X)),
            encoders._pair_rank_matrix(encoders._cell_distances(rows, cols, n)))


class TestSwapSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), data_seed=st.integers(0, 2**16),
           seed=st.integers(0, 2**32 - 1), max_iters=st.integers(1, 200),
           patience=st.integers(1, 3), coarse=st.booleans())
    def test_block_descent_matches_per_pair_descent(self, n, data_seed, seed,
                                                    max_iters, patience, coarse):
        rank_feat, rank_pix = random_rank_matrices(n, data_seed, coarse)
        got = encoders._swap_descent(rank_feat, rank_pix, max_iters, patience, seed)
        want = reference_swap_descent(rank_feat, rank_pix, max_iters, patience, seed)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]  # exact, element by element
        assert got[2:] == want[2:]
        if len(got[1]) - 1 < max_iters:
            assert got[3]  # stopped early only on patience

    @pytest.mark.parametrize("coarse", [False, True])
    def test_block_deltas_equal_per_pair_deltas(self, coarse):
        n = 23
        rank_feat, rank_pix = random_rank_matrices(n, 5, coarse)
        assignment = np.random.default_rng(6).permutation(n)
        P = rank_pix[np.ix_(assignment, assignment)]
        D = np.abs(rank_feat - P)
        first, second = np.triu_indices(n, 1)
        deltas = encoders._block_deltas(rank_feat, P, D, first, second)
        want = [reference_swap_delta(rank_feat, rank_pix, assignment, i, j)
                for i, j in zip(first, second)]
        assert deltas.tolist() == want
        assert (deltas < 0).any() and (deltas > 0).any()

    def test_search_is_logged(self, caplog):
        ds = toy_dataset(12, seed=4)
        with caplog.at_level("INFO", logger="mdenc.encoders"):
            encoders.fit_igtd(ds, seed=0)
            encoders.fit_igtd(ds, max_iters=1, seed=0)
        converged, capped = [r.getMessage() for r in caplog.records]
        assert converged.startswith("igtd search: 12 features, ")
        assert converged.endswith(" converged")
        assert capped == "igtd search: 12 features, 1 scans, 0 restarts, stopped at max_iters"


class TestIgtd:
    def test_two_features_symmetric(self):
        ds = toy_dataset(2, seed=1)
        model = encoders.fit_igtd(ds, seed=0)
        mapping = model.layout
        assert (mapping.rows, mapping.cols) == (1, 2)
        trace = np.array(mapping.error_trace)
        # both assignments have equal error; no swap ever improves
        assert trace[0] == trace[-1]
        assert np.array_equal(mapping.assignment, np.array([0, 1]))

    def test_grid_shapes(self):
        assert encoders.fit_igtd(toy_dataset(5), seed=0).layout.rows == 2
        assert encoders.fit_igtd(toy_dataset(5), seed=0).layout.cols == 3
        model = encoders.fit_igtd(toy_dataset(9), seed=0)
        assert (model.layout.rows, model.layout.cols) == (3, 3)
        assert model.canvas_size == (3, 3)

    def test_four_features_reach_exhaustive_minimum(self):
        for seed in range(5):
            ds = toy_dataset(4, seed=100 + seed)
            model = encoders.fit_igtd(ds, seed=seed)
            rank_feat, rank_pix = igtd_rank_matrices(model, ds)
            best = min(encoders.assignment_error(rank_feat, rank_pix, np.array(p))
                       for p in itertools.permutations(range(4)))
            assert model.layout.error_trace[-1] == best

    def test_error_trace_non_increasing(self):
        for seed in range(10):
            ds = toy_dataset(int(np.random.default_rng(seed).integers(3, 8)), seed=seed)
            trace = np.array(encoders.fit_igtd(ds, seed=seed).layout.error_trace)
            assert (np.diff(trace) <= 0).all()

    def test_incremental_error_equals_scratch_recomputation(self):
        for seed in range(6):
            ds = toy_dataset(7, seed=50 + seed)
            model = encoders.fit_igtd(ds, seed=seed)
            rank_feat, rank_pix = igtd_rank_matrices(model, ds)
            recomputed = encoders.assignment_error(rank_feat, rank_pix,
                                                   model.layout.assignment)
            assert model.layout.error_trace[-1] == recomputed  # exact
            assert oracle_error(ds, model, model.layout.assignment) == recomputed

    def test_intensities(self):
        ds = toy_dataset(5, seed=9)
        model = encoders.fit_igtd(ds, l=0.05, u=0.95, seed=0)
        top = encoders.encode(model, ds.X.max(axis=0))
        rows, cols = divmod(model.layout.assignment, model.layout.cols)
        assert (top[rows, cols] == 242).all()  # round(255 * 0.95)
        bottom = encoders.encode(model, ds.X.min(axis=0))
        assert (bottom[rows, cols] == 13).all()  # round(255 * 0.05)

    def test_surplus_cells_blank(self):
        ds = toy_dataset(5, seed=9)
        model = encoders.fit_igtd(ds, seed=0)
        canvas = encoders.encode(model, ds.X.max(axis=0))
        assert canvas.size == 6
        assert int((canvas == 0).sum()) == 1

    def test_preconditions(self):
        with pytest.raises(FitError):
            encoders.fit_igtd(toy_dataset(1), seed=0)
        with pytest.raises(ParameterError):
            encoders.fit_igtd(toy_dataset(3), max_iters=0, seed=0)

    def test_deterministic_per_seed(self):
        ds = toy_dataset(6, seed=3)
        a = encoders.fit_igtd(ds, seed=7)
        b = encoders.fit_igtd(ds, seed=7)
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

    def test_batch_matches_serial_and_order(self):
        ds = toy_dataset(4, n_rows=12, seed=6)
        model = encoders.fit("retire", ds, size=(32, 32))
        serial = encoders.encode_batch(model, ds.X, jobs=1)
        parallel = encoders.encode_batch(model, ds.X, jobs=2)
        assert serial.shape == parallel.shape == (12, 32, 32)
        assert serial.dtype == parallel.dtype == np.uint8
        assert serial.tobytes() == parallel.tobytes()
        for row, image in zip(ds.X, serial):
            assert np.array_equal(encoders.encode(model, row), image)

    def test_jobs_below_one_rejected(self):
        ds = toy_dataset(4, n_rows=6)
        model = encoders.fit("retire", ds, size=(32, 32))
        for jobs in (0, -3):
            with pytest.raises(ParameterError, match="jobs"):
                encoders.encode_batch(model, ds.X, jobs=jobs)

    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        # a stub pool that records its size and maps inline: no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(encoders, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(encoders.os, "cpu_count", lambda: 3)
        ds = toy_dataset(4, n_rows=40, seed=6)
        model = encoders.fit("retire", ds, size=(32, 32))
        serial = encoders.encode_batch(model, ds.X)
        for jobs, pool_size in ((1000, 3), (3, 3), (2, 2)):
            assert encoders.encode_batch(model, ds.X, jobs=jobs).tobytes() == serial.tobytes()
            assert sizes.pop() == pool_size
        monkeypatch.setattr(encoders.os, "cpu_count", lambda: None)
        assert encoders.encode_batch(model, ds.X, jobs=1000).tobytes() == serial.tobytes()
        assert sizes == []  # an unknown core count runs serially

    LAYOUT_KEYS = {
        "retire": ["cx", "cy", "rmax", "n"],
        "stml": ["rows", "cols", "n"],
        "igtd": ["rows", "cols", "assignment", "error_trace"],
    }

    def test_model_json_round_trip(self, tmp_path):
        ds = toy_dataset(5, seed=11)
        for kind in encoders.KINDS:
            model = encoders.fit(kind, ds, size=(64, 64), seed=3)
            path = tmp_path / f"{kind}.json"
            encoders.save_model(model, path)
            again = encoders.load_model(path)
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
            encoders.model_from_dict({"kind": "bogus", "layout": {}})
        with pytest.raises(StateError):
            encoders.model_from_dict(["retire"])

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
            encoders.model_from_dict(doc)

    @pytest.mark.parametrize("assignment", [
        [0, 1, 2, 3, 6], [0, 1, 2, 3, -1], [0, 1, 2, 3, 3], [0.0, 1.0, 2.0, 3.0, 4.0]])
    def test_igtd_assignment_must_hit_distinct_grid_cells(self, assignment):
        doc = self.model_doc("igtd")  # 5 features on a 2x3 grid
        doc["layout"]["assignment"] = assignment
        with pytest.raises(ParameterError):
            encoders.model_from_dict(doc)

    @pytest.mark.parametrize("kind", ["retire", "igtd"])
    def test_layout_width_must_match_scaler(self, kind):
        doc = self.model_doc(kind)
        doc["scaler"]["mins"].pop()
        doc["scaler"]["maxs"].pop()
        with pytest.raises(ShapeError):
            encoders.model_from_dict(doc)

    def test_igtd_canvas_is_its_grid(self):
        doc = self.model_doc("igtd")
        doc["canvas_size"] = [64, 64]
        with pytest.raises(ShapeError):
            encoders.model_from_dict(doc)

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
