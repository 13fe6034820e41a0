import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import closed_form_stroke, count_table_fill, even_odd_oracle
from mdenc import raster
from mdenc.errors import CapacityError, ParameterError, ShapeError
from mdenc.raster import (
    MAX_COORD,
    PolarLayout,
    draw_polyline,
    fill_polygon,
    polar_layout,
    polar_vertices,
    scanline_fill_mask,
    to_pgm,
    to_ppm,
)


def blank(width, height):
    return np.zeros((height, width), dtype=np.uint8)


def set_pixels(image):
    ys, xs = np.nonzero(image)
    return set(zip(xs.tolist(), ys.tolist()))


def reference_line_pixels(x0, y0, x1, y1):
    """Classic integer Bresenham stepping, endpoints inclusive."""
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    while True:
        yield x, y
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy


@functools.cache
def stepped_window(x0, y0, x1, y1, width, height):
    """The pixels of ``reference_line_pixels`` inside a width x height
    image, from the same stepping written as one loop, which runs 2**25
    steps in a few seconds."""
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx - dy
    x, y = x0, y0
    inside = set()
    while True:
        if 0 <= x < width and 0 <= y < height:
            inside.add((x, y))
        if x == x1 and y == y1:
            return frozenset(inside)
        e2 = 2 * err
        if e2 > -dy:
            err -= dy
            x += sx
        if e2 < dx:
            err += dx
            y += sy


def reference_draw_polyline(pixels, pts, closed=False):
    """Step every segment one pixel at a time between the pixels that
    contain its endpoints, clipping each pixel to the image."""
    mapped = [(math.floor(x), math.floor(y))
              for x, y in np.asarray(pts, dtype=np.float64).reshape(-1, 2)]
    if closed or len(mapped) == 1:
        mapped.append(mapped[0])
    h, w = pixels.shape
    for (x0, y0), (x1, y1) in zip(mapped, mapped[1:]):
        for x, y in reference_line_pixels(x0, y0, x1, y1):
            if 0 <= x < w and 0 <= y < h:
                pixels[y, x] = 255
    return pixels


def reference_scanline_fill_mask(pts, width, height):
    """Even-odd fill one scanline at a time: sort the row's crossings and
    count those strictly right of each pixel center."""
    pts = np.asarray(pts, dtype=np.float64)
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    mask = np.zeros((height, width), dtype=bool)
    centers = np.arange(width, dtype=np.float64) + 0.5
    for j in range(height):
        yc = j + 0.5
        crossing = (y1 > yc) != (y2 > yc)
        xa, ya = x1[crossing], y1[crossing]
        xint = np.sort(xa + (yc - ya) * (x2[crossing] - xa) / (y2[crossing] - ya))
        right_of = xint.size - np.searchsorted(xint, centers, side="right")
        mask[j] = (right_of % 2) == 1
    return mask


# coordinates: any float on and around small canvases, half-integers that
# land on pixel centers and edges, and a few values that repeat so shapes
# get horizontal and vertical runs
coords = st.one_of(
    st.floats(-300.0, 300.0, allow_nan=False),
    st.integers(-140, 140).map(lambda v: v / 2.0),
    st.sampled_from([-1.0, 0.0, 0.5, 3.0, 3.5, 7.25]),
)
points = st.lists(st.tuples(coords, coords), min_size=1, max_size=12)
polygons = st.lists(st.tuples(coords, coords), min_size=3, max_size=12)
sides = st.integers(1, 69)


def signed_area(pts):
    x, y = np.asarray(pts, dtype=np.float64).T
    return np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


# ``coords`` plus the scanline bounds' edge cases: centers j + 0.5, y = 0.25
# and values below 0 on both sides of a center, and +-MAX_COORD
bound_coords = st.one_of(
    coords,
    st.integers(-10, 75).map(lambda j: j + 0.5),
    st.sampled_from([-MAX_COORD, MAX_COORD, -2.0, -0.5, -0.25, 0.25]),
)


@st.composite
def stacks(draw, least=3, coord=coords):
    """1-6 shapes of one vertex count; some collapse onto one point, run
    along one horizontal line or form a bowtie whose lobes cancel, so zero
    signed areas mix with ordinary ones."""
    n = draw(st.integers(least, 12))
    shapes = []
    for _ in range(draw(st.integers(1, 6))):
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        degenerate = {
            "point": [pts[0]] * n,
            "line": [(x, y0) for x, _ in pts],
            "bowtie": [(x0, y0), (x1, y1), (x1, y0), (x0, y1)] * (n // 4) + [(x0, y0)] * (n % 4),
        }
        shapes.append(degenerate.get(draw(st.sampled_from(["any", "point", "line", "bowtie"])), pts))
    return np.array(shapes, dtype=np.float64)


def random_polygon(rng, n_vertices, lo=-5.0, hi=69.0):
    return rng.uniform(lo, hi, size=(n_vertices, 2))


def random_convex_polygon(rng, n_vertices, width, height):
    cx, cy = rng.uniform(10, width - 10, size=2)
    radius = rng.uniform(3, min(width, height) / 2)
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=n_vertices))
    return np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1)


class TestPolarVertices:
    def test_axis_aligned_square(self):
        layout = PolarLayout(112.0, 112.0, 100.0, 4)
        verts = polar_vertices(layout, np.ones(4))
        expected = [(112.0, 12.0), (212.0, 112.0), (112.0, 212.0), (12.0, 112.0)]
        assert np.allclose(verts, expected, atol=1e-9)

    def test_single_vertex_at_12_oclock(self):
        layout = PolarLayout(112.0, 112.0, 100.0, 1)
        verts = polar_vertices(layout, np.array([1.0]))
        assert np.allclose(verts, [(112.0, 12.0)], atol=1e-9)

    def test_equilateral_triangle(self):
        layout = PolarLayout(32.0, 32.0, 20.0, 3)
        verts = polar_vertices(layout, np.ones(3))
        dists = [np.linalg.norm(verts[i] - verts[(i + 1) % 3]) for i in range(3)]
        assert max(dists) - min(dists) < 1e-9
        # direct trigonometric oracle for the side length
        assert dists[0] == pytest.approx(2 * 20.0 * math.sin(math.pi / 3), abs=1e-9)

    def test_zero_radius_collapses_to_center(self):
        layout = PolarLayout(10.0, 10.0, 5.0, 6)
        verts = polar_vertices(layout, np.zeros(6))
        assert np.allclose(verts, [(10.0, 10.0)] * 6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            polar_vertices(PolarLayout(0, 0, 1.0, 3), np.ones(4))

    def test_layout_validation(self):
        with pytest.raises(ParameterError):
            PolarLayout(0, 0, 1.0, 0)
        with pytest.raises(ParameterError):
            PolarLayout(0, 0, 0.0, 3)

    @pytest.mark.parametrize("cx, cy, rmax", [
        (1.0, 1.0, "a"), ("x", "y", 5.0), (None, 1.0, 5.0),
        (math.nan, 1.0, 5.0), (1.0, math.inf, 5.0), (1.0, 1.0, math.inf),
        (1.0, 1.0, math.nan), (-math.inf, 1.0, 5.0)])
    def test_layout_coordinates_checked_when_built(self, cx, cy, rmax):
        with pytest.raises(ParameterError, match="must be (a number|finite)"):
            PolarLayout(cx, cy, rmax, 3)

    def test_layout_coordinates_stored_as_floats(self):
        layout = PolarLayout(np.int64(10), np.float32(12.5), 5, 3)
        assert (layout.cx, layout.cy, layout.rmax) == (10.0, 12.5, 5.0)
        assert all(type(v) is float for v in (layout.cx, layout.cy, layout.rmax))

    def test_layout_factory_margin(self):
        layout = polar_layout(224, 224, 4)
        assert layout.rmax == 108.0
        assert (layout.cx, layout.cy) == (112.0, 112.0)
        with pytest.raises(CapacityError):
            polar_layout(6, 6, 3)


class TestDrawPolyline:
    def test_horizontal_segment(self):
        c = draw_polyline(blank(8, 8), [(1.5, 2.5), (5.5, 2.5)])
        assert set_pixels(c) == {(x, 2) for x in range(1, 6)}

    def test_single_point(self):
        c = draw_polyline(blank(8, 8), [(3.2, 4.9)])
        assert set_pixels(c) == {(3, 4)}

    def test_diagonal_one_pixel_per_column(self):
        c = draw_polyline(blank(8, 8), [(0.5, 0.5), (7.5, 7.5)])
        # integer stepping oracle: start (0,0), end (7,7), unit slope
        assert set_pixels(c) == {(i, i) for i in range(8)}
        assert c.sum() == 8 * 255

    def test_out_of_canvas_clipped(self):
        c = draw_polyline(blank(8, 8), [(-10.0, 3.5), (20.0, 3.5)])
        assert set_pixels(c) == {(x, 3) for x in range(8)}

    def test_closed_flag(self):
        open_px = set_pixels(draw_polyline(blank(16, 16), [(1, 1), (9, 1), (9, 9)]))
        closed_px = set_pixels(draw_polyline(blank(16, 16), [(1, 1), (9, 1), (9, 9)], closed=True))
        assert open_px < closed_px

    def test_idempotent(self):
        c = blank(8, 8)
        draw_polyline(c, [(0.5, 0.5), (7.5, 7.5)])
        first = c.copy()
        draw_polyline(c, [(0.5, 0.5), (7.5, 7.5)])
        assert np.array_equal(first, c)

    def test_needs_points(self):
        with pytest.raises(ParameterError):
            draw_polyline(blank(4, 4), [])

    def test_needs_a_uint8_image(self):
        with pytest.raises(ShapeError):
            draw_polyline(np.zeros((4, 4)), [(1, 1)])
        with pytest.raises(ShapeError):
            fill_polygon(np.zeros((2, 4, 4), dtype=np.uint8), [(0, 0), (3, 0), (3, 3)])
        with pytest.raises(ShapeError):
            to_pgm(np.zeros(4, dtype=np.uint8))


    def test_long_segments_clip_to_the_canvas(self):
        c = draw_polyline(blank(8, 8), [(-MAX_COORD, 3.5), (MAX_COORD, 3.5)])
        assert set_pixels(c) == {(x, 3) for x in range(8)}
        c = draw_polyline(blank(8, 8), [(-MAX_COORD, -MAX_COORD), (MAX_COORD, MAX_COORD)])
        assert set_pixels(c) == {(i, i) for i in range(8)}

    @pytest.mark.parametrize("draw, pts", [
        (fill_polygon, np.zeros((3, 3))),
        (draw_polyline, [[1, 2, 3]]),
        (draw_polyline, np.ones((2, 3))),
        (draw_polyline, [[1, 2], [3]]),
        (fill_polygon, "abc"),
    ], ids=["fill-3-columns", "stroke-3-columns", "stroke-2x3", "stroke-ragged", "fill-text"])
    def test_points_that_are_not_pairs_raise_shape_error(self, draw, pts):
        c = blank(8, 8)
        with pytest.raises(ShapeError):
            draw(c, pts)
        assert not c.any()

    def test_point_axes_must_match_the_stack(self):
        stack = np.zeros((2, 8, 8), dtype=np.uint8)
        with pytest.raises(ShapeError):
            draw_polyline(stack, np.ones((3, 4, 2)))
        with pytest.raises(ShapeError):
            fill_polygon(stack, np.ones((4, 2)))
        with pytest.raises(ShapeError):
            draw_polyline(blank(8, 8), np.ones((1, 4, 2)))
        with pytest.raises(ShapeError):
            scanline_fill_mask(np.ones(6), 8, 8)
        with pytest.raises(ParameterError):
            fill_polygon(stack, np.ones((2, 2, 2)))
        assert not stack.any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e30, MAX_COORD * 2])
    def test_bad_coordinates_raise_before_drawing(self, bad):
        shape = [(1.0, 1.0), (6.0, 1.0), (bad, 6.0)]
        for draw in (draw_polyline, fill_polygon):
            c = blank(8, 8)
            with pytest.raises(ParameterError):
                draw(c, shape)
            assert not c.any()
        with pytest.raises(ParameterError):
            scanline_fill_mask(shape, 8, 8)
        with pytest.raises(ParameterError):
            draw_polyline(blank(8, 8), [(2.0, bad)], closed=True)

    @pytest.mark.parametrize("width, height", [(-1, 5), (5, -2), (2.5, 4), (4, 3.0), (4, None)])
    def test_canvas_size_must_be_non_negative_integers(self, width, height):
        with pytest.raises(ParameterError, match="must be a non-negative integer"):
            scanline_fill_mask([(1.0, 1.0), (6.0, 1.0), (6.0, 6.0)], width, height)
        # the size is checked before the points
        with pytest.raises(ParameterError, match="must be a non-negative integer"):
            scanline_fill_mask("abc", width, height)

    @pytest.mark.parametrize("width, height", [(0, 5), (5, 0), (0, 0), (np.int64(3), np.uint8(2))])
    def test_empty_and_numpy_canvas_sizes_accepted(self, width, height):
        mask = scanline_fill_mask([(1.0, 1.0), (6.0, 1.0), (6.0, 6.0)], width, height)
        assert mask.shape == (height, width) and mask.dtype == bool


class TestStrokeOracle:
    def test_closed_form_matches_stepping_exhaustively(self):
        # every segment with |dx|, |dy| <= 64 from the middle of a canvas
        # that holds it whole
        for dx in range(-64, 65):
            for dy in range(-64, 65):
                pts = [(64.5, 64.5), (64.5 + dx, 64.5 + dy)]
                image = draw_polyline(blank(129, 129), pts)
                assert set_pixels(image) == set(reference_line_pixels(64, 64, 64 + dx, 64 + dy))

    @settings(max_examples=400, deadline=None)
    @given(pts=points, closed=st.booleans(), width=sides, height=sides)
    def test_matches_reference_stepping(self, pts, closed, width, height):
        got = draw_polyline(blank(width, height), pts, closed=closed)
        want = reference_draw_polyline(blank(width, height), pts, closed=closed)
        assert np.array_equal(got, want)

    def test_stepped_window_matches_the_reference_stepping(self):
        rng = np.random.default_rng(23)
        for x0, y0, x1, y1 in rng.integers(-20, 30, size=(300, 4)).tolist():
            want = {p for p in reference_line_pixels(x0, y0, x1, y1)
                    if 0 <= p[0] < 9 and 0 <= p[1] < 7}
            assert stepped_window(x0, y0, x1, y1, 9, 7) == want

    def test_matches_reference_on_seeded_shapes(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            width, height = (int(v) for v in rng.integers(1, 70, size=2))
            pts = rng.uniform(-40.0, 110.0, size=(int(rng.integers(1, 40)), 2))
            closed = bool(rng.integers(2))
            got = draw_polyline(blank(width, height), pts, closed=closed)
            want = reference_draw_polyline(blank(width, height), pts, closed=closed)
            assert np.array_equal(got, want)


class TestFillOracle:
    @settings(max_examples=400, deadline=None)
    @given(pts=polygons, width=sides, height=sides)
    def test_matches_reference_scanlines(self, pts, width, height):
        got = scanline_fill_mask(pts, width, height)
        assert np.array_equal(got, reference_scanline_fill_mask(pts, width, height))

    @settings(max_examples=200, deadline=None)
    @given(pts=polygons, width=sides, height=sides)
    def test_filled_shape_matches_reference(self, pts, width, height):
        want = blank(width, height)
        if signed_area(pts) != 0.0:  # not degenerate
            want[reference_scanline_fill_mask(pts, width, height)] = 255
        reference_draw_polyline(want, pts, closed=True)
        got = fill_polygon(blank(width, height), pts)
        assert np.array_equal(got, want)

    def test_matches_reference_on_seeded_polygons(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            width, height = (int(v) for v in rng.integers(1, 70, size=2))
            pts = rng.uniform(-40.0, 110.0, size=(int(rng.integers(3, 60)), 2))
            if rng.integers(2):
                pts = np.round(pts * 2.0) / 2.0  # half-integer vertices
            got = scanline_fill_mask(pts, width, height)
            assert np.array_equal(got, reference_scanline_fill_mask(pts, width, height))

    def test_crossing_columns_match_a_search_of_the_centers(self):
        # a vertical edge at x = v crosses each scanline at exactly v, so a
        # strip from v to MAX_COORD fills the centers from the first one not
        # left of v on, and a strip from -MAX_COORD to v the centers before it
        width = 9
        centers = np.arange(width) + 0.5
        values = np.concatenate([
            centers, np.nextafter(centers, -np.inf), np.nextafter(centers, np.inf),
            np.arange(-3.0, width + 3.0), [-MAX_COORD, -0.5, 0.25, width - 0.5, width, 1e6],
            [np.nextafter(MAX_COORD, 0.0), MAX_COORD]])
        first = np.searchsorted(centers, values, side="left")
        strips = [[(v, 0.0), (MAX_COORD, 0.0), (MAX_COORD, 2.0), (v, 2.0)] for v in values]
        strips += [[(-MAX_COORD, 0.0), (v, 0.0), (v, 2.0), (-MAX_COORD, 2.0)] for v in values]
        columns = np.arange(width)
        want = np.concatenate([columns >= first[:, None], columns < first[:, None]])
        got = scanline_fill_mask(strips, width, 2)
        assert np.array_equal(got, np.repeat(want[:, None, :], 2, axis=1))


M = MAX_COORD
# 4-vertex shapes on a 9 x 7 canvas: zero areas (a point, a horizontal run,
# a bowtie); shapes that cross no scanline (between the centers 0.5 and 1.5,
# above the canvas, below it, on the center line y = 3.5 only); vertices at
# centers, at y = 0.25 and below 0; +-MAX_COORD corners; and shapes hanging
# off each canvas edge and off all four at once
BOUND_CASES = np.array([
    [(2.0, 2.0)] * 4,
    [(-1.0, 3.5), (4.0, 3.5), (7.0, 3.5), (12.0, 3.5)],
    [(1.0, 1.0), (6.0, 5.0), (6.0, 1.0), (1.0, 5.0)],
    [(0.0, 0.6), (8.0, 0.75), (8.0, 1.5), (1.0, 1.5)],
    [(0.0, -9.0), (9.0, -9.0), (9.0, 0.5), (0.0, 0.5)],
    [(0.0, 7.0), (9.0, 7.0), (9.0, 12.0), (0.0, 7.5)],
    [(1.0, 3.5), (5.0, 3.5), (5.0, 3.5), (1.0, 3.5)],
    [(1.5, 0.5), (7.5, 2.5), (4.5, 6.5), (0.5, 3.5)],
    [(0.25, 0.25), (8.0, -3.0), (6.0, 4.5), (-2.0, 6.75)],
    [(-M, -M), (M, -M), (M, M), (-M, M)],
    [(-M, 2.5), (3.0, -M), (M, 4.5), (6.0, M)],
    [(-3.0, 1.0), (4.0, 1.0), (4.0, 5.0), (-3.0, 5.0)],
    [(5.0, 1.0), (12.0, 1.0), (12.0, 5.0), (5.0, 5.0)],
    [(2.0, -3.0), (7.0, -3.0), (7.0, 3.0), (2.0, 3.0)],
    [(2.0, 4.0), (7.0, 4.0), (7.0, 10.0), (2.0, 10.0)],
    [(4.5, -2.5), (11.5, 3.5), (4.5, 9.5), (-2.5, 3.5)],
])


# 2-point segments on a 12 x 12 canvas that leave it across their minor
# axis partway along: x-major ones through the bottom and the top edge, and
# y-major ones through the right and the left edge; the last two also start
# off the image. Reversed or closed, each is also stepped the other way
MINOR_EXITS = np.array([
    [(0.5, 6.5), (11.5, 15.5)],
    [(0.5, 5.5), (11.5, -3.5)],
    [(6.5, 0.5), (15.5, 11.5)],
    [(5.5, 0.5), (-3.5, 11.5)],
    [(-4.0, 2.25), (20.0, 13.75)],
    [(3.75, -6.0), (-7.25, 18.0)],
])


class TestCountTableOracle:
    """The sorted-run fill against the dense count-table fill it replaced,
    which lists each edge's scanlines as a superset and tests each one, so
    the closed-form scanline bounds are checked row by row."""

    @settings(max_examples=300, deadline=None)
    @given(pts=stacks(coord=bound_coords), width=sides, height=sides)
    @example(pts=BOUND_CASES, width=9, height=7)
    @example(pts=BOUND_CASES, width=1, height=1)
    @example(pts=BOUND_CASES[:0], width=9, height=7)
    def test_stacks_match_the_count_table(self, pts, width, height):
        parity = count_table_fill(pts, width, height)
        assert np.array_equal(scanline_fill_mask(pts, width, height), parity.astype(bool))
        stack = np.zeros((len(pts), height, width), dtype=np.uint8)
        want = draw_polyline(stack.copy(), pts, closed=True)
        nonzero_area = np.array([signed_area(shape) != 0.0 for shape in pts], dtype=bool)
        want[(parity != 0) & nonzero_area[:, None, None]] = 255
        assert np.array_equal(fill_polygon(stack, pts), want)


class TestStackOracle:
    """A stack call draws image r from points r exactly as a 2-d call
    would, checked image by image against the references."""

    @settings(max_examples=200, deadline=None)
    @given(pts=stacks(), width=sides, height=sides)
    def test_fill_matches_references(self, pts, width, height):
        masks = scanline_fill_mask(pts, width, height)
        assert masks.shape == (len(pts), height, width)
        filled = fill_polygon(np.zeros((len(pts), height, width), dtype=np.uint8), pts)
        for shape, mask, image in zip(pts, masks, filled):
            assert np.array_equal(mask, reference_scanline_fill_mask(shape, width, height))
            assert np.array_equal(mask, even_odd_oracle(shape, width, height))
            want = blank(width, height)
            if signed_area(shape) != 0.0:
                want[mask] = 255
            assert np.array_equal(image, reference_draw_polyline(want, shape, closed=True))

    @settings(max_examples=200, deadline=None)
    @given(pts=stacks(least=1), closed=st.booleans(), width=sides, height=sides)
    def test_stroke_matches_reference(self, pts, closed, width, height):
        stroked = draw_polyline(np.zeros((len(pts), height, width), dtype=np.uint8), pts, closed)
        for shape, image in zip(pts, stroked):
            want = reference_draw_polyline(blank(width, height), shape, closed=closed)
            assert np.array_equal(image, want)

    @settings(max_examples=200, deadline=None)
    @given(pts=stacks(least=1, coord=bound_coords), closed=st.booleans(), width=sides,
           height=sides)
    @example(pts=MINOR_EXITS, closed=True, width=12, height=12)
    @example(pts=MINOR_EXITS, closed=False, width=12, height=12)
    @example(pts=MINOR_EXITS[:, ::-1], closed=False, width=12, height=12)
    @example(pts=MINOR_EXITS, closed=True, width=5, height=9)
    def test_stroke_matches_closed_form_at_bounds(self, pts, closed, width, height):
        # the int64 closed form clips on the major axis only and masks the
        # minor one afterwards, so it checks the per-segment minor bounds;
        # the stepping reference is too slow for +-MAX_COORD, so it checks
        # the shapes whose points are all near the canvas
        stroked = draw_polyline(np.zeros((len(pts), height, width), dtype=np.uint8), pts, closed)
        want = closed_form_stroke(np.zeros_like(stroked), pts, closed)
        assert np.array_equal(stroked, want)
        for shape, image in zip(pts, stroked):
            if np.all(np.abs(shape) <= 300.0):
                assert np.array_equal(
                    image, reference_draw_polyline(blank(width, height), shape, closed=closed))

    @settings(max_examples=200, deadline=None)
    @given(pts=stacks(), width=sides, height=sides, seed=st.integers(0, 2**32 - 1))
    def test_fill_ors_into_set_pixels(self, pts, width, height, seed):
        # pixels already set stay set, and unset ones get the fill of a blank
        canvas = np.random.default_rng(seed).choice(
            np.array([0, 255], dtype=np.uint8), size=(len(pts), height, width))
        got = fill_polygon(canvas.copy(), pts)
        assert np.array_equal(got, canvas | fill_polygon(np.zeros_like(canvas), pts))

    def test_strided_views_are_drawn_in_place(self):
        base = np.zeros((3, 40, 60), dtype=np.uint8)
        view = base[::-1, ::2, 1::3]
        pts = np.random.default_rng(3).uniform(-4.0, 24.0, size=(3, 7, 2))
        fill_polygon(view, pts)
        for shape, image in zip(pts, view):
            assert np.array_equal(image, fill_polygon(blank(20, 20), shape))
        assert base.sum() == view.sum()

    def test_polar_vertices_of_rows(self):
        layout = PolarLayout(32.0, 32.0, 28.0, 5)
        scaled = np.random.default_rng(4).uniform(size=(3, 5))
        verts = polar_vertices(layout, scaled)
        assert verts.shape == (3, 5, 2)
        for row, v in zip(scaled, verts):
            assert np.array_equal(v, polar_vertices(layout, row))


class TestFloatBound:
    """The stroke's float64 minor steps at their largest numerators, about
    2**51: segments 2**25 steps long between +-MAX_COORD, and the flat fill
    keys of the largest stack that ``retire`` draws at 224 x 224."""

    @pytest.mark.parametrize("width, height", [(8, 8), (1, 4096), (4096, 1)])
    def test_longest_segments_match_the_closed_form_and_stepping(self, width, height):
        # extents 2**25 and 2**25 - 1, so the one step along the major axis
        # alone falls next to the origin, on the image or just off it; the
        # closed polylines step each segment both ways
        M = MAX_COORD
        shapes = np.array([
            [(-M, -M), (M, M - 0.5)],
            [(-M, M), (M, -M + 1.0)],
            [(M - 0.5, -M), (-M, M)],
        ])
        stroked = draw_polyline(np.zeros((3, height, width), dtype=np.uint8), shapes, closed=True)
        assert np.array_equal(stroked, closed_form_stroke(np.zeros_like(stroked), shapes, True))
        m = int(M)
        want = {(x, y) for x, y in stepped_window(-m, -m, m, m - 1, 4096, 4096)
                | stepped_window(m, m - 1, -m, -m, 4096, 4096) if x < width and y < height}
        assert want and set_pixels(stroked[0]) == want

    def test_largest_retire_stack_matches_single_images(self):
        # 6 vertices at 224 x 224 draw 167 rows per call, the 2**23-pixel
        # cap, so the fill keys of the last row run up to 167 * 224 * 224
        layout = polar_layout(224, 224, 6)
        pts = polar_vertices(layout, np.random.default_rng(24).uniform(size=(167, 6)))
        stack = fill_polygon(np.zeros((167, 224, 224), dtype=np.uint8), pts)
        for shape, image in zip(pts, stack):
            assert np.array_equal(image, fill_polygon(blank(224, 224), shape))


class TestFillPolygon:
    SQUARE = [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)]

    def test_axis_aligned_square_mask(self):
        mask = scanline_fill_mask(self.SQUARE, 8, 8)
        expected = np.zeros((8, 8), dtype=bool)
        expected[1:6, 1:6] = True  # centers strictly inside (1,6)x(1,6)
        assert np.array_equal(mask, expected)

    def test_fill_adds_stroke(self):
        c = fill_polygon(blank(8, 8), self.SQUARE)
        expected = np.zeros((8, 8), dtype=bool)
        expected[1:7, 1:7] = True  # 5x5 interior plus the stroked outline
        assert np.array_equal(c == 255, expected)

    def test_degenerate_polygon_strokes_single_pixel(self):
        c = fill_polygon(blank(8, 8), [(3.5, 3.5)] * 3)
        assert set_pixels(c) == {(3, 3)}

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            fill_polygon(blank(8, 8), [(0, 0), (1, 1)])

    @pytest.mark.parametrize("flat", [False, True])
    def test_points_checked_once_and_only_read(self, flat, monkeypatch):
        # a square and a second shape, zero-area or not, in one stack from
        # read-only points: one check of them, the square filled, a
        # collapsed shape stroked
        checked = []
        points = raster._points
        monkeypatch.setattr(raster, "_points", lambda *args: checked.append(args) or points(*args))
        pts = np.array([self.SQUARE, [(3.5, 3.5)] * 4 if flat else self.SQUARE[::-1]])
        pts.setflags(write=False)
        got = fill_polygon(np.zeros((2, 8, 8), dtype=np.uint8), pts)
        monkeypatch.undo()
        assert len(checked) == 1
        square = fill_polygon(blank(8, 8), self.SQUARE)
        assert np.array_equal(got[0], square)
        if flat:
            assert set_pixels(got[1]) == {(3, 3)}
        else:
            assert np.array_equal(got[1], square)

    def test_fill_matches_oracle_on_convex_polygons(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = random_convex_polygon(rng, int(rng.integers(3, 9)), 64, 64)
            mask = scanline_fill_mask(pts, 64, 64)
            assert np.array_equal(mask, even_odd_oracle(pts, 64, 64))

    def test_fill_matches_oracle_on_arbitrary_polygons(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pts = random_polygon(rng, int(rng.integers(3, 13)))
            mask = scanline_fill_mask(pts, 64, 64)
            assert np.array_equal(mask, even_odd_oracle(pts, 64, 64))

    def test_binarization_invariant(self):
        rng = np.random.default_rng(5)
        c = blank(32, 32)
        for _ in range(10):
            fill_polygon(c, random_polygon(rng, int(rng.integers(3, 8)), -4, 36))
            draw_polyline(c, random_polygon(rng, 3, -4, 36))
        assert set(np.unique(c)) <= {0, 255}

    def test_relabeling_symmetric_vector_preserves_count(self):
        # an all-equal scaled vector renders the same regular polygon no
        # matter which feature is first
        layout = PolarLayout(32.0, 32.0, 28.0, 7)
        scaled = np.full(7, 0.63)
        base = fill_polygon(blank(64, 64), polar_vertices(layout, scaled))
        count = int((base == 255).sum())
        for shift in range(1, 7):
            rolled = fill_polygon(blank(64, 64), polar_vertices(layout, np.roll(scaled, shift)))
            assert int((rolled == 255).sum()) == count

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = random_polygon(rng, 9)
        a = fill_polygon(blank(64, 64), pts)
        b = fill_polygon(blank(64, 64), pts)
        assert a.tobytes() == b.tobytes()


class TestExport:
    def test_pgm_bytes(self):
        c = blank(3, 2)
        c[0, 1] = 255
        data = to_pgm(c)
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[len(b"P5\n3 2\n255\n"):] == bytes([0, 255, 0, 0, 0, 0])

    def test_ppm_replicates_channels(self):
        c = blank(2, 1)
        c[0, 0] = 255
        data = to_ppm(c)
        assert data.startswith(b"P6\n2 1\n255\n")
        assert data[len(b"P6\n2 1\n255\n"):] == bytes([255, 255, 255, 0, 0, 0])
