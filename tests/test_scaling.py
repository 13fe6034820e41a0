import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdenc import scaling
from mdenc._doc import from_doc, to_doc
from mdenc.errors import FitError, ParameterError, ShapeError

COLUMN = np.array([[0.0], [10.0], [5.0]])


class TestFit:
    def test_extrema(self):
        params = scaling.fit(COLUMN, 0.05, 0.95)
        assert params.mins.tolist() == [0.0]
        assert params.maxs.tolist() == [10.0]

    def test_constant_column_allowed(self):
        params = scaling.fit(np.array([[3.0], [3.0], [3.0]]))
        assert params.mins[0] == params.maxs[0] == 3.0

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            scaling.fit(COLUMN, 0.9, 0.1)
        with pytest.raises(ParameterError):
            scaling.fit(COLUMN, -0.1, 0.5)
        with pytest.raises(ParameterError):
            scaling.fit(COLUMN, 0.0, 1.1)

    def test_empty_matrix(self):
        with pytest.raises(FitError):
            scaling.fit(np.empty((0, 3)))
        with pytest.raises(FitError):
            scaling.fit(np.empty((3, 0)))

    def test_non_finite_span(self):
        with pytest.raises(FitError):
            scaling.fit(np.array([[-1e308], [1e308]]))
        with pytest.raises(FitError):
            scaling.fit(np.array([[0.0, 1.0], [np.nan, 2.0]]))

    def test_fingerprint_tracks_training_data(self):
        a = scaling.fit(COLUMN)
        b = scaling.fit(COLUMN)
        c = scaling.fit(COLUMN * 2)
        assert a.fit_fingerprint == b.fit_fingerprint
        assert a.fit_fingerprint != c.fit_fingerprint


class TestTransform:
    def test_midpoint(self):
        params = scaling.fit(COLUMN, 0.05, 0.95)
        assert scaling.transform(params, np.array([5.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_hit_bounds(self):
        params = scaling.fit(COLUMN, 0.05, 0.95)
        assert scaling.transform(params, np.array([0.0]))[0] == 0.05
        assert scaling.transform(params, np.array([10.0]))[0] == pytest.approx(0.95, abs=1e-12)

    def test_out_of_range_clamped(self):
        # S = (20 - 0)/(10 - 0) * 0.9 + 0.05 = 1.85, clamped to 1.0
        params = scaling.fit(COLUMN, 0.05, 0.95)
        assert scaling.transform(params, np.array([20.0]))[0] == 1.0
        assert scaling.transform(params, np.array([-20.0]))[0] == 0.0

    def test_degenerate_feature_maps_to_midpoint(self):
        params = scaling.fit(np.array([[3.0], [3.0]]), 0.05, 0.95)
        assert scaling.transform(params, np.array([3.0]))[0] == 0.5
        assert scaling.transform(params, np.array([99.0]))[0] == 0.5

    def test_overflowing_ratio_is_silent_and_clamped(self):
        # (1e300 - 0) / 1e-300 overflows to inf before the clamp
        params = scaling.fit(np.array([[0.0], [1e-300]]), 0.05, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = scaling.transform(params, np.array([[1e300], [-1e300]]))
        assert out.ravel().tolist() == [1.0, 0.0]

    def test_shape_mismatch(self):
        params = scaling.fit(COLUMN)
        with pytest.raises(ShapeError):
            scaling.transform(params, np.zeros(2))

    def test_matrix_input(self):
        params = scaling.fit(COLUMN)
        out = scaling.transform(params, np.array([[0.0], [10.0]]))
        assert out.shape == (2, 1)

    def test_training_rows_stay_in_guard_bounds(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            X = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(30, 5))
            l, u = sorted(rng.uniform(0, 1, size=2))
            if l == u:
                continue
            params = scaling.fit(X, l, u)
            scaled = scaling.transform(params, X)
            assert (scaled >= l).all() and (scaled <= u).all()
            assert np.allclose(scaled.min(axis=0), l, atol=1e-12)
            assert np.allclose(scaled.max(axis=0), u, atol=1e-12)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(-1e9, 1e9),
        st.floats(-1e9, 1e9),
    )
    def test_monotone(self, a, b, x1, x2):
        params = scaling.fit(np.array([[min(a, b)], [max(a, b)]]))
        lo, hi = sorted((x1, x2))
        s_lo = scaling.transform(params, np.array([lo]))[0]
        s_hi = scaling.transform(params, np.array([hi]))[0]
        assert s_lo <= s_hi

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        x = rng.normal(size=3)
        base = scaling.transform(scaling.fit(X), x)
        for factor in (2.0, 0.125, 1e3):
            scaled_fit = scaling.fit(X * factor)
            again = scaling.transform(scaled_fit, x * factor)
            assert np.allclose(base, again, atol=1e-12)


class TestSerialization:
    def test_json_round_trip_exact(self, tmp_path):
        # the scaler's part of a model file: plain JSON, read back exactly
        params = scaling.fit(np.array([[0.1, -3.7], [9.99, 2.2], [4.0, 0.0]]), 0.1, 0.8)
        path = tmp_path / "scaler.json"
        path.write_text(json.dumps(to_doc(params), indent=2))
        again = from_doc(scaling.ScalerParams, json.loads(path.read_text()), "scaler")
        assert np.array_equal(params.mins, again.mins)
        assert np.array_equal(params.maxs, again.maxs)
        assert (params.l, params.u) == (again.l, again.u)
        assert params.fit_fingerprint == again.fit_fingerprint
        # document structure is plain JSON
        doc = json.loads(path.read_text())
        assert set(doc) == {"mins", "maxs", "l", "u", "fit_fingerprint"}
