import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdenc import scaling
from mdenc._doc import read_json, write_json
from mdenc.errors import FitError, ParameterError, ShapeError, StateError
from mdenc.probe import knn1_tabular

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

    @pytest.mark.parametrize("values", [np.empty((0, 1)), [[1.0], [2.0, 3.0]], [[np.inf], [0.0]]])
    def test_bad_bounds_reported_before_bad_matrix(self, values):
        with pytest.raises(ParameterError, match="0 <= l < u <= 1"):
            scaling.fit(values, 0.9, 0.1)

    @pytest.mark.parametrize("bounds", [{"l": "0.1"}, {"u": None}, {"u": "0.9"}])
    def test_bounds_must_be_numbers(self, bounds):
        with pytest.raises(ParameterError, match=f"{next(iter(bounds))} must be a number"):
            scaling.fit(COLUMN, **bounds)

    def test_bounds_may_be_numpy_scalars(self):
        params = scaling.fit(COLUMN, np.float32(0.25), np.int64(1))
        assert (params.l, params.u) == (0.25, 1.0)
        assert type(params.l) is float and type(params.u) is float

    @pytest.mark.parametrize("values", [[1.0, 2.0], 3.0, np.zeros((2, 2, 2))])
    def test_matrix_must_be_2d(self, values):
        with pytest.raises(ShapeError, match="training matrix must be 2-d, got shape"):
            scaling.fit(values)

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

    @pytest.mark.parametrize("params", [None, {"mins": [0.0], "maxs": [1.0]}, "scaler"])
    def test_needs_fitted_params(self, params):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(StateError, match="not a fitted scaler"):
            scaling.transform(params, X)
        # the tabular probe scales through transform
        with pytest.raises(StateError, match="not a fitted scaler"):
            knn1_tabular(X, [0, 1], X, params)

    def test_shape_mismatch(self):
        params = scaling.fit(COLUMN)
        with pytest.raises(ShapeError):
            scaling.transform(params, np.zeros(2))

    @pytest.mark.parametrize("values", [[["a"]], [[1.0, 2.0], [3.0]]], ids=["text", "ragged"])
    def test_values_that_are_not_numbers_raise_shape_error(self, values):
        with pytest.raises(ShapeError, match="must be an array of numbers"):
            scaling.fit(values)
        with pytest.raises(ShapeError, match="must be an array of numbers"):
            scaling.transform(scaling.fit(COLUMN), values)

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


class TestParamsFields:
    @pytest.mark.parametrize("fingerprint", [5, None, b"ab", ["ab"]])
    def test_fingerprint_must_be_text(self, fingerprint):
        with pytest.raises(ParameterError, match="fit_fingerprint must be text"):
            scaling.ScalerParams([0.0], [1.0], 0.1, 0.9, fingerprint)

    def test_bounds_stored_as_floats(self):
        params = scaling.ScalerParams([0.0], [1.0], 0, np.float32(0.5), "")
        assert (params.l, params.u) == (0.0, 0.5)
        assert type(params.l) is float and type(params.u) is float


class TestSerialization:
    def test_json_round_trip_exact(self, tmp_path):
        # the scaler's part of a model file: plain JSON, read back exactly
        params = scaling.fit(np.array([[0.1, -3.7], [9.99, 2.2], [4.0, 0.0]]), 0.1, 0.8)
        path = tmp_path / "scaler.json"
        write_json(path, params)
        again = read_json(path, scaling.ScalerParams)
        assert np.array_equal(params.mins, again.mins)
        assert np.array_equal(params.maxs, again.maxs)
        assert (params.l, params.u) == (again.l, again.u)
        assert params.fit_fingerprint == again.fit_fingerprint
        # document structure is plain JSON
        doc = json.loads(path.read_text())
        assert set(doc) == {"mins", "maxs", "l", "u", "fit_fingerprint"}
