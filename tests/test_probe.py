import numpy as np
import pytest

from mdenc import encoders, scaling
from mdenc.data import Dataset, generate_synthetic, make_cv_plan
from mdenc.errors import MetricError, ParameterError, ShapeError, StateError
from mdenc.probe import EVAL_KINDS, EvalReport, balanced_accuracy, knn1_pixel, knn1_tabular, run_cv_eval


def stack(arrays):
    return np.asarray(arrays, dtype=np.uint8)


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
        pred = knn1_pixel(train, labels, train[2:3])
        assert pred.tolist() == [2]

    def test_one_image_per_class(self):
        a = np.zeros((8, 8)); a[0, 0] = 255
        b = np.zeros((8, 8)); b[7, 7] = 255
        train = stack([a, b])
        test = stack([b.copy()])
        assert knn1_pixel(train, [0, 1], test).tolist() == [1]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            train_arrays = rng.integers(0, 256, size=(3, 8, 8))
            test_arrays = rng.integers(0, 256, size=(2, 8, 8))
            labels = rng.integers(0, 3, size=3)
            pred = knn1_pixel(stack(train_arrays), labels, stack(test_arrays))
            for t, got in zip(test_arrays, pred):
                dists = [((t.astype(float) - tr.astype(float)) ** 2).sum()
                         for tr in train_arrays]
                assert got == labels[int(np.argmin(dists))]

    def test_tie_breaks_to_lowest_index(self):
        img = np.full((4, 4), 7)
        train = stack([img, img.copy()])
        pred = knn1_pixel(train, [5, 9], stack([img.copy()]))
        assert pred.tolist() == [5]

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            knn1_pixel(stack([np.zeros((4, 4))]), [0], stack([np.zeros((5, 5))]))

    def test_empty_training_set(self):
        with pytest.raises(MetricError):
            knn1_pixel(stack(np.zeros((0, 4, 4))), [], stack([np.zeros((4, 4))]))


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

    def test_self_prediction_is_perfect(self):
        ds = generate_synthetic(30, 3, seed=5)
        scaler = scaling.fit(ds.X)
        pred = knn1_tabular(ds.X, ds.y, ds.X, scaler)
        assert balanced_accuracy(ds.y, pred) == 1.0


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
        with pytest.raises(ParameterError, match="jobs"):
            run_cv_eval(ds, kind, plan, jobs=0)

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
        report = run_cv_eval(ds, "tabular", plan, config={"seed": 0})
        path = tmp_path / "report.json"
        report.save_json(path)
        assert EvalReport.load_json(path) == report

    @pytest.mark.parametrize("change", [
        {"mean_bac": None}, {"per_split_bac": "0.5"}, {"fold_predictions": [[0.5]]},
        {"dataset": 3}, {"config": []}, {"extra": 1}])
    def test_malformed_report_raises_state_error(self, change):
        doc = EvalReport("d", "retire", (0.5, 0.6), 0.55, ((0, 1),), {}).to_dict()
        for key, value in change.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with pytest.raises(StateError):
            EvalReport.from_dict(doc)
        with pytest.raises(StateError):
            EvalReport.from_dict([doc])
