import json
import math
from types import SimpleNamespace

import pytest

from mdenc import bench, encoders
from mdenc._doc import to_json
from mdenc.bench import (
    TimingRecord,
    linearity_fit,
    run_timing_sweep,
)
from mdenc.errors import FitError, ParameterError


def record(n, t):
    return TimingRecord("retire", n, 100, 5, t, 0.001)


class TestLinearityFit:
    def test_exact_line(self):
        records = [record(n, 2.0 * n + 1.0) for n in (5, 10, 20, 40)]
        slope, intercept, r_squared = linearity_fit(records)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)
        assert r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_times(self):
        slope, intercept, r_squared = linearity_fit([record(n, 3.5) for n in (1, 2, 3)])
        assert slope == 0.0
        assert intercept == 3.5
        assert r_squared == 0.0

    def test_too_few_records(self):
        with pytest.raises(FitError):
            linearity_fit([record(1, 1.0), record(2, 2.0)])

    def test_one_repeated_feature_count(self):
        with pytest.raises(FitError, match="feature counts are constant"):
            linearity_fit([record(10, t) for t in (1.0, 2.0, 3.0)])

    def test_truncated_records_skipped(self):
        records = [record(n, 2.0 * n) for n in (5, 10, 20)]
        records.append(TimingRecord("retire", 40, 100, 0, math.nan, 0.1, True))
        slope, _, r_squared = linearity_fit(records)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert r_squared == pytest.approx(1.0, abs=1e-9)

    def test_truncated_record_with_a_time_skipped(self):
        # a point cut short after some repeats has a median, over fewer
        # repeats than the others; the fit leaves it out all the same
        records = [record(n, 2.0 * n) for n in (5, 10, 20)]
        records.append(TimingRecord("retire", 40, 100, 2, 1000.0, 0.1, True))
        slope, _, r_squared = linearity_fit(records)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert r_squared == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(FitError):
            linearity_fit(records[1:])


class TestTimingSweep:
    def test_single_point(self):
        records = run_timing_sweep("retire", [10], n_samples=10, repeats=1,
                                   seed=0, size=(32, 32))
        assert len(records) == 1
        rec = records[0]
        assert rec.n_features == 10
        assert rec.repeats == 1
        assert rec.encode_time > 0.0
        assert rec.fit_time > 0.0
        assert not rec.truncated

    def test_records_in_sweep_order(self):
        records = run_timing_sweep("stml", [4, 8, 16], n_samples=8, repeats=2,
                                   seed=1, size=(64, 64))
        assert [r.n_features for r in records] == [4, 8, 16]
        assert all(r.encoder == "stml" for r in records)

    def test_budget_truncation_marker(self):
        records = run_timing_sweep("retire", [16], n_samples=50, repeats=1000,
                                   seed=0, budget_secs=0.05, size=(64, 64))
        assert records[0].truncated
        assert records[0].repeats < 1000

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            run_timing_sweep("retire", [], n_samples=10, repeats=1)
        with pytest.raises(ParameterError):
            run_timing_sweep("retire", [10, 5], n_samples=10, repeats=1)
        with pytest.raises(ParameterError):
            run_timing_sweep("retire", [10], n_samples=10, repeats=0)

    def test_counts_must_be_integers(self):
        for grid, repeats in ((["a"], 1), ([10.5], 1), ([10], 1.5), ([10], "2")):
            with pytest.raises(ParameterError, match="must be a non-negative integer"):
                run_timing_sweep("retire", grid, n_samples=10, repeats=repeats)

    @pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0, math.inf, "1", None, True])
    def test_budget_must_be_finite_and_positive(self, budget):
        with pytest.raises(ParameterError, match="budget_secs"):
            run_timing_sweep("retire", [10], n_samples=10, repeats=1, budget_secs=budget)

    @pytest.mark.parametrize("kind", encoders.KINDS)
    def test_times_whole_batches_only(self, monkeypatch, kind):
        # one warm-up plus one encode_batch per repeat, per point, and no
        # one-row encode: every point's warm-up first, then one round per
        # repeat of one batch per point
        batches = []
        encode_batch = encoders.encode_batch

        def counted(model, X):
            batches.append((model.layout.n, len(X)))
            return encode_batch(model, X)

        def one_row(model, x):
            raise AssertionError("the sweep encoded one row")

        monkeypatch.setattr(encoders, "encode_batch", counted)
        monkeypatch.setattr(encoders, "encode", one_row)
        run_timing_sweep(kind, [4, 9], n_samples=6, repeats=3, seed=2, size=(40, 40))
        assert batches == [(4, 6), (9, 6)] * 4

    @staticmethod
    def fake_timing(monkeypatch, fit_secs=lambda n: 0.0, stalled=range(0)):
        """A fake clock under the sweep: a fit of n features takes
        ``fit_secs(n)`` and an encode 1 ms + 0.1 ms per feature, 3x as long
        for the encode calls numbered in ``stalled`` (from 1). Returns the
        feature counts of the encode calls, in order."""
        clock, calls = [0.0], []

        def fit(kind, ds, size):
            clock[0] += fit_secs(ds.n_features)
            return None

        def encode_batch(model, X):
            calls.append(X.shape[1])
            clock[0] += (1e-3 + 1e-4 * X.shape[1]) * (3 if len(calls) in stalled else 1)

        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(encoders, "fit", fit)
        monkeypatch.setattr(encoders, "encode_batch", encode_batch)
        return calls

    def test_a_stall_lands_on_every_point_alike(self, monkeypatch):
        # 21 encodes in a row at 3x: one point's warm-up and 20 repeats if the
        # points were timed one after another (n = 350 then reads 3x and the
        # fit r^2 0.59), but 3 of each point's 20 repeats in rotation, which
        # no median sees
        grid = (10, 25, 50, 100, 200, 350, 500)
        calls = self.fake_timing(monkeypatch, stalled=range(106, 127))
        records = run_timing_sweep("retire", grid, n_samples=10, repeats=20)
        assert linearity_fit(records)[2] == pytest.approx(1.0, abs=1e-9)
        for r in records:
            assert (r.repeats, r.truncated) == (20, False)
            assert r.encode_time == pytest.approx(1e-3 + 1e-4 * r.n_features, rel=1e-9)
        assert calls == list(grid) * 21

    def test_fit_over_budget_skips_only_its_point(self, monkeypatch):
        # a point whose fit alone used up the budget is neither warmed up
        # nor timed; the budget counts each point's own work, so the points
        # after it still run every repeat
        calls = self.fake_timing(monkeypatch, fit_secs=lambda n: 10.0 if n == 8 else 0.0)
        records = run_timing_sweep("retire", [4, 8, 16], n_samples=10, repeats=5,
                                   budget_secs=5.0)
        assert calls == [4, 16] * 6
        assert [(r.repeats, r.truncated) for r in records] == [(5, False), (0, True), (5, False)]
        assert math.isnan(records[1].encode_time) and records[1].fit_time == 10.0
        assert records[2].encode_time == pytest.approx(1e-3 + 16e-4, rel=1e-9)

    def test_point_leaves_the_rotation_once_its_budget_is_spent(self, monkeypatch):
        # n = 100 costs 11 ms an encode: after a 5 ms fit it is timed 4 times
        # under a 40 ms budget (5 + 3 * 11 = 38 ms left it in); n = 4 runs on
        calls = self.fake_timing(monkeypatch, fit_secs=lambda n: 5e-3)
        records = run_timing_sweep("retire", [4, 100], n_samples=10, repeats=10,
                                   budget_secs=0.04)
        assert calls == [4, 100] * 5 + [4] * 6
        assert [(r.repeats, r.truncated) for r in records] == [(10, False), (4, True)]
        assert records[1].encode_time == pytest.approx(11e-3, rel=1e-9)

    def test_synthetic_data_deterministic_across_sweeps(self):
        a = run_timing_sweep("retire", [6], n_samples=10, repeats=1, seed=3, size=(32, 32))
        b = run_timing_sweep("retire", [6], n_samples=10, repeats=1, seed=3, size=(32, 32))
        assert a[0].n_features == b[0].n_features
        assert a[0].n_samples == b[0].n_samples  # times naturally vary

    def test_jsonl_round_trip(self):
        records = [record(5, 0.01), record(10, 0.02)]
        lines = [to_json(r, indent=None) for r in records]
        docs = [json.loads(line) for line in lines]
        assert [d["n_features"] for d in docs] == [5, 10]
        assert docs[0]["encoder"] == "retire"
