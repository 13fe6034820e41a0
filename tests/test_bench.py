import json
import math

import pytest

from mdenc import encoders
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

    def test_truncated_records_skipped(self):
        records = [record(n, 2.0 * n) for n in (5, 10, 20)]
        records.append(TimingRecord("retire", 40, 100, 0, math.nan, 0.1, True))
        slope, _, r_squared = linearity_fit(records)
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert r_squared == pytest.approx(1.0, abs=1e-9)


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
        # one-row encode
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
        assert batches == [(4, 6)] * 4 + [(9, 6)] * 4

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
