"""The benchmark's workloads: inputs made from a seed, one timed pass
through the public mdenc API, and the outputs each pass is checked by.

Outputs are checked per unit: one unit is one CV split of one encoder, or
one point of a timing sweep. A pass reports a SHA-256 digest for each of
its units (``None`` when the unit raised) plus the units that broke a
property; ``verify`` adds digests of encoded images and of the IGTD search
outside the timed passes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import mdenc


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    name: str
    canvas: tuple[int, int]
    instances: dict            # dataset name -> row count
    igtd_max_iters: int
    sweep_counts: tuple[int, ...]
    sweep_samples: int
    sweep_repeats: int


FULL = Scale("full", (224, 224), {"banknote": 1372, "sonar": 208},
             mdenc.encoders.DEFAULT_IGTD_MAX_ITERS, (10, 100, 500), 100, 3)
# a few seconds per workload, for the smoke tests
TOY = Scale("toy", (64, 64), {"banknote": 120, "sonar": 60}, 20, (10, 100, 500), 8, 2)

FEATURES = {"banknote": 4, "sonar": 60}   # as the KEEL sets
SEPARATION = 4.0


def make_dataset(name: str, instances: int, seed: int) -> mdenc.Dataset:
    """Two unit-variance Gaussian classes of equal size whose centroids
    sit ``SEPARATION`` apart, shaped like the named KEEL set."""
    n_features = FEATURES[name]
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    rng = np.random.default_rng(np.random.SeedSequence([seed, key]))
    corner = rng.integers(0, 2, size=n_features).astype(np.float64)
    direction = 1.0 - 2.0 * corner
    centroids = np.stack([corner, corner + SEPARATION * direction / math.sqrt(n_features)])
    y = np.zeros(instances, dtype=np.int64)
    y[instances - instances // 2:] = 1
    X = centroids[y] + rng.standard_normal((instances, n_features))
    perm = rng.permutation(instances)
    return mdenc.Dataset(name, X[perm], y[perm],
                         tuple(f"f{i}" for i in range(n_features)), ("0", "1"))


def sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def pixels_of(image) -> np.ndarray:
    """uint8 pixel plane of a ``Canvas`` or of a bare array."""
    return np.asarray(getattr(image, "pixels", image), dtype=np.uint8)


def images_digest(images) -> tuple[str, bool]:
    """Digest of the binary PGM bytes of every image in order, and whether
    every pixel is 0 or 255."""
    digest = hashlib.sha256()
    binary = True
    for image in images:
        pix = pixels_of(image)
        digest.update(b"P5\n%d %d\n255\n" % (pix.shape[1], pix.shape[0]))
        digest.update(pix.tobytes())
        binary = binary and bool(np.isin(pix, (0, 255)).all())
    return digest.hexdigest(), binary


@dataclass
class Outcome:
    """What one pass (or the verification after the passes) produced."""

    seconds: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str | None] = field(default_factory=dict)  # "unit/what" -> hex
    bad: dict[str, str] = field(default_factory=dict)             # unit -> reason


def _report_failure(what: str) -> None:
    print(f"FAILED {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class EvalWorkload:
    """``run_cv_eval`` (full 5x2 protocol, jobs=1) for each encoder on one
    dataset, optionally followed by the pairwise combined F-tests and mean
    ranks over the per-split balanced accuracies."""

    def __init__(self, name: str, dataset: str, kinds: tuple[str, ...], compare: bool):
        self.name, self.dataset, self.kinds, self.compare = name, dataset, kinds, compare

    def setup(self, seed: int, scale: Scale) -> dict:
        ds = make_dataset(self.dataset, scale.instances[self.dataset], seed)
        return {"seed": seed, "scale": scale, "ds": ds, "plan": mdenc.make_cv_plan(ds, seed)}

    def run_pass(self, st: dict) -> Outcome:
        plan = st["plan"]
        splits = plan.repeats * plan.folds
        reports, times = {}, {}
        start = time.perf_counter()
        for kind in self.kinds:
            t0 = time.perf_counter()
            try:
                reports[kind] = mdenc.run_cv_eval(
                    st["ds"], kind, plan, size=st["scale"].canvas,
                    igtd_max_iters=st["scale"].igtd_max_iters, seed=st["seed"], jobs=1)
            except Exception:
                _report_failure(f"run_cv_eval {self.dataset}/{kind}")
            times[kind] = time.perf_counter() - t0
        if self.compare and len(reports) == len(self.kinds):
            for a, b in itertools.combinations(self.kinds, 2):
                mdenc.combined_5x2cv_f_test(reports[a].per_split_bac, reports[b].per_split_bac)
            mdenc.mean_ranks(np.array([reports[k].per_split_bac for k in self.kinds]).T)
        result = Outcome(time.perf_counter() - start)
        for kind in self.kinds:
            result.metrics[f"eval_s.{kind}"] = times[kind]
            report = reports.get(kind)
            for split in range(splits):
                unit = f"{kind}.split{split}"
                if report is None:
                    result.digests[f"{unit}/pred"] = None
                    continue
                pred = np.asarray(report.fold_predictions[split], dtype=np.int64)
                result.digests[f"{unit}/pred"] = sha256(pred.tobytes())
                if not report.mean_bac > 0.5:
                    result.bad[unit] = f"mean balanced accuracy {report.mean_bac:.4f} is at chance"
        return result

    def verify(self, st: dict) -> Outcome:
        """Refit every image encoder on the first split's training fold and
        encode its test fold, as ``run_cv_eval`` does for that split."""
        train_idx, test_idx = st["plan"].split(0, 0)
        ds_train = st["ds"].subset(train_idx)
        result = Outcome()
        for kind in self.kinds:
            if kind == "tabular":
                continue
            unit = f"{kind}.split0"
            try:
                model = mdenc.fit(kind, ds_train, size=st["scale"].canvas,
                                  igtd_max_iters=st["scale"].igtd_max_iters, seed=st["seed"])
                images = mdenc.encode_batch(model, st["ds"].X[test_idx])
            except Exception:
                _report_failure(f"encode {self.dataset}/{kind}")
                result.digests[f"{unit}/pgm"] = None
                continue
            result.digests[f"{unit}/pgm"], binary = images_digest(images)
            if kind in ("retire", "stml") and not binary:
                result.bad[unit] = "image is not binary"
            if kind == "igtd":
                mapping = model.layout
                trace = np.asarray(mapping.error_trace, dtype=np.float64)
                result.digests[f"{unit}/assignment"] = sha256(
                    np.asarray(mapping.assignment, dtype=np.int64).tobytes())
                result.digests[f"{unit}/error_trace"] = sha256(trace.tobytes())
                if np.any(np.diff(trace) > 0):
                    result.bad[unit] = "IGTD error trace increases"
        return result


class SweepWorkload:
    """``run_timing_sweep`` for one encoder over the scale's feature
    counts, then the least-squares linearity fit."""

    def __init__(self, name: str, kind: str):
        self.name, self.kind = name, kind

    def setup(self, seed: int, scale: Scale) -> dict:
        # the datasets run_timing_sweep draws for its points, kept to verify
        datasets = [mdenc.generate_synthetic(scale.sweep_samples, n, seed + index)
                    for index, n in enumerate(scale.sweep_counts)]
        return {"seed": seed, "scale": scale, "datasets": datasets}

    def run_pass(self, st: dict) -> Outcome:
        scale = st["scale"]
        start = time.perf_counter()
        try:
            records = mdenc.run_timing_sweep(self.kind, scale.sweep_counts, scale.sweep_samples,
                                             repeats=scale.sweep_repeats, seed=st["seed"],
                                             size=scale.canvas)
            r_squared = mdenc.linearity_fit(records)[2]
        except Exception:
            _report_failure(f"run_timing_sweep {self.kind}")
            records, r_squared = [], 0.0
        result = Outcome(time.perf_counter() - start, {"bench.linearity_r2": r_squared})
        by_count = {r.n_features: r for r in records}
        for n in scale.sweep_counts:
            unit = f"n{n}"
            record = by_count.get(n)
            if record is None:
                result.digests[f"{unit}/point"] = None
                continue
            result.digests[f"{unit}/point"] = sha256(repr(
                (record.encoder, record.n_features, record.n_samples, record.repeats)).encode())
            result.metrics[f"encode_ms.{unit}"] = 1e3 * record.encode_time / record.n_samples
            if record.truncated or record.repeats != scale.sweep_repeats \
                    or not record.encode_time > 0.0:
                result.bad[unit] = "sweep point truncated"
        return result

    def verify(self, st: dict) -> Outcome:
        """Encode every sweep point's rows with a model fitted as the sweep
        fits it."""
        result = Outcome()
        for n, ds in zip(st["scale"].sweep_counts, st["datasets"]):
            unit = f"n{n}"
            try:
                model = mdenc.fit(self.kind, ds, size=st["scale"].canvas, seed=st["seed"])
                images = mdenc.encode_batch(model, ds.X)
            except Exception:
                _report_failure(f"encode sweep point n={n}")
                result.digests[f"{unit}/pgm"] = None
                continue
            result.digests[f"{unit}/pgm"], binary = images_digest(images)
            if self.kind in ("retire", "stml") and not binary:
                result.bad[unit] = "image is not binary"
        return result


WORKLOADS = {
    w.name: w for w in (
        EvalWorkload("eval-banknote", "banknote", ("tabular", "stml"), compare=False),
        EvalWorkload("eval-sonar", "sonar", ("retire", "stml", "igtd"), compare=True),
        SweepWorkload("sweep-retire", "retire"),
    )
}
