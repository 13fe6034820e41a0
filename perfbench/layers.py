"""Which mdenc calls the traced run wraps, and the per-layer metrics it
derives from their spans.

Every target is wrapped where its caller looks it up: the benchmark calls
the public functions through the ``mdenc`` package, ``run_cv_eval`` calls
``encoders.fit`` and ``encoders.encode_batch``, the encoders call their
raster, font and scaling helpers through their own module globals, and
``fill_polygon`` strokes its outline through ``raster.draw_polyline``.
"""

from __future__ import annotations

import numpy as np

import mdenc
from mdenc import _font, data, encoders, probe, raster, scaling

KINDS = ("retire", "stml", "igtd")

# (name, unit) in report order; BENCHMARK.json lists the same names
PER_LAYER = (
    ("raster.fill_s", "s"),
    ("raster.fill_calls", "count"),
    ("raster.stroke_s", "s"),
    ("raster.stroke_calls", "count"),
    ("raster.border_s", "s"),
    ("raster.vertices_s", "s"),
    ("font.draw_text_s", "s"),
    ("font.draw_text_calls", "count"),
    *((f"encoders.fit_s.{kind}", "s") for kind in KINDS),
    *((f"encoders.encode_s.{kind}", "s") for kind in KINDS),
    ("encoders.encode_calls", "count"),
    ("encoders.encode_batch_s", "s"),
    ("encoders.igtd_scans", "count"),
    ("encoders.igtd_capped", "count"),
    ("probe.knn1_pixel_s", "s"),
    ("probe.knn1_tabular_s", "s"),
    ("probe.knn_macs", "count"),
    ("probe.stack_mb", "MiB"),
    ("scaling.transform_s", "s"),
    ("scaling.transform_calls", "count"),
    ("data.plan_s", "s"),
    ("data.subset_s", "s"),
    ("stats.s", "s"),
    ("bench.linearity_r2", "1"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.span_cost_s", "s"),
)


def _images(batch) -> tuple[int, int]:
    """(image count, pixels per image) of a list of canvases or an
    (N, H, W) array."""
    shape = getattr(batch, "shape", None)
    if shape is not None:
        count = shape[0]
        return count, (batch[0].size if count else 0)
    batch = list(batch)
    if not batch:
        return 0, 0
    first = getattr(batch[0], "pixels", batch[0])
    return len(batch), first.size


def _note_knn_pixel(tracer, args, result) -> None:
    n_ref, pixels = _images(args["train_images"])
    n_query, _ = _images(args["test_images"])
    tracer.counts["probe.knn_macs"] += n_ref * n_query * pixels
    # the reference and query stacks as float64 matrices
    stack = (n_ref + n_query) * pixels * 8 / 2**20
    tracer.peaks["probe.stack_mb"] = max(tracer.peaks["probe.stack_mb"], stack)


def _note_knn_tabular(tracer, args, result) -> None:
    n_ref, n_features = np.shape(args["X_train"])
    tracer.counts["probe.knn_macs"] += n_ref * len(args["X_test"]) * n_features


def _note_igtd(tracer, args, result) -> None:
    scans = len(result.layout.error_trace) - 1
    tracer.counts["encoders.igtd_scans"] += scans
    max_iters = args.get("max_iters", encoders.DEFAULT_IGTD_MAX_ITERS)
    tracer.counts["encoders.igtd_capped"] += scans >= max_iters


def install(tracer) -> None:
    wrap = tracer.wrap
    wrap(mdenc, "run_cv_eval", "probe.run_cv_eval")
    wrap(mdenc, "make_cv_plan", "data.plan")
    wrap(mdenc, "combined_5x2cv_f_test", "stats.f_test")
    wrap(mdenc, "mean_ranks", "stats.mean_ranks")
    wrap(mdenc, "run_timing_sweep", "bench.sweep")
    wrap(data.Dataset, "subset", "data.subset")
    wrap(encoders, "fit", "encoders.fit")
    wrap(encoders, "encode_batch", "encoders.encode_batch")
    wrap(encoders, "encode", "encoders.encode")
    for kind in KINDS:
        wrap(encoders, f"fit_{kind}", f"encoders.fit.{kind}",
             _note_igtd if kind == "igtd" else None)
        wrap(encoders, f"encode_{kind}", f"encoders.encode.{kind}")
    wrap(encoders, "polar_vertices", "raster.vertices")
    wrap(encoders, "fill_polygon", "raster.fill")
    wrap(encoders, "draw_polyline", "raster.stroke")
    wrap(raster, "draw_polyline", "raster.stroke")
    wrap(_font, "draw_text", "font.draw_text")
    wrap(scaling, "transform", "scaling.transform")
    wrap(probe, "knn1_pixel", "probe.knn1_pixel", _note_knn_pixel)
    wrap(probe, "knn1_tabular", "probe.knn1_tabular", _note_knn_tabular)


def metrics(tracer, linearity_r2: float, overhead_s: float,
            untraced_s: float) -> dict[str, float]:
    """Per-layer values of one traced set-up and pass. ``fill_s`` and the
    ``encode_s`` figures are self times; the others are inclusive."""
    spans = tracer.summary()

    def total(name):
        return spans[name]["total"]

    def calls(name):
        return spans[name]["calls"]

    values = {
        "raster.fill_s": spans["raster.fill"]["self"],
        "raster.fill_calls": calls("raster.fill"),
        "raster.stroke_s": total("raster.stroke"),
        "raster.stroke_calls": calls("raster.stroke"),
        "raster.border_s": tracer.total_under("raster.stroke", "encoders.encode.retire"),
        "raster.vertices_s": total("raster.vertices"),
        "font.draw_text_s": total("font.draw_text"),
        "font.draw_text_calls": calls("font.draw_text"),
        "encoders.encode_calls": calls("encoders.encode"),
        "encoders.encode_batch_s": total("encoders.encode_batch"),
        "encoders.igtd_scans": tracer.counts["encoders.igtd_scans"],
        "encoders.igtd_capped": tracer.counts["encoders.igtd_capped"],
        "probe.knn1_pixel_s": total("probe.knn1_pixel"),
        "probe.knn1_tabular_s": total("probe.knn1_tabular"),
        "probe.knn_macs": tracer.counts["probe.knn_macs"],
        "probe.stack_mb": tracer.peaks["probe.stack_mb"],
        "scaling.transform_s": total("scaling.transform"),
        "scaling.transform_calls": calls("scaling.transform"),
        "data.plan_s": total("data.plan"),
        "data.subset_s": total("data.subset"),
        "stats.s": total("stats.f_test") + total("stats.mean_ranks"),
        "bench.linearity_r2": linearity_r2,
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": 100.0 * overhead_s / untraced_s,
        "trace.spans": len(tracer.spans),
        "trace.span_cost_s": len(tracer.spans) * tracer.span_cost(),
    }
    for kind in KINDS:
        values[f"encoders.fit_s.{kind}"] = total(f"encoders.fit.{kind}")
        values[f"encoders.encode_s.{kind}"] = spans[f"encoders.encode.{kind}"]["self"]
    return {name: float(values[name]) for name, _ in PER_LAYER}
