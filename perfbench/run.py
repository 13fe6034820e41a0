"""mdenc benchmark: one workload per run, timed end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload eval-sonar --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout. A run measures
set-up (import, data generation and CV plans) in a few fresh interpreters,
then repeats whole passes of the workload until ``--seconds`` have passed,
and reports medians with quartiles. With ``--trace 1`` it adds one traced
set-up and pass after the untimed ones and reports per-layer figures and
the tracing overhead. Every run checks its outputs (see ``workloads``) and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json. Results, digests and spans go to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy input sizes, for smoke tests")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for results, digests and spans")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cap_blas_threads(nproc: int) -> int:
    """Cap the BLAS pools at ``nproc`` threads (or a smaller cap already
    set) before numpy loads; return the cap."""
    cap = nproc
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program():
    """Import mdenc from this checkout's ``src/``, or return None."""
    package = ROOT / "src" / "mdenc"
    if not (package / "__init__.py").is_file():
        print(f"error: no mdenc sources at {package}", file=sys.stderr)
        return None
    sys.path.insert(0, str(package.parent))
    import mdenc
    if Path(mdenc.__file__).resolve().parent != package.resolve():
        print(f"error: imported mdenc from {mdenc.__file__}, not {package}", file=sys.stderr)
        return None
    return mdenc


def machine_facts(np, nproc: int, blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc, "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads}


def measure_setup(args) -> list[float]:
    """Set-up seconds in ``SETUP_PROBES`` fresh interpreters, one at a time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.toy:
        command.append("--toy")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(workload, state, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(state))
    return passes


def score(passes, verification, stored: dict | None):
    """Attempted and failed units over all passes. A unit fails when it
    raised, broke a property, or a digest differs from the run's first
    pass or from the digests stored for this seed. Verification and stored
    digests belong to the first pass."""
    attempted, failed = set(), {}
    first = passes[0].digests
    for index, result in enumerate(passes):
        for key, value in result.digests.items():
            unit = (index, key.split("/")[0])
            attempted.add(unit)
            if value is None:
                failed[unit] = f"{key} raised"
            elif first.get(key) != value:
                failed[unit] = f"{key} differs from the first pass"
        for name, reason in result.bad.items():
            failed[(index, name)] = reason
    for key, value in verification.digests.items():
        unit = (0, key.split("/")[0])
        attempted.add(unit)
        if value is None:
            failed[unit] = f"{key} raised"
    for name, reason in verification.bad.items():
        failed[(0, name)] = reason
    digests = {**first, **verification.digests}
    for key, value in (stored or {}).items():
        if digests.get(key) != value:
            failed[(0, key.split("/")[0])] = f"{key} differs from the stored digest"
    return attempted, failed, digests


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    mdenc = import_program()
    if mdenc is None:
        return 2
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.TOY if args.toy else workloads.FULL
    if args.setup_probe:
        workload.setup(args.seed, scale)
        print(f"{time.perf_counter() - started!r}")
        return 0

    import layers
    import spans
    facts = machine_facts(np, nproc, blas_threads)
    setup_times = measure_setup(args)
    state = workload.setup(args.seed, scale)
    passes = timed_passes(workload, state, args.seconds)
    untraced = [p.seconds for p in passes]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)
        try:
            traced_pass = workload.run_pass(workload.setup(args.seed, scale))
        finally:
            tracer.restore()
    verification = workload.verify(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "digests").mkdir(exist_ok=True)
    tag = f"{args.workload}-{scale.name}-s{args.seed}"
    digest_path = args.out / "digests" / f"{tag}.json"
    stored = json.loads(digest_path.read_text()) if digest_path.exists() else None
    all_passes = passes + ([traced_pass] if tracer else [])
    attempted, failed, digests = score(all_passes, verification, stored)
    if stored is None and not failed:
        digest_path.write_text(json.dumps(digests, indent=1, sort_keys=True))

    # end-to-end figures: median and quartiles over the untraced passes
    series = {"wall_s": (untraced, "s"), "setup_s": (setup_times, "s")}
    for key in sorted({k for p in passes for k in p.metrics}):
        stem = key.split(".")[0]
        unit = "ms" if stem.endswith("_ms") else "s" if stem.endswith("_s") else "1"
        series[key] = ([p.metrics[key] for p in passes if key in p.metrics], unit)
    summary = {name: quartiles(values) + (len(values), unit)
               for name, (values, unit) in series.items()}
    summary["peak_rss_mb"] = (peak_rss_mb, peak_rss_mb, peak_rss_mb, 1, "MiB")
    error_rate = len(failed) / len(attempted)
    summary["error_rate"] = (error_rate, error_rate, error_rate, len(attempted), "1")

    print(f"# mdenc benchmark: workload {args.workload} ({scale.name}), seed {args.seed}, "
          f"{len(passes)} timed pass(es) of {args.seconds:g} s budget, trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (q1, median, q3, count, unit) in summary.items():
        print(f"metric {name} {median!r} {unit} q1={q1!r} q3={q3!r} iqr={q3 - q1!r} n={count}")
    for (index, unit), reason in sorted(failed.items()):
        print(f"FAILED pass {index} {unit}: {reason}")

    result = {"workload": args.workload, "scale": scale.name, "seed": args.seed,
              "trace": args.trace, "machine": facts,
              "metrics": {name: dict(zip(("q1", "median", "q3", "n", "unit"), row))
                          for name, row in summary.items()},
              "attempted": len(attempted), "failed": len(failed)}
    if tracer:
        overhead = traced_pass.seconds - statistics.median(untraced)
        r2 = traced_pass.metrics.get("bench.linearity_r2", 0.0)
        per_layer = layers.metrics(tracer, r2, overhead, statistics.median(untraced))
        units = dict(layers.PER_LAYER)
        for name, value in per_layer.items():
            print(f"layer {name} {value!r} {units[name]}")
        if tracer.missing:
            print("# trace: not found, so not wrapped: " + ", ".join(tracer.missing))
        tracer.write(args.out / f"spans-{tag}.tsv")
        result["per_layer"] = per_layer
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": summary[name][1], "unit": unit} for name, unit in END_TO_END}
    (args.out / f"result-{tag}-t{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(attempted),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
