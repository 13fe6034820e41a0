"""Command-line interface wiring the modules into end-to-end workflows.

Subcommands: ``fit``, ``encode``, ``eval``, ``stats``, ``bench``. A
command's artefact (strict JSON, JSONL for sweeps) goes to ``--out``, or to
stdout without it; every line for people (``wrote ...``, summaries, the
``stats`` table) goes to stderr. Exit codes: 0 success, 2 usage/validation
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import bench, data, encoders, probe, scaling, stats
from ._doc import read_json, to_json
from .errors import MdencError, ParameterError, ParseError, brief
from .raster import to_pgm, to_ppm


def _size_type(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        size = (int(w), int(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from None
    if size[0] < 1 or size[1] < 1:
        raise argparse.ArgumentTypeError("size must be positive")
    return size


def _grid_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of ints, got {text!r}") from None


def _load_dataset(args) -> data.Dataset:
    path = Path(args.dataset)
    if not path.exists():
        raise ParameterError(f"dataset not found: {path}")
    fmt = args.format
    if fmt == "auto":
        fmt = "keel" if path.suffix.lower() == ".dat" else "csv"
    label = args.label_column
    try:
        label = -1 if label is None else int(label)
    except ValueError:
        pass  # a column name
    try:
        return data.load_keel(path) if fmt == "keel" else data.load_csv(path, label)
    except ParseError as exc:
        if args.format != "auto":
            raise
        raise ParseError(f"{path.name} read as {fmt}, guessed from its suffix: {exc}; "
                         "pass --format keel or --format csv to set the format") from exc


def _parse_rows(spec: str, n_rows: int) -> list[int]:
    if spec == "all":
        return list(range(n_rows))
    if ":" in spec:  # a Python slice: negative bounds count from the end
        try:
            start, stop = (int(t) if t else None for t in spec.split(":", 1))
        except ValueError:
            raise ParameterError(f"bad row range {spec!r}") from None
        rows = list(range(n_rows)[start:stop])
    else:
        try:
            rows = [int(t) for t in spec.split(",") if t.strip()]
        except ValueError:
            raise ParameterError(f"bad row list {spec!r}") from None
        for r in rows:
            if not 0 <= r < n_rows:
                raise ParameterError(f"row {r} out of range (dataset has {n_rows} rows)")
    if not rows:
        raise ParameterError("no rows selected")
    return rows


def _emit(args, text: str) -> None:
    """The one output path: a command's artefact ``text`` goes to ``--out``,
    or to stdout, newline-terminated, when there is no ``--out``."""
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_fit(args) -> int:
    ds = _load_dataset(args)
    model = encoders.fit(args.encoder, ds, l=args.l, u=args.u, size=args.size,
                         igtd_max_iters=args.igtd_iters)
    _emit(args, to_json(model))
    return 0


def cmd_encode(args) -> int:
    model = read_json(args.model, encoders.EncoderModel)
    ds = _load_dataset(args)
    rows = _parse_rows(args.rows, ds.n_instances)
    if "\0" in ds.name or Path(ds.name).name != ds.name:  # names come from @relation
        raise ParameterError(f"dataset name {brief(ds.name)} is not a plain file name")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = encoders.encode_batch(model, ds.X[rows])
    suffix, export = ("ppm", to_ppm) if args.channels == 3 else ("pgm", to_pgm)
    for row, image in zip(rows, images):
        (out_dir / f"{ds.name}_{row}.{suffix}").write_bytes(export(image))
    print(f"wrote {len(rows)} {suffix} files to {out_dir}", file=sys.stderr)
    return 0


_EVAL_CONFIG_FIELDS = ("dataset", "encoder", "l", "u", "seed", "size")


def cmd_eval(args) -> int:
    ds = _load_dataset(args)
    plan = data.make_cv_plan(ds, args.seed)
    report = probe.run_cv_eval(ds, args.encoder, plan, l=args.l, u=args.u, size=args.size)
    config = {name: getattr(args, name) for name in _EVAL_CONFIG_FIELDS} | {"size": list(args.size)}
    _emit(args, to_json(dataclasses.replace(report, config=config)))
    print(f"{ds.name} / {args.encoder}: mean BAC {report.mean_bac:.3f}", file=sys.stderr)
    return 0


def _print_stats_table(payload: dict) -> None:
    methods = payload["methods"]
    name_width = max([len(d) for d in payload["datasets"]] + [len("mean rank")]) + 2
    header = "".join(f"{m:>12}" for m in methods)
    lines = [f"{'dataset':<{name_width}}{header}"]
    for ds_name, entry in payload["datasets"].items():
        cells = []
        for m in methods:
            wins = entry["significantly_better_than"][m]
            marker = f" ({','.join(map(str, wins))})" if wins else ""
            cells.append(f"{entry['mean_bac'][m]:.3f}{marker}")
        lines.append(f"{ds_name:<{name_width}}" + "".join(f"{c:>12}" for c in cells))
    rank_cells = "".join(f"{payload['mean_ranks'][m]:>12.3f}" for m in methods)
    lines.append(f"{'mean rank':<{name_width}}{rank_cells}")
    degenerate = [key for ds in payload["datasets"].values()
                  for key, ft in ds["f_tests"].items() if ft["degenerate"]]
    if degenerate:
        lines.append(f"degenerate-variance F-tests: {len(degenerate)}")
    print("\n".join(lines), file=sys.stderr)


def cmd_stats(args) -> int:
    reports = [read_json(p, probe.EvalReport) for p in args.reports]
    payload = stats.compare(reports, args.alpha)
    _print_stats_table(payload)
    _emit(args, to_json(payload))
    return 0


def cmd_bench(args) -> int:
    records = bench.run_timing_sweep(args.encoder, args.grid, args.samples,
                                     args.repeats, args.seed, args.budget_secs,
                                     args.size)
    _emit(args, "".join(to_json(r, indent=None) + "\n" for r in records))
    complete = [r for r in records if not r.truncated]
    if len(complete) >= 3:
        slope, intercept, r_squared = bench.linearity_fit(complete)
        print(f"linear fit: slope {slope:.3e} s/feature, intercept {intercept:.3e} s, "
              f"r^2 {r_squared:.4f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mdenc",
                                     description="Tabular-to-image encoding toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress (igtd search, dropped rows) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--size", type=_size_type, default=encoders.DEFAULT_CANVAS,
                        metavar="WxH", help="canvas size (default 224x224)")

    fit_args = argparse.ArgumentParser(add_help=False)
    fit_args.add_argument("--l", type=float, default=scaling.DEFAULT_L,
                          help="lower guard bound (default 0.05)")
    fit_args.add_argument("--u", type=float, default=scaling.DEFAULT_U,
                          help="upper guard bound (default 0.95)")

    dataset_arg = argparse.ArgumentParser(add_help=False)
    dataset_arg.add_argument("--dataset", required=True, help="path to .dat or .csv")
    dataset_arg.add_argument("--format", choices=("auto", "keel", "csv"), default="auto")
    dataset_arg.add_argument("--label-column", default=None,
                             help="CSV label column name or index (default: last)")

    p_fit = sub.add_parser("fit", parents=[common, fit_args, dataset_arg],
                           help="fit an encoder and write the model JSON")
    p_fit.add_argument("--encoder", choices=encoders.KINDS, required=True)
    p_fit.add_argument("--igtd-iters", type=int, default=encoders.DEFAULT_IGTD_MAX_ITERS)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_encode = sub.add_parser("encode", parents=[dataset_arg],
                              help="encode dataset rows with a fitted model")
    p_encode.add_argument("--model", required=True)
    p_encode.add_argument("--rows", default="all", help="'all', 'a:b' (a Python slice) or 'i,j,k'")
    p_encode.add_argument("--out", required=True, help="output directory")
    p_encode.add_argument("--channels", type=int, choices=(1, 3), default=1)
    p_encode.set_defaults(func=cmd_encode)

    p_eval = sub.add_parser("eval", parents=[common, fit_args, dataset_arg],
                            help="run the repeated 2-fold CV probe evaluation")
    p_eval.add_argument("--encoder", choices=probe.EVAL_KINDS, required=True)
    p_eval.add_argument("--seed", type=int, default=0, help="CV plan seed (default 0)")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="compare evaluation reports")
    p_stats.add_argument("--reports", nargs="+", required=True)
    p_stats.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser("bench", parents=[common],
                             help="encode-time sweep over feature counts")
    p_bench.add_argument("--encoder", choices=encoders.KINDS, required=True)
    p_bench.add_argument("--grid", type=_grid_type, default=bench.DEFAULT_GRID)
    p_bench.add_argument("--samples", type=int, default=bench.DEFAULT_SAMPLES)
    p_bench.add_argument("--repeats", type=int, default=bench.DEFAULT_REPEATS)
    p_bench.add_argument("--budget-secs", type=float, default=bench.DEFAULT_BUDGET_SECS)
    p_bench.add_argument("--seed", type=int, default=0, help="synthetic data seed (default 0)")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    log = logging.getLogger("mdenc")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    saved_level = log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (MdencError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is an internal bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        # main() may run many times in one process, as in the tests
        log.removeHandler(handler)
        log.setLevel(saved_level)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
