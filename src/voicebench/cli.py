"""Command-line front end.

Subcommands:
    extract   WAV tree + manifest -> features CSV
    run       repeated train/evaluate runs -> runs.csv (+ timings.csv)
    analyze   runs.csv -> report.json + boxplot_accuracy.csv (runs.csv and
              timings.csv in --out are left alone)
    all       run + analyze in one go

Exit codes: 0 success, 1 usage problems, 2 data or I/O problems.
"""
from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

# Importing numpy and the package leaves almost no cyclic garbage, so the
# collector's passes over the growing import graph would be wasted; the
# caller's setting comes back afterwards.
_collecting = gc.isenabled()
gc.disable()
try:
    from . import harness
    from .data import load_audio_dataset
    from .errors import UsageError, VoicebenchError
    from .harness import (
        ExperimentConfig,
        analyze,
        emit_outputs,
        emit_report,
        load_manifest,
        read_runs_csv,
        run_experiment,
    )
    from .jsonio import format_float
    from .mfcc import N_MFCC
    from .models import CANONICAL_KINDS
finally:
    if _collecting:
        gc.enable()

# Everything imported so far lives as long as the process: keep it out of
# every later collection and out of the pass at exit. Once per import, since
# tests call cli_main many times in one process.
gc.freeze()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicebench",
        description="Voice-feature benchmark: repeated subsampled training "
                    "of five classifiers plus nonparametric comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="extract MFCC features to CSV")
    extract.add_argument("--audio-dir", required=True)
    extract.add_argument("--manifest", required=True,
                         help="JSON mapping group directories to 0/1 labels")
    extract.add_argument("--out", required=True, help="output features CSV")

    def add_run_options(cmd, with_analysis: bool):
        cmd.add_argument("--config", help="JSON experiment configuration")
        cmd.add_argument("--audio-dir", help="WAV tree (with --manifest)")
        cmd.add_argument("--manifest")
        cmd.add_argument("--tabular-csv", help="numeric CSV dataset")
        cmd.add_argument("--label-column", default="label")
        cmd.add_argument("--drop-columns", default="",
                         help="comma-separated columns to ignore")
        cmd.add_argument("--runs", type=int)
        cmd.add_argument("--seed", type=int, dest="base_seed")
        cmd.add_argument("--workers", type=int)
        cmd.add_argument("--models", help=f"comma list from: {','.join(CANONICAL_KINDS)}")
        cmd.add_argument("--out", dest="output_dir")
        cmd.add_argument("--resume", action="store_true",
                         help="reuse (run, model) rows already in runs.csv")
        cmd.add_argument("--dump-splits", action="store_true",
                         help="also write per-run partition membership")
        cmd.add_argument("--quiet", action="store_true")
        if with_analysis:
            cmd.add_argument("--alpha", type=float)

    run = sub.add_parser("run", help="execute the repeated runs")
    add_run_options(run, with_analysis=False)

    analyze_cmd = sub.add_parser("analyze", help="statistics over an existing runs.csv")
    analyze_cmd.add_argument("--runs-csv", required=True)
    analyze_cmd.add_argument("--alpha", type=float, default=0.05)
    analyze_cmd.add_argument("--out", dest="output_dir", required=True)

    everything = sub.add_parser("all", help="run then analyze")
    add_run_options(everything, with_analysis=True)

    return parser


def _dataset_overrides(args) -> dict | None:
    if args.tabular_csv:
        drops = tuple(c for c in args.drop_columns.split(",") if c)
        return {
            "kind": "tabular",
            "csv": args.tabular_csv,
            "label_column": args.label_column,
            "drop_columns": list(drops),
        }
    if args.audio_dir or args.manifest:
        if not (args.audio_dir and args.manifest):
            raise UsageError("--audio-dir and --manifest must be given together")
        return {"kind": "audio", "root": args.audio_dir, "manifest": args.manifest}
    return None


def _build_config(args) -> ExperimentConfig:
    overrides = {
        "runs": args.runs,
        "base_seed": args.base_seed,
        "workers": args.workers,
        "models": None if args.models is None else [m for m in args.models.split(",") if m],
        "alpha": getattr(args, "alpha", None),
        "output_dir": args.output_dir,
        "dataset": _dataset_overrides(args),
    }
    if args.config:
        return ExperimentConfig.from_file(args.config, overrides)
    if overrides["dataset"] is None:
        raise UsageError(
            "no dataset given: pass --config, --tabular-csv, or "
            "--audio-dir with --manifest"
        )
    return ExperimentConfig.from_dict({"dataset": overrides.pop("dataset")}, overrides)


def _cmd_extract(args) -> int:
    dataset = load_audio_dataset(args.audio_dir, load_manifest(args.manifest))
    header = ("path", "label", *(f"mfcc_{i}" for i in range(N_MFCC)))
    rows = ((rid, label, *map(format_float, row))
            for rid, label, row in zip(dataset.row_ids, dataset.labels, dataset.features))
    harness._write_text(args.out, harness._csv_text(header, rows))
    print(f"wrote {len(dataset.labels)} rows to {args.out}")
    return 0


def _cmd_run(args, with_analysis: bool) -> int:
    config = _build_config(args)
    if with_analysis and (len(config.models) < 2 or config.runs < 3):
        # refused before any training: the analysis would refuse its results
        raise UsageError("the analysis needs at least 2 models and 3 runs, "
                         f"got {len(config.models)} and {config.runs}")
    dataset = harness.load_dataset(config.dataset)
    existing = None
    runs_path = Path(config.output_dir) / "runs.csv"
    if args.resume and runs_path.exists():
        existing = read_runs_csv(runs_path)
        print(f"resuming: {len(existing.records)} rows already present")

    progress = None if args.quiet else harness.stderr_progress
    harness._warm_heap()
    table = run_experiment(config, dataset, existing=existing, progress=progress)

    report = analyze(table, config.alpha) if with_analysis else None
    paths = emit_outputs(table, report, config.output_dir)
    if args.dump_splits:
        splits_path = Path(config.output_dir) / "splits.csv"
        harness._write_text(splits_path, harness.dump_splits_csv(config, dataset))
        paths["splits"] = str(splits_path)

    print(f"completed {config.runs} runs x {len(config.models)} models "
          f"on {dataset.features.shape[0]} rows")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    if report is not None:
        _print_report_summary(report)
    return 0


def _print_report_summary(report) -> None:
    print("model accuracy (mean +/- std) letters")
    for model in report["models"]:
        acc = report["descriptives"][model]["accuracy"]
        print(f"  {model:7s} {acc['mean']:.4f} +/- {acc['std']:.4f}  "
              f"{report['letters'][model]}")
    omnibus = report["omnibus"]
    if omnibus.get("status") == "ok":
        print(f"omnibus rank test: H={omnibus['statistic']:.4f} "
              f"p={omnibus['p_value']:.3g}")
    else:
        print(f"omnibus rank test: {omnibus.get('status')}")


def _cmd_analyze(args) -> int:
    table = read_runs_csv(args.runs_csv)
    report = analyze(table, args.alpha)
    paths = emit_report(table, report, args.output_dir)
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    _print_report_summary(report)
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "run":
            return _cmd_run(args, with_analysis=False)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "all":
            return _cmd_run(args, with_analysis=True)
        raise AssertionError(args.command)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VoicebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
