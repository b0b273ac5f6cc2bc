"""Outside-in trace of one voicebench CLI command, serial and in-process.

Run as a script, it imports the package from ./src, replaces each traced
public function with a timing wrapper at the place its caller looks it up,
runs `cli_main` on the given arguments, then times the analysis chain on a
5 x 1000-run runs.csv. Spans stay in memory and are written as JSON at the
end:

    python3 bench/tracer.py --spans OUT.json --analysis-csv RUNS.csv \\
        --analysis-out DIR -- all --tabular-csv ... --workers 1

Imported, it offers `layer_metrics`, which turns those spans into the
benchmark's per-layer metrics.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("audio", "mfcc", "data", "models", "metrics", "stats", "harness", "cli")
KINDS = ("logreg", "svm", "rf", "gb", "dnn")
RESAMPLED_RATES = (8000, 44100, 48000)
STATS_FUNCTIONS = ("shapiro_wilk", "levene", "kruskal_wallis", "dunn_bonferroni",
                   "compact_letters")
ROOT_SPAN = "cli.cli_main"
ANALYSIS_REPEATS = 3


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, attrs."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name, attrs=None):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "attrs": attrs or {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        return record

    def close(self, record):
        record["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, owner, attr, name, describe=None):
        """Replace owner.attr with a traced call; describe(args, result) adds attrs."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self.span(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(record)
            if describe is not None:
                record["attrs"].update(describe(args, result))
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its caller looks it up."""
    audio = importlib.import_module("voicebench.audio")
    mfcc = importlib.import_module("voicebench.mfcc")  # package attr is the function
    metrics = importlib.import_module("voicebench.metrics")
    stats = importlib.import_module("voicebench.stats")
    harness = importlib.import_module("voicebench.harness")
    cli = importlib.import_module("voicebench.cli")

    # data.py calls these through the audio and mfcc module objects
    tracer.wrap(audio, "read_wav", "audio.read_wav")
    tracer.wrap(audio, "resample", "audio.resample", lambda args, out: {
        "rate": args[0].sample_rate, "n_in": args[0].samples.size,
        "n_out": out.samples.size})
    tracer.wrap(audio, "fix_duration", "audio.fix_duration", lambda args, out: {
        "kept": min(args[0].samples.size, out.samples.size)})
    tracer.wrap(mfcc, "mfcc", "mfcc.mfcc")
    tracer.wrap(metrics, "score", "metrics.score")
    for name in STATS_FUNCTIONS:
        tracer.wrap(stats, name, f"stats.{name}")

    def describe_fit(args, model):
        kind = args[0].kind
        predict = model.predict

        def traced_predict(*p_args, **p_kwargs):
            record = tracer.span("models.predict", {"kind": kind})
            try:
                return predict(*p_args, **p_kwargs)
            finally:
                tracer.close(record)

        model.predict = traced_predict
        return {"kind": kind, "converged": bool(model.meta.converged),
                "epochs_run": model.meta.epochs_run}

    # harness imports these by name
    tracer.wrap(harness, "fit", "models.fit", describe_fit)
    for name in ("stratified_split", "oversample", "load_audio_dataset",
                 "load_tabular_dataset"):
        tracer.wrap(harness, name, f"data.{name}")
    tracer.wrap(harness, "load_dataset", "harness.load_dataset")
    # cli imports these by name
    for name in ("run_experiment", "analyze", "emit_outputs"):
        tracer.wrap(cli, name, f"harness.{name}")
    tracer.wrap(cli, "build_parser", "cli.build_parser")


def time_analysis(runs_csv: Path, out_dir: Path) -> dict:
    """Median ms of read_runs_csv -> analyze -> emit_outputs, in-process."""
    harness = importlib.import_module("voicebench.harness")
    samples = {"read_runs_csv": [], "analyze": [], "emit_outputs": []}
    for _ in range(ANALYSIS_REPEATS):
        t0 = time.perf_counter()
        table = harness.read_runs_csv(runs_csv)
        t1 = time.perf_counter()
        report = harness.analyze(table, 0.05)
        t2 = time.perf_counter()
        harness.emit_outputs(table, report, out_dir)
        t3 = time.perf_counter()
        samples["read_runs_csv"].append((t1 - t0) * 1000.0)
        samples["analyze"].append((t2 - t1) * 1000.0)
        samples["emit_outputs"].append((t3 - t2) * 1000.0)
    return {name: statistics.median(values) for name, values in samples.items()}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _self_ms(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [_ms(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _ms(span)
    return own


def _named(spans: list, name: str, kind: str | None = None) -> list:
    return [span for span in spans if span["name"] == name
            and (kind is None or span["attrs"].get("kind") == kind)]


def layer_metrics(spans: list, runs: int, analysis_spans: list) -> dict:
    """Per-layer metrics from the spans of one traced command.

    Functions the command never called read 0. Self time is a span's
    duration minus its children's; the root span's own self time is the
    part of the command no wrapped function accounts for. The statistics
    functions are timed on the 5 x 1000-run analysis (analysis_spans), the
    size the CLI runs by default.
    """
    def median_ms(name, kind=None, source=spans):
        return _median([_ms(span) for span in _named(source, name, kind)])

    def total_ms(name):
        return sum((_ms(span) for span in _named(spans, name)), 0.0)

    out = {}
    resamples = _named(spans, "audio.resample")
    for rate in RESAMPLED_RATES:
        chosen = [span for span in resamples if span["attrs"]["rate"] == rate]
        rate_s = sum(span["attrs"]["n_in"] / rate for span in chosen)
        out[f"audio.resample.ms_per_input_s.{rate}"] = (
            sum(map(_ms, chosen)) / rate_s if rate_s else 0.0)
    resampled = sum(span["attrs"]["n_out"] for span in resamples)
    kept = sum(span["attrs"]["kept"] for span in _named(spans, "audio.fix_duration"))
    out["audio.resample.kept_frac"] = kept / resampled if resampled else 0.0
    out["audio.read_wav.ms"] = median_ms("audio.read_wav")
    out["audio.fix_duration.ms"] = median_ms("audio.fix_duration")
    out["mfcc.mfcc.ms"] = median_ms("mfcc.mfcc")
    ingest_s = total_ms("data.load_audio_dataset") / 1000.0
    input_s = sum(span["attrs"]["n_in"] / span["attrs"]["rate"] for span in resamples)
    out["data.load_audio_dataset.s"] = ingest_s
    out["data.load_audio_dataset.audio_s_per_s"] = input_s / ingest_s if ingest_s else 0.0

    for kind in KINDS:
        out[f"models.fit.ms.{kind}"] = median_ms("models.fit", kind)
        out[f"models.predict.ms.{kind}"] = median_ms("models.predict", kind)
        out[f"models.fit.unconverged.{kind}"] = float(sum(
            not span["attrs"]["converged"] for span in _named(spans, "models.fit", kind)))
    epochs = [span["attrs"]["epochs_run"] for span in _named(spans, "models.fit", "dnn")]
    out["models.dnn.epochs_run"] = float(statistics.mean(epochs)) if epochs else 0.0

    out["data.stratified_split.ms"] = median_ms("data.stratified_split")
    out["data.stratified_split.calls_per_run"] = (
        len(_named(spans, "data.stratified_split")) / runs)
    out["data.oversample.ms"] = median_ms("data.oversample")
    out["data.load_tabular_dataset.ms"] = total_ms("data.load_tabular_dataset")
    out["metrics.score.ms"] = median_ms("metrics.score")
    out["harness.run_experiment.s"] = total_ms("harness.run_experiment") / 1000.0
    out["harness.analyze.ms"] = total_ms("harness.analyze")
    out["harness.emit_outputs.ms"] = total_ms("harness.emit_outputs")
    for name in STATS_FUNCTIONS:
        out[f"stats.{name}.ms"] = median_ms(f"stats.{name}", source=analysis_spans)

    own = _self_ms(spans)
    root_ms = sum(_ms(span) for span in _named(spans, ROOT_SPAN))
    layer_ms = {layer: 0.0 for layer in LAYERS}
    unattributed_ms = 0.0
    for span, self_ms in zip(spans, own):
        if span["name"] == ROOT_SPAN:
            unattributed_ms += self_ms
        else:
            layer_ms[span["name"].split(".")[0]] += self_ms
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_ms[layer] / 1000.0
    out["trace.unattributed_frac"] = unattributed_ms / root_ms
    return out


def self_time_by_function(spans: list) -> dict:
    """Self ms per span name, fit and predict split by model kind, largest first."""
    out = {}
    for span, self_ms in zip(spans, _self_ms(spans)):
        name = span["name"]
        if "kind" in span["attrs"]:
            name += "." + span["attrs"]["kind"]
        out[name] = out.get(name, 0.0) + self_ms
    return dict(sorted(out.items(), key=lambda item: -item[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("--analysis-csv", required=True,
                        help="5 x 1000-run runs.csv to analyze")
    parser.add_argument("--analysis-out", required=True,
                        help="output directory for that analysis")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = importlib.import_module("voicebench.cli")
    tracer = Tracer()
    install(tracer)
    root = tracer.span(ROOT_SPAN)
    try:
        returncode = cli.cli_main(cli_args)
    finally:
        tracer.close(root)
    command_spans = list(tracer.spans)
    analysis = None
    if returncode == 0:
        analysis = time_analysis(Path(args.analysis_csv), Path(args.analysis_out))
    Path(args.spans).write_text(json.dumps({
        "returncode": returncode,
        "spans": command_spans,
        "analysis_spans": tracer.spans[len(command_spans):],
        "analysis_ms": analysis,
    }))
    return returncode


if __name__ == "__main__":
    sys.exit(main())
