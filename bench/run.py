"""voicebench benchmark: the real CLI on seeded inputs, one command at a time.

    python3 bench/run.py --workload tabular-parallel --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Each invocation is a fresh interpreter running `voicebench.cli.cli_main` with
./src on the path (a bare checkout has no console script), launched only
after the previous one exited (closed loop, one client). Untraced runs report
the end-to-end metrics as whole-window averages, with every time scaled to
a reference host speed (see `calibration_s`). `--trace 1` adds a serial,
in-process traced run of the same command (bench/tracer.py) and reports
per-layer metrics instead.
`--workload all` runs every workload both ways and prints a table.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the details: runs.csv sha256, sample
counts and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")  # relative to ROOT, so result bytes do not depend on it
LAUNCH = "import sys; from voicebench.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))"
MODELS = tracer.KINDS
NPROC = len(os.sched_getaffinity(0))

# Experiment runs per command. Odd, because then Levene's within-group spread
# is 0 only when every group is constant, so its statistic stays finite.
RUNS = 5
SETUP_PER_COMMAND = 2     # `--help` launches behind setup_s, before each command
CALIBRATION_S = 0.15      # times read as on a host where calibration_s() takes this
MIN_INVOCATIONS = 2       # per measured run, even when --seconds is short
INVOCATION_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "tasks_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy_mean": "frac",
}
PER_LAYER = {
    **{f"audio.resample.ms_per_input_s.{rate}": "ms/s" for rate in tracer.RESAMPLED_RATES},
    "audio.resample.kept_frac": "frac",
    "audio.read_wav.ms": "ms",
    "audio.fix_duration.ms": "ms",
    "mfcc.mfcc.ms": "ms",
    "data.load_audio_dataset.s": "s",
    "data.load_audio_dataset.audio_s_per_s": "s/s",
    **{f"models.fit.ms.{kind}": "ms" for kind in MODELS},
    **{f"models.predict.ms.{kind}": "ms" for kind in MODELS},
    **{f"models.fit.unconverged.{kind}": "count" for kind in MODELS},
    "models.dnn.epochs_run": "epochs",
    "data.stratified_split.ms": "ms",
    "data.stratified_split.calls_per_run": "calls/run",
    "data.oversample.ms": "ms",
    "data.load_tabular_dataset.ms": "ms",
    "metrics.score.ms": "ms",
    "harness.pool.busy_frac": "frac",
    "harness.run_experiment.s": "s",
    "harness.analyze.ms": "ms",
    "harness.emit_outputs.ms": "ms",
    **{f"stats.{name}.ms": "ms" for name in tracer.STATS_FUNCTIONS},
    "harness.read_runs_csv.ms_5x1000": "ms",
    "harness.analyze.ms_5x1000": "ms",
    "harness.emit_outputs.ms_5x1000": "ms",
    **{f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str   # "table" or "corpus"
    workers: int


# Two workloads, so that each run can average over a long window. The table
# runs at --workers nproc; its --workers 1 command is the serial reference
# every run makes, and the traced run is serial on both.
WORKLOADS = {
    w.name: w for w in (
        Workload("tabular-parallel", "table", NPROC),
        Workload("audio-ingest", "corpus", 1),
    )
}


_CALIBRATION_ARRAY = numpy.random.default_rng(0).standard_normal(20_000)


def _calibration_work() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    for _ in range(30):
        numpy.sort(numpy.i0(_CALIBRATION_ARRAY) * numpy.sin(_CALIBRATION_ARRAY))
    return time.perf_counter() - started


def calibration_s() -> float:
    """Mean wall time of a fixed mix of pure-Python and numpy work, done once
    pinned to each CPU the runner may use.

    A shared host's speed moves by up to half for minutes at a time, which
    no run length here can average out, and its CPUs need not run at the
    same speed. Timed in-process between commands, this work sees the
    host's speed but never the program's, so every end-to-end time is scaled
    by CALIBRATION_S over its mean in the same run: the time the command
    would take on a host where this work takes CALIBRATION_S on each CPU.
    """
    cpus = os.sched_getaffinity(0)
    walls = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            walls.append(_calibration_work())
    finally:
        os.sched_setaffinity(0, cpus)  # commands inherit the runner's CPU set
    return statistics.fmean(walls)


class BenchError(Exception):
    """No result can be given: the program is missing or never ran cleanly."""


@dataclass
class Invocation:
    out_dir: Path
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list
    sha256: str = ""
    train_s: float = 0.0  # sum of timings.csv train_ms, in seconds
    accuracy_mean: float = 0.0


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def launch(args: list, log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, cpu s, max-RSS MB).

    CPU time and max-RSS come from wait4 and so include the process's own
    reaped children (the harness pool workers). The process leads its own
    process group, so a timeout or an interrupt kills its workers too.
    """
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_cli_env(), stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Bench:
    """One benchmark run: inputs under WORK, invocations, checks, metrics."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = WORK / workload.name
        # inputs sit at one path for every workload: the path is part of the
        # config fingerprint in runs.csv, so the sha256 recorded for a seed
        # does not depend on the workload's name
        inputs_dir = WORK / "inputs"
        for directory in (self.work, inputs_dir):
            shutil.rmtree(ROOT / directory, ignore_errors=True)
            (ROOT / directory).mkdir(parents=True)
        self.invocations: list[Invocation] = []
        self.serial: Invocation | None = None  # tabular-parallel's serial reference
        self.setup_walls: list[float] = []
        self.calibration_walls: list[float] = []
        self.input_audio_s = {}
        if workload.dataset == "table":
            inputs.write_table(ROOT / inputs_dir / "table.csv", seed)
            self.dataset_args = ["--tabular-csv", str(inputs_dir / "table.csv"),
                                 "--label-column", inputs.TABLE_LABEL,
                                 "--drop-columns", inputs.TABLE_DROP]
        else:
            self.input_audio_s = inputs.write_corpus(ROOT / inputs_dir / "corpus", seed)
            self.dataset_args = ["--audio-dir", str(inputs_dir / "corpus"),
                                 "--manifest", str(inputs_dir / "corpus" / "manifest.json")]

    def command(self, workers: int, out_dir: Path) -> list:
        return ["all", *self.dataset_args, "--runs", str(RUNS), "--seed", str(self.seed),
                "--workers", str(workers), "--out", str(out_dir), "--quiet"]

    def help_launch(self) -> float:
        """Wall time of one fresh `voicebench --help` process."""
        code, wall, _, _ = launch([sys.executable, "-c", LAUNCH, "--help"],
                                  ROOT / self.work / "help.log")
        if code != 0:
            raise BenchError(f"`voicebench --help` exited {code}; see "
                             f"{self.work / 'help.log'}")
        return wall

    def invoke(self, workers: int, label: str, expect_sha: str = "") -> Invocation:
        """One checked CLI command; expect_sha, when given, is the required runs.csv."""
        out_dir = self.work / label
        shutil.rmtree(ROOT / out_dir, ignore_errors=True)
        code, wall, cpu, rss = launch(
            [sys.executable, "-c", LAUNCH, *self.command(workers, out_dir)],
            ROOT / self.work / f"{label}.log")
        return self._checked(Invocation(out_dir, code, wall, cpu, rss, []), expect_sha)

    def _checked(self, inv: Invocation, expect_sha: str) -> Invocation:
        if inv.returncode != 0:
            inv.problems.append(f"exit code {inv.returncode}")
        else:
            inv.problems += checks.check_outputs(ROOT / inv.out_dir, RUNS, MODELS)
        if not inv.problems:
            inv.sha256 = checks.sha256(ROOT / inv.out_dir / "runs.csv")
            inv.train_s = checks.train_ms_total(ROOT / inv.out_dir) / 1000.0
            inv.accuracy_mean = checks.accuracy_mean(ROOT / inv.out_dir)
            if expect_sha and inv.sha256 != expect_sha:
                inv.problems.append(f"runs.csv sha256 {inv.sha256} != {expect_sha}")
        if inv.problems:
            print(f"check failed in {inv.out_dir}: {inv.problems}", file=sys.stderr)
        self.invocations.append(inv)
        return inv

    @property
    def reference_sha(self) -> str:
        """runs.csv sha256 of the first command that passed its checks."""
        return next((inv.sha256 for inv in self.invocations if not inv.problems), "")

    def measure(self, seconds: float, host: bool) -> list[Invocation]:
        """Closed loop of the workload's command, filling `seconds`.

        Every command must reproduce the first passing runs.csv byte for
        byte. tabular-parallel first runs the same command at --workers 1 and
        holds every parallel runs.csv to that serial one. With `host`,
        SETUP_PER_COMMAND `--help` launches and one calibration_s() call
        precede each command, so they sample the same stretch of time as the
        commands, after one warm-up of each (the first launch fills the
        bytecode and file caches). A cycle starts only while at least half
        of an average cycle fits before the deadline, so the run ends within
        half a cycle of `seconds`.
        """
        deadline = time.perf_counter() + seconds
        if host:
            self.help_launch()
            calibration_s()
        if self.workload.workers > 1:
            self.serial = self.invoke(1, "serial-reference")
        measured = []
        loop_start = time.perf_counter()
        while True:
            if host:
                self.setup_walls += [self.help_launch() for _ in range(SETUP_PER_COMMAND)]
                self.calibration_walls.append(calibration_s())
            label = f"inv{len(measured):03d}"
            measured.append(self.invoke(self.workload.workers, label, self.reference_sha))
            if len(measured) > 1:
                shutil.rmtree(ROOT / measured[-2].out_dir, ignore_errors=True)
            now = time.perf_counter()
            cycle = (now - loop_start) / len(measured)
            if len(measured) >= MIN_INVOCATIONS and now + cycle / 2 > deadline:
                return measured

    def traced(self) -> tuple[Invocation, dict]:
        """The serial in-process traced run, plus the 5 x 1000-run analysis."""
        analysis_csv = self.work / "analysis_runs.csv"
        inputs.write_analysis_runs(ROOT / analysis_csv, self.seed)
        out_dir, spans = self.work / "traced", self.work / "spans.json"
        shutil.rmtree(ROOT / out_dir, ignore_errors=True)
        code, wall, cpu, rss = launch(
            [sys.executable, str(Path(__file__).with_name("tracer.py")),
             "--spans", str(spans), "--analysis-csv", str(analysis_csv),
             "--analysis-out", str(self.work / "analysis"), "--",
             *self.command(1, out_dir)],
            ROOT / self.work / "traced.log")
        inv = self._checked(Invocation(out_dir, code, wall, cpu, rss, []), self.reference_sha)
        return inv, json.loads((ROOT / spans).read_text()) if code == 0 else None


def _mean(invocations: list, attr: str) -> float:
    return statistics.fmean(getattr(inv, attr) for inv in invocations)


def end_to_end(passed: list, setup_walls: list, scale: float) -> dict:
    """Whole-window averages over the passing commands of one run, with
    times multiplied by `scale` (see calibration_s)."""
    tasks = RUNS * len(MODELS)
    return {
        "wall_s": _mean(passed, "wall_s") * scale,
        "tasks_per_s": tasks * len(passed) / sum(inv.wall_s for inv in passed) / scale,
        "cpu_s": _mean(passed, "cpu_s") * scale,
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in passed),
        "setup_s": statistics.fmean(setup_walls) * scale,
        "accuracy_mean": passed[0].accuracy_mean,
    }


def per_layer(bench: Bench, passed: list, traced: Invocation, trace: dict) -> dict:
    workers = bench.workload.workers
    # a lower bound: train_ms covers fit only, not split, predict or pickling
    busy = statistics.median(inv.train_s / (inv.wall_s * workers) for inv in passed)
    # the traced run is serial, so its overhead is taken against serial wall time
    base = bench.serial.wall_s if workers > 1 else _mean(passed, "wall_s")
    out = tracer.layer_metrics(trace["spans"], RUNS, trace["analysis_spans"])
    out["harness.pool.busy_frac"] = busy
    for name, value in trace["analysis_ms"].items():
        out[f"harness.{name}.ms_5x1000"] = value
    out["trace.overhead_frac"] = (traced.wall_s - base) / base
    return {name: out[name] for name in PER_LAYER}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_env": {k: v for k, v in os.environ.items()
                            if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
        "loadavg_before": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(details, result) for one benchmark run."""
    env = environment()
    bench = Bench(WORKLOADS[name], seed)
    passed = [inv for inv in bench.measure(seconds, host=not trace) if not inv.problems]
    if not passed:
        raise BenchError("no measured command passed its output checks")
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "runs_per_command": RUNS, "workers": bench.workload.workers,
               "runs_csv_sha256": bench.reference_sha,
               "wall_s_samples": [inv.wall_s for inv in passed],
               "wall_s_median": statistics.median(inv.wall_s for inv in passed)}
    if bench.setup_walls:
        details["setup_s_samples"] = bench.setup_walls
        details["calibration_s_samples"] = bench.calibration_walls
    if bench.input_audio_s:
        details["input_audio_s"] = bench.input_audio_s
    if trace:
        traced, spans = bench.traced()
        if traced.problems:
            raise BenchError(f"traced run failed: {traced.problems}")
        metrics = per_layer(bench, passed, traced, spans)
        details["self_ms"] = tracer.self_time_by_function(spans["spans"])
        units = PER_LAYER
    else:
        scale = CALIBRATION_S / statistics.fmean(bench.calibration_walls)
        details["scale"] = scale
        details["unscaled"] = end_to_end(passed, bench.setup_walls, 1.0)
        metrics = end_to_end(passed, bench.setup_walls, scale)
        units = END_TO_END
    env["loadavg_after"] = list(os.getloadavg())
    details["environment"] = env
    failed = sum(bool(inv.problems) for inv in bench.invocations)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return details, result


def _print_table(title: str, result: dict) -> None:
    print(f"{title}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")


def summarize(seed: int, seconds: float) -> int:
    """Every workload untraced, then every workload traced, as tables."""
    ok = True
    for trace in (False, True):
        for name in WORKLOADS:
            details, result = run_workload(name, seed, seconds, trace)
            ok &= result["correct"]
            _print_table(f"{name} ({'traced, per layer' if trace else 'end to end'})", result)
            print(f"  runs.csv sha256 {details['runs_csv_sha256']}")
            if trace:
                top = list(details["self_ms"].items())[:6]
                print("  largest self time: " + ", ".join(f"{k} {v:.0f} ms" for k, v in top))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="voicebench benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "voicebench" / "cli.py").is_file():
            raise BenchError(f"no voicebench sources under {ROOT / 'src'}")
        if args.workload == "all":
            return summarize(args.seed, args.seconds)
        details, result = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
