"""Repeated-subsampling experiment harness.

A task is one model kind on a block of runs. For each run it re-derives
the split and oversampling from the run's seeds, trains the model, and
scores the held out test rows; gb and dnn train the whole block in one
stacked call, which gives each run the model it would get alone. Within a
run all models therefore see byte-identical data, and results do not
depend on block size, worker count or completion order. Wall-clock timings
are kept out of runs.csv (they would break reproducible bytes) and go to a
sidecar file instead.

Seed derivation, fixed forever:
    run_seed   = (base_seed & 0xFFFFFFFFFFFFFFFF) XOR run_index
    stream     = SeedSequence((run_seed, stream_id)), one 64-bit word
    stream ids: 0 split, 1 oversample train, 2 oversample validation,
                3 + index of the model kind in CANONICAL_KINDS
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, stats
from .data import (LabeledDataset, load_audio_dataset, load_tabular_dataset, oversample,
                   read_csv_rows, stratified_split)
from .errors import (
    AllTied,
    SampleTooLarge,
    TooFewModels,
    TooFewRuns,
    UsageError,
    VoicebenchError,
    WriteError,
    ZeroVariance,
)
from .jsonio import canonical_dumps, canonical_loads, format_float
from .models import (
    BLOCK_KINDS,
    CANONICAL_KINDS,
    ClassifierSpec,
    fit,
    fit_block,
    make_spec,
    whole_count,
)
from .models.forest import _LEVEL_ENTRIES

FORMAT_VERSION = 1
_MASK64 = 0xFFFFFFFFFFFFFFFF

STREAM_SPLIT = 0
STREAM_OVERSAMPLE_TRAIN = 1
STREAM_OVERSAMPLE_VAL = 2
STREAM_MODEL_BASE = 3
# Version of how a seed becomes model results; runs.csv fingerprints carry
# it, so --resume refuses rows of an older protocol. 4: svm trains by
# LIBSVM's working-set selection and gap stop (models/svm.py), not by
# Platt's pair heuristics. 5: logreg trains by Newton's method
# (models/logreg.py), not by L-BFGS. 6: logreg's stopping bound is
# tol * min(1, c), not tol, which changes fits at c < 1. 7: dnn takes
# Adam's step in Kingma & Ba's folded order (models/dnn.py), which rounds
# the fitted weights differently.
SEED_PROTOCOL = 7

DEFAULT_OUTPUT_ENV = "VOICEBENCH_OUT"


def run_seed(base_seed: int, run_index: int) -> int:
    return (int(base_seed) & _MASK64) ^ int(run_index)


def stream_seed(run_seed_value: int, stream_id: int) -> int:
    seq = np.random.SeedSequence((run_seed_value, stream_id))
    return int(seq.generate_state(1, np.uint64)[0])


def model_stream_id(kind: str) -> int:
    return STREAM_MODEL_BASE + CANONICAL_KINDS.index(kind)


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """Where the rows come from: a WAV tree with a manifest, or a CSV."""

    kind: str  # "audio" | "tabular"
    root: str | None = None
    manifest: str | None = None
    csv: str | None = None
    label_column: str | None = None
    drop_columns: tuple = ()

    def __post_init__(self):
        for key in ("kind", "root", "manifest", "csv", "label_column"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise UsageError(f"dataset key {key!r} must be a string, got {value!r}")
        columns = self.drop_columns
        if not isinstance(columns, (list, tuple)) or not all(isinstance(c, str) for c in columns):
            raise UsageError(f"dataset key 'drop_columns' must be a list of strings, "
                             f"got {columns!r}")
        object.__setattr__(self, "drop_columns", tuple(columns))
        if self.kind == "audio":
            if not self.root or not self.manifest:
                raise UsageError("audio dataset needs 'root' and 'manifest'")
        elif self.kind == "tabular":
            if not self.csv or not self.label_column:
                raise UsageError("tabular dataset needs 'csv' and 'label_column'")
        else:
            raise UsageError(f"unknown dataset kind {self.kind!r}")

    @staticmethod
    def from_dict(raw: dict) -> "DatasetSpec":
        _refuse_unknown_keys(DatasetSpec, raw, "dataset key")
        return DatasetSpec(**{"kind": "", **raw})  # no kind is an unknown kind


def _refuse_unknown_keys(cls, raw: dict, noun: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in known:
            raise UsageError(f"unknown {noun} {key!r}")


def load_manifest(path) -> dict[str, int]:
    """Manifest JSON: {"format_version": 1, "groups": {"dirname": 0|1}}."""
    with open(path) as fh:
        raw = canonical_loads(fh.read())
    groups = raw.get("groups")
    if not isinstance(groups, dict) or not groups:
        raise UsageError(f"{path}: manifest needs a non-empty 'groups' object")
    out = {}
    for name, label in groups.items():
        if isinstance(label, bool) or label not in (0, 1):  # JSON true == 1
            raise UsageError(f"{path}: group {name!r} label must be 0 or 1, got {label!r}")
        out[str(name)] = int(label)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    models: tuple = CANONICAL_KINDS
    model_params: dict = field(default_factory=dict)
    runs: int = 1000
    base_seed: int = 0
    workers: int = 1
    alpha: float = 0.05
    output_dir: str = ""

    def __post_init__(self):
        for key in ("runs", "workers"):
            object.__setattr__(self, key, whole_count(f"config key {key!r}", getattr(self, key)))
        for key, kind, wanted, noun in (
            ("base_seed", int, numbers.Integral, "an integer"),
            ("alpha", float, numbers.Real, "a number"),
            ("output_dir", str, str, "a string"),
        ):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, wanted):
                raise UsageError(f"config key {key!r} must be {noun}, got {value!r}")
            object.__setattr__(self, key, kind(value))
        if not (0.0 < self.alpha < 1.0):
            raise UsageError(f"alpha must lie in (0, 1), got {self.alpha}")
        if isinstance(self.models, str) or not isinstance(self.models, (list, tuple)):
            raise UsageError(f"config key 'models' must be a list, got {self.models!r}")
        if not self.models:
            raise UsageError("need at least one model")
        for i, kind in enumerate(self.models):
            make_spec(kind)  # refuses unknown kinds
            if kind in self.models[:i]:
                raise UsageError(f"model kind {kind!r} listed twice")
        if not isinstance(self.model_params, dict):
            raise UsageError("config key 'model_params' must be an object")
        for kind, overrides in self.model_params.items():
            make_spec(kind, overrides)  # validates names and values eagerly
        object.__setattr__(
            self, "model_params", {k: dict(v) for k, v in self.model_params.items()}
        )
        object.__setattr__(self, "models", tuple(self.models))
        if not self.output_dir:
            object.__setattr__(
                self, "output_dir", os.environ.get(DEFAULT_OUTPUT_ENV, "voicebench_out")
            )

    def fingerprint(self, dataset: LabeledDataset) -> str:
        # workers and output_dir are execution details; everything that can
        # change a result row (or the analysis) is hashed. The loaded rows
        # stand for the dataset, not its path: the same rows at any path
        # share a fingerprint, and changed rows get another.
        features = dataset.features
        rows = hashlib.sha256(f"{features.shape} {features.dtype.str}".encode())
        rows.update(features.tobytes())
        rows.update(dataset.labels.tobytes())
        payload = {
            "rows": rows.hexdigest(),
            "models": list(self.models),
            "model_params": {k: dict(v) for k, v in sorted(self.model_params.items())},
            "runs": self.runs,
            "base_seed": self.base_seed,
            "alpha": self.alpha,
            "seed_protocol": SEED_PROTOCOL,
        }
        digest = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
        return digest[:16]

    @staticmethod
    def from_dict(raw: dict, overrides: dict | None = None) -> "ExperimentConfig":
        merged = dict(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        merged.pop("format_version", None)
        if "dataset" not in merged:
            raise UsageError("config needs a 'dataset' section")
        _refuse_unknown_keys(ExperimentConfig, merged, "config key")
        if not isinstance(merged["dataset"], dict):
            raise UsageError("config key 'dataset' must be an object")
        return ExperimentConfig(**{**merged, "dataset": DatasetSpec.from_dict(merged["dataset"])})

    @staticmethod
    def from_file(path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            raw = canonical_loads(fh.read())
        if not isinstance(raw, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        return ExperimentConfig.from_dict(raw, overrides)


def load_dataset(spec: DatasetSpec) -> LabeledDataset:
    if spec.kind == "audio":
        return load_audio_dataset(spec.root, load_manifest(spec.manifest))
    return load_tabular_dataset(spec.csv, spec.label_column, spec.drop_columns)


# --- run records ------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    run_index: int
    model: str
    seed: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    early_stopped: bool | None
    split_hash: str
    train_ms: float | None = None


@dataclass(frozen=True)
class RunTable:
    records: tuple
    config_fingerprint: str

    def model_order(self) -> list[str]:
        return list(dict.fromkeys(record.model for record in self.records))

    def run_indices(self) -> list[int]:
        return sorted({record.run_index for record in self.records})

    def series(self, model: str, name: str) -> np.ndarray:
        """One RunRecord field of one model, in run order."""
        rows = sorted((r for r in self.records if r.model == model), key=lambda r: r.run_index)
        return np.array([getattr(r, name) for r in rows])


def _partitions(split):
    return (("train", split.train_idx), ("validation", split.validation_idx),
            ("test", split.test_idx))


def _split_hash(split) -> str:
    digest = hashlib.sha256()
    for name, idx in _partitions(split):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(idx, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def _run_sets(dataset: LabeledDataset, base_seed: int, run_index: int):
    """(run seed, split, oversampled train pair, oversampled validation pair)."""
    rs = run_seed(base_seed, run_index)
    split = stratified_split(dataset, stream_seed(rs, STREAM_SPLIT))
    train = oversample(
        split.train_features, split.train_labels,
        stream_seed(rs, STREAM_OVERSAMPLE_TRAIN),
    )
    validation = oversample(
        split.validation_features, split.validation_labels,
        stream_seed(rs, STREAM_OVERSAMPLE_VAL),
    )
    return rs, split, train, validation


def execute_task(
    dataset: LabeledDataset,
    model_params: dict,
    runs,
    base_seed: int,
    kind: str,
) -> list[RunRecord]:
    """Train and score one model kind on each run of a block, in run order;
    pure given its arguments, and a run's record does not depend on the
    block it comes in."""
    run_seeds, splits, trains, validations = zip(
        *(_run_sets(dataset, base_seed, run_index) for run_index in runs))
    spec = ClassifierSpec(kind, dict(model_params.get(kind, {})))
    seeds = [stream_seed(rs, model_stream_id(kind)) for rs in run_seeds]
    if kind in BLOCK_KINDS:  # gb and dnn: every run's model in one stacked call
        models = fit_block(spec, trains, validations, seeds)
    else:
        # fitted as scored, so a block holds one model at a time; one fit call
        # per run, since bench/tracer.py times fits by wrapping harness.fit
        models = map(fit, itertools.repeat(spec), trains, validations, seeds)
    records = []
    for run_index, rs, split, model in zip(runs, run_seeds, splits, models):
        scored = metrics.score(split.test_labels, model.predict(split.test_features))
        records.append(RunRecord(
            run_index=run_index,
            model=kind,
            seed=rs,
            accuracy=scored.accuracy,
            precision=scored.precision,
            recall=scored.recall,
            f1=scored.f1,
            early_stopped=model.meta.early_stopped,
            split_hash=_split_hash(split),
            train_ms=model.meta.train_ms,
        ))
    return records


def _block_size(runs: int, workers: int, shape) -> int:
    """Runs per task: the runs spread evenly over the workers, and no more
    than keep a block's stacked entries (runs x rows x columns of the data)
    within one tree engine batch."""
    rows, columns = shape
    return max(1, min(-(-runs // workers), _LEVEL_ENTRIES // (rows * columns)))


def _plan_tasks(pending: dict, runs: int, workers: int, shape) -> list:
    """(kind, runs) tasks covering every pending run of every kind once.

    The stacked kinds come first, in blocks as large as one engine batch
    allows: one stack of n runs costs less than two of n / 2. The other
    kinds fit run by run, so their blocks spread over the workers. Within
    each group, the i-th block of every kind precedes the (i+1)-th.
    """
    tasks = []
    for stacked in (True, False):
        size = _block_size(runs, 1 if stacked else workers, shape)
        group = [(kind, left) for kind, left in pending.items()
                 if (kind in BLOCK_KINDS) == stacked]
        tasks += [(kind, left[first:first + size]) for first in range(0, runs, size)
                  for kind, left in group if left[first:first + size]]
    return tasks


def _warm_heap() -> None:
    """Keep freed memory in this process's heap for the rest of its life.

    Training frees and reallocates the same level-sized temporaries many
    times per fit. By default glibc maps those above 128 KiB with mmap and
    returns a freed heap top to the kernel, so each level faults its pages
    in again. Here allocations up to 32 MiB (the ceiling of glibc's own
    dynamic threshold) come from the heap, and it is trimmed only above 64
    MiB free. Call it once the dataset is loaded, so that ingest's large
    temporaries still go back to the kernel. Does nothing outside glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_WORKER_DATASET = None
_WORKER_PARAMS = None
_WORKER_SEED = None


def _worker_init(features, labels, source_name, model_params, base_seed, cpus=None):
    """Set up a pool worker. cpus, a queue of the pool's CPUs, moves the
    worker once onto the next of them: forked workers start on their
    parent's CPU, and the scheduler can leave them stacked there."""
    global _WORKER_DATASET, _WORKER_PARAMS, _WORKER_SEED
    _WORKER_DATASET = LabeledDataset(features, labels, source_name=source_name)
    _WORKER_PARAMS = model_params
    _WORKER_SEED = base_seed
    _warm_heap()  # a spawned or forkserver worker starts with glibc's defaults
    if cpus is not None:
        cpu = cpus.get()
        cpus.put(cpu)  # back in line: more workers than CPUs wrap around
        allowed = os.sched_getaffinity(0)
        with contextlib.suppress(OSError):  # the CPU set changed since: stay put
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, allowed)


def _worker_task(task):
    kind, runs = task
    return execute_task(_WORKER_DATASET, _WORKER_PARAMS, runs, _WORKER_SEED, kind)


def run_experiment(
    config: ExperimentConfig,
    dataset: LabeledDataset | None = None,
    existing: RunTable | None = None,
    progress=None,
) -> RunTable:
    """Produce one RunRecord per (run, model), reusing rows from `existing`.

    The output ordering is (run_index, position of model in config.models)
    regardless of block size and worker count, which is what makes runs.csv
    reproducible. progress(done, total) follows the (run, model) pairs
    computed.
    """
    if dataset is None:
        dataset = load_dataset(config.dataset)
    fingerprint = config.fingerprint(dataset)

    have = {}  # (run_index, kind) -> RunRecord
    if existing is not None:
        # rows without a fingerprint cannot show which configuration made them
        if existing.config_fingerprint != fingerprint:
            raise UsageError(
                "existing results were produced by a different configuration "
                f"({existing.config_fingerprint or 'no fingerprint'} != {fingerprint})"
            )
        have = {(r.run_index, r.model): r for r in existing.records}

    keys = [(run_index, kind) for run_index in range(config.runs) for kind in config.models]
    pending = {kind: [run_index for run_index in range(config.runs)
                      if (run_index, kind) not in have] for kind in config.models}
    tasks = _plan_tasks(pending, config.runs, config.workers, dataset.features.shape)
    total = sum(map(len, pending.values()))
    workers = min(config.workers, len(tasks))
    with contextlib.ExitStack() as stack:
        if workers > 1:
            import multiprocessing  # only here: every other command starts faster

            context, cpus = multiprocessing.get_context(), None
            if hasattr(os, "sched_setaffinity"):
                cpus = context.SimpleQueue()
                for cpu in sorted(os.sched_getaffinity(0)):
                    cpus.put(cpu)
            pool = stack.enter_context(context.Pool(
                processes=workers,
                initializer=_worker_init,
                initargs=(dataset.features, dataset.labels, dataset.source_name,
                          config.model_params, config.base_seed, cpus),
            ))
            results = pool.imap(_worker_task, tasks, chunksize=1)
        else:
            results = (execute_task(dataset, config.model_params, runs,
                                    config.base_seed, kind) for kind, runs in tasks)
        for done, record in enumerate(itertools.chain.from_iterable(results), 1):
            have[(record.run_index, record.model)] = record
            if progress:
                progress(done, total)
    return RunTable(records=tuple(have[key] for key in keys), config_fingerprint=fingerprint)


# --- file formats -----------------------------------------------------------

def _write_text(path, text: str):
    """Write through a sibling temp file and os.replace, so a failed write
    leaves whatever was at path untouched and no partial file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise WriteError(f"{path}: {exc}") from None


def _csv_text(header, rows, fingerprint: str | None = None) -> str:
    """A versioned CSV: comment lines, the header, one line per row of cells,
    each cell quoted where it needs to be. A row whose first cell starts with
    '#' is quoted whole, so it does not read back as a comment."""
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow([f"# format_version={FORMAT_VERSION}"])
    if fingerprint is not None:
        plain.writerow([f"# config_fingerprint={fingerprint}"])
    for row in itertools.chain([header], rows):
        (quoted if str(row[0]).startswith("#") else plain).writerow(row)
    return out.getvalue()


_FLAG_CELLS = {"": None, "true": True, "false": False}


def _parse_flag(cell: str) -> bool | None:
    if cell not in _FLAG_CELLS:
        raise ValueError(f"early_stopped must be empty, 'true' or 'false', got {cell!r}")
    return _FLAG_CELLS[cell]


# runs.csv layout, in column order: (RunRecord field, cell parser, cell renderer)
_RUN_CELLS = (
    ("run_index", int, str),
    ("model", str, str),
    ("seed", int, str),
    ("accuracy", float, format_float),
    ("precision", float, format_float),
    ("recall", float, format_float),
    ("f1", float, format_float),
    ("early_stopped", _parse_flag, {v: k for k, v in _FLAG_CELLS.items()}.__getitem__),
    ("split_hash", str, str),
)
RUNS_CSV_COLUMNS = tuple(name for name, _, _ in _RUN_CELLS)


def _run_row(record: RunRecord) -> list[str]:
    return [render(getattr(record, name)) for name, _, render in _RUN_CELLS]


def runs_csv_text(table: RunTable) -> str:
    return _csv_text(RUNS_CSV_COLUMNS, map(_run_row, table.records), table.config_fingerprint)


def write_runs_csv(table: RunTable, path) -> None:
    _write_text(path, runs_csv_text(table))


def read_runs_csv(path) -> RunTable:
    comments, rows = read_csv_rows(path)
    fingerprint = next((line.split("=", 1)[1] for line in reversed(comments)
                        if line.startswith("# config_fingerprint=")), "")
    if not rows:
        raise VoicebenchError(f"{path}: no header row")
    (_, header), rows = rows[0], rows[1:]
    if tuple(header) != RUNS_CSV_COLUMNS:
        raise VoicebenchError(f"{path}: unexpected columns {header}")
    records, pairs = [], set()
    for lineno, row in rows:
        if len(row) != len(RUNS_CSV_COLUMNS):
            raise VoicebenchError(f"{path} line {lineno}: expected "
                                  f"{len(RUNS_CSV_COLUMNS)} fields, got {len(row)}")
        try:
            records.append(RunRecord(**{
                name: parse(cell) for (name, parse, _), cell in zip(_RUN_CELLS, row)
            }))
        except ValueError as exc:
            raise VoicebenchError(f"{path} line {lineno}: {exc}") from None
        pair = (records[-1].run_index, records[-1].model)
        if pair in pairs:
            raise VoicebenchError(f"{path} line {lineno}: a second row for run "
                                  f"{pair[0]} of model {pair[1]!r}")
        pairs.add(pair)
    return RunTable(records=tuple(records), config_fingerprint=fingerprint)


def timings_csv_text(table: RunTable) -> str:
    # rows reloaded from disk have no fresh timing
    return _csv_text(("run_index", "model", "train_ms"), (
        (r.run_index, r.model, format_float(r.train_ms))
        for r in table.records if r.train_ms is not None
    ))


def boxplot_csv_text(table: RunTable) -> str:
    return _csv_text(("model", "run_index", "accuracy"), (
        (model, r.run_index, format_float(r.accuracy))
        for model in table.model_order() for r in table.records if r.model == model
    ))


# --- analysis ---------------------------------------------------------------

_METRIC_NAMES = ("accuracy", "precision", "recall", "f1")


def _test_result_dict(result: stats.TestResult) -> dict:
    out = {
        "status": "ok",
        "statistic": result.statistic,
        "p_value": result.p_value,
    }
    if result.df is not None:
        out["df"] = list(result.df) if isinstance(result.df, tuple) else result.df
    return out


def analyze(table: RunTable, alpha: float = 0.05) -> dict:
    """The dict report.json holds: descriptives plus the
    normality/variance/omnibus/post-hoc chain.

    Groups are per-model accuracy series over runs. Degenerate situations
    (a zero-variance group, spreads constant within every group, all values
    tied) are reported as status entries instead of aborting, since they
    are legitimate outcomes of a saturated benchmark; so is a normality
    test skipped above 5000 runs, the largest sample Shapiro-Wilk's
    approximation covers.
    """
    models = table.model_order()
    if len(models) < 2:
        raise TooFewModels(f"need at least 2 models to compare, got {len(models)}")
    n_runs = len(table.run_indices())
    if n_runs < 3:
        raise TooFewRuns(f"need at least 3 runs for the tests, got {n_runs}")

    groups = [table.series(model, "accuracy") for model in models]
    for model, acc in zip(models, groups):
        if acc.size != n_runs:
            raise TooFewRuns(
                f"model {model!r} has {acc.size} rows but {n_runs} runs exist"
            )

    descriptives = {}
    for model in models:
        descriptives[model] = {}
        for name in _METRIC_NAMES:
            series = table.series(model, name)
            descriptives[model][name] = {
                "mean": float(series.mean()),
                "std": float(series.std(ddof=1)),
            }

    normality = {}
    for model, acc in zip(models, groups):
        try:
            normality[model] = _test_result_dict(stats.shapiro_wilk(acc))
        except ZeroVariance:
            normality[model] = {"status": "degenerate-zero-variance"}
        except SampleTooLarge:
            normality[model] = {"status": "skipped-n-above-5000"}

    levene = stats.levene(groups)
    # an infinite F: each group's spread is constant, and they differ
    variance = (_test_result_dict(levene) if math.isfinite(levene.statistic)
                else {"status": "degenerate-no-within-spread"})

    try:
        omnibus = _test_result_dict(stats.kruskal_wallis(groups))
    except AllTied:
        omnibus = {"status": "degenerate-all-tied"}

    pairwise = stats.dunn_bonferroni(groups)
    letters = stats.compact_letters(pairwise.adjusted_p, alpha)

    return {
        "format_version": FORMAT_VERSION,
        "alpha": alpha,
        "n_runs": n_runs,
        "models": models,
        "descriptives": descriptives,
        "normality": normality,
        "variance_homogeneity": variance,
        "omnibus": omnibus,
        "pairwise": {
            "models": list(models),
            "z": pairwise.z.tolist(),
            "raw_p": pairwise.raw_p.tolist(),
            "adjusted_p": pairwise.adjusted_p.tolist(),
        },
        "letters": dict(zip(models, letters)),
        "config_fingerprint": table.config_fingerprint,
    }


def emit_report(table: RunTable, report: dict, out_dir) -> dict:
    """Write report.json and boxplot_accuracy.csv. Returns {name: path}."""
    out_dir = Path(out_dir)
    _write_text(out_dir / "report.json", canonical_dumps(report))
    _write_text(out_dir / "boxplot_accuracy.csv", boxplot_csv_text(table))
    return {"report": str(out_dir / "report.json"),
            "boxplot": str(out_dir / "boxplot_accuracy.csv")}


def emit_outputs(table: RunTable, report: dict | None, out_dir) -> dict:
    """Write runs.csv, timings.csv, and (when a report is given) the
    emit_report files. Returns {name: path}."""
    out_dir = Path(out_dir)
    write_runs_csv(table, out_dir / "runs.csv")
    _write_text(out_dir / "timings.csv", timings_csv_text(table))
    paths = {"runs": str(out_dir / "runs.csv"), "timings": str(out_dir / "timings.csv")}
    if report is not None:
        paths.update(emit_report(table, report, out_dir))
    return paths


def dump_splits_csv(config: ExperimentConfig, dataset: LabeledDataset) -> str:
    """Partition membership per run, for auditing subsampling behaviour."""
    def rows():
        for run_index in range(config.runs):
            split = stratified_split(
                dataset, stream_seed(run_seed(config.base_seed, run_index), STREAM_SPLIT))
            for name, idx in _partitions(split):
                for row in idx:
                    yield run_index, name, row
    return _csv_text(("run_index", "partition", "row_index"), rows())


def stderr_progress(done: int, total: int):
    if done == total or done % max(1, total // 20) == 0:
        print(f"  {done}/{total} fits", file=sys.stderr, flush=True)
