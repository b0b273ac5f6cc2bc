"""Output checks applied to every CLI invocation the benchmark makes."""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RUNS_COLUMNS = ("run_index", "model", "seed", "accuracy", "precision", "recall",
                "f1", "early_stopped", "split_hash")
SCORE_COLUMNS = ("accuracy", "precision", "recall", "f1")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_runs(path: Path) -> list[dict]:
    """Rows of a runs.csv as dicts; comment lines are skipped."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line and not line.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != RUNS_COLUMNS:
        raise ValueError(f"{path}: header is not {','.join(RUNS_COLUMNS)}")
    rows = [line.split(",") for line in lines[1:]]
    for number, cells in enumerate(rows, start=1):
        if len(cells) != len(RUNS_COLUMNS):
            raise ValueError(f"{path}: data row {number} has {len(cells)} fields")
    return [dict(zip(RUNS_COLUMNS, cells)) for cells in rows]


def check_outputs(out_dir: Path, runs: int, models: tuple) -> list[str]:
    """Problems with one `voicebench all` output directory; empty when it passes.

    runs.csv must hold exactly one row per (run, model) with every score in
    [0, 1], and report.json must give letters to every model.
    """
    out_dir = Path(out_dir)
    problems = []
    try:
        rows = read_runs(out_dir / "runs.csv")
    except (OSError, ValueError) as exc:
        return [f"runs.csv unreadable: {exc}"]
    expected = {(str(run), model) for run in range(runs) for model in models}
    found = [(row["run_index"], row["model"]) for row in rows]
    if len(found) != len(expected) or set(found) != expected:
        problems.append(f"runs.csv has {len(found)} rows, expected one per "
                        f"(run, model) pair: {len(expected)}")
    for row in rows:
        for column in SCORE_COLUMNS:
            try:
                value = float(row[column])
            except ValueError:
                value = math.nan
            if not 0.0 <= value <= 1.0:
                problems.append(f"runs.csv run {row['run_index']} {row['model']}: "
                                f"{column}={row[column]!r} is outside [0, 1]")
    try:
        letters = json.loads((out_dir / "report.json").read_text()).get("letters", {})
    except (OSError, ValueError, AttributeError) as exc:
        return problems + [f"report.json unreadable: {exc}"]
    missing = [model for model in models if not letters.get(model)]
    if missing:
        problems.append(f"report.json has no letters for {', '.join(missing)}")
    return problems


def accuracy_mean(out_dir: Path) -> float:
    rows = read_runs(Path(out_dir) / "runs.csv")
    return sum(float(row["accuracy"]) for row in rows) / len(rows)


def train_ms_total(out_dir: Path) -> float:
    """Sum of the per-task training times in timings.csv."""
    lines = [line for line in (Path(out_dir) / "timings.csv").read_text().splitlines()
             if line and not line.startswith("#")]
    return sum(float(line.split(",")[2]) for line in lines[1:])
