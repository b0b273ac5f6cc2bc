"""Tests of the benchmark itself: seeded inputs, output checks, span arithmetic.

    python3 -m pytest bench
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import tracer


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_table_is_deterministic_per_seed_and_uci_shaped(tmp_path):
    inputs.write_table(tmp_path / "a.csv", 5)
    inputs.write_table(tmp_path / "b.csv", 5)
    inputs.write_table(tmp_path / "c.csv", 6)
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a != (tmp_path / "c.csv").read_bytes()
    header, *rows = a.decode().splitlines()
    assert len(header.split(",")) == 1 + 22 + 1
    labels = [row.rsplit(",", 1)[1] for row in rows]
    assert (labels.count("0"), labels.count("1")) == (48, 147)


def test_corpus_is_deterministic_per_seed_with_a_fixed_plan(tmp_path):
    seconds = inputs.write_corpus(tmp_path / "a", 5)
    assert seconds == inputs.write_corpus(tmp_path / "b", 5)
    assert seconds == inputs.write_corpus(tmp_path / "c", 6)  # same work for every seed
    a = _tree_bytes(tmp_path / "a")
    assert a == _tree_bytes(tmp_path / "b")
    assert a != _tree_bytes(tmp_path / "c")
    assert len([name for name in a if name.endswith(".wav")]) == 2 * len(inputs.CORPUS_PLAN)
    expected = {rate: 0.0 for rate in inputs.CORPUS_RATES}
    for rate, duration in inputs.CORPUS_PLAN:
        expected[rate] += 2 * duration
    assert seconds == pytest.approx(expected)


def test_analysis_runs_are_deterministic_per_seed(tmp_path):
    inputs.write_analysis_runs(tmp_path / "a.csv", 5)
    inputs.write_analysis_runs(tmp_path / "b.csv", 5)
    inputs.write_analysis_runs(tmp_path / "c.csv", 6)
    assert checks.sha256(tmp_path / "a.csv") == checks.sha256(tmp_path / "b.csv")
    assert checks.sha256(tmp_path / "a.csv") != checks.sha256(tmp_path / "c.csv")
    assert len(checks.read_runs(tmp_path / "a.csv")) == 5 * inputs.ANALYSIS_RUNS


@pytest.fixture(scope="module")
def cli_output(tmp_path_factory):
    """One real `voicebench all` output directory on the generated table."""
    root = tmp_path_factory.mktemp("cli")
    inputs.write_table(root / "table.csv", 3)
    code, *_ = run.launch(
        [sys.executable, "-c", run.LAUNCH, "all", "--tabular-csv", str(root / "table.csv"),
         "--label-column", inputs.TABLE_LABEL, "--drop-columns", inputs.TABLE_DROP,
         "--runs", str(run.RUNS), "--seed", "3", "--out", str(root / "out"), "--quiet"],
        root / "cli.log")
    assert code == 0, (root / "cli.log").read_text()
    return root / "out"


def _tampered(cli_output: Path, tmp_path: Path, edit) -> Path:
    out = tmp_path / "out"
    shutil.copytree(cli_output, out)
    lines = (out / "runs.csv").read_text().splitlines()
    (out / "runs.csv").write_text("\n".join(edit(lines)) + "\n")
    return out


def test_checks_accept_real_output(cli_output):
    assert checks.check_outputs(cli_output, run.RUNS, run.MODELS) == []


def _edit_first_row(edit_cells):
    """An edit of runs.csv's first data row (after two comments and the header)."""
    def edit(lines):
        return lines[:3] + [",".join(edit_cells(lines[3].split(",")))] + lines[4:]
    return edit


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],
    lambda lines: lines + lines[-1:],
    _edit_first_row(lambda cells: cells[:3] + ["1.5"] + cells[4:]),
    _edit_first_row(lambda cells: cells[:-1]),
    lambda lines: [line.replace("accuracy", "acc") for line in lines],
], ids=["missing-row", "duplicate-row", "score-out-of-range", "short-row", "header"])
def test_checks_reject_tampered_runs_csv(cli_output, tmp_path, edit):
    out = _tampered(cli_output, tmp_path, edit)
    assert checks.check_outputs(out, run.RUNS, run.MODELS)
    assert checks.sha256(out / "runs.csv") != checks.sha256(cli_output / "runs.csv")


def test_checks_reject_missing_letters(cli_output, tmp_path):
    out = _tampered(cli_output, tmp_path, lambda lines: lines)
    report = json.loads((out / "report.json").read_text())
    del report["letters"]["gb"]
    (out / "report.json").write_text(json.dumps(report))
    assert checks.check_outputs(out, run.RUNS, run.MODELS) == [
        "report.json has no letters for gb"]


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_layer_metrics_split_self_time_between_layers():
    spans = [
        _span("cli.cli_main", 0.0, 10.0),
        _span("harness.run_experiment", 1.0, 9.0, 0),
        _span("models.fit", 2.0, 6.0, 1, kind="gb", converged=False, epochs_run=None),
        _span("models.predict", 6.0, 7.0, 1, kind="gb"),
    ]
    out = tracer.layer_metrics(spans, runs=1, analysis_spans=[])
    assert out["layer.models.self_s"] == pytest.approx(5.0)
    assert out["layer.harness.self_s"] == pytest.approx(3.0)
    assert out["trace.unattributed_frac"] == pytest.approx(0.2)
    assert out["models.fit.ms.gb"] == pytest.approx(4000.0)
    assert out["models.fit.unconverged.gb"] == 1.0
    assert out["audio.resample.kept_frac"] == 0.0  # layer not exercised


def test_end_to_end_times_are_window_means_scaled_by_calibration():
    passed = [run.Invocation(Path("a"), 0, wall, 2 * wall, rss, [], accuracy_mean=0.9)
              for wall, rss in ((2.0, 40.0), (4.0, 50.0), (6.0, 45.0))]
    out = run.end_to_end(passed, setup_walls=[0.2, 0.4], scale=0.5)
    tasks = run.RUNS * len(run.MODELS)
    assert out["wall_s"] == pytest.approx(2.0)
    assert out["cpu_s"] == pytest.approx(4.0)
    assert out["tasks_per_s"] == pytest.approx(3 * tasks / 12.0 / 0.5)
    assert out["setup_s"] == pytest.approx(0.15)
    assert out["peak_rss_mb"] == 45.0 and out["accuracy_mean"] == 0.9


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
