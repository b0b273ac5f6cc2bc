import dataclasses
import hashlib
import os
import queue

import numpy as np
import pytest

from voicebench import harness
from voicebench.data import LabeledDataset, stratified_split
from voicebench.errors import TooFewModels, TooFewRuns, UsageError, VoicebenchError, WriteError
from voicebench.harness import (
    CANONICAL_KINDS,
    DatasetSpec,
    ExperimentConfig,
    RunRecord,
    RunTable,
    STREAM_MODEL_BASE,
    STREAM_SPLIT,
    analyze,
    boxplot_csv_text,
    dump_splits_csv,
    emit_outputs,
    execute_task,
    load_dataset,
    load_manifest,
    model_stream_id,
    read_runs_csv,
    run_experiment,
    run_seed,
    runs_csv_text,
    stream_seed,
    timings_csv_text,
    write_runs_csv,
)
from voicebench.jsonio import canonical_dumps, canonical_loads
from voicebench.models import BLOCK_KINDS, fit_block
from voicebench.models.forest import _LEVEL_ENTRIES


@pytest.fixture(scope="module")
def tab_config(tabular_csv):
    return ExperimentConfig(
        dataset=DatasetSpec(
            kind="tabular", csv=str(tabular_csv),
            label_column="status", drop_columns=("name",),
        ),
        models=("logreg", "gb"),
        runs=5,
        base_seed=42,
    )


@pytest.fixture(scope="module")
def tab_dataset(tab_config):
    return load_dataset(tab_config.dataset)


class TestSeedDerivation:
    def test_run_seed_is_xor(self):
        assert run_seed(42, 0) == 42
        assert run_seed(42, 3) == 42 ^ 3
        assert run_seed(2 ** 64 - 1, 1) == 2 ** 64 - 2

    def test_stream_seed_stable(self):
        assert stream_seed(42, 0) == stream_seed(42, 0)

    def test_streams_are_distinct(self):
        seeds = [stream_seed(7, sid) for sid in range(8)]
        assert len(set(seeds)) == 8

    def test_model_stream_ids(self):
        for i, kind in enumerate(CANONICAL_KINDS):
            assert model_stream_id(kind) == STREAM_MODEL_BASE + i


class TestConfig:
    def test_fingerprint_ignores_workers_and_outdir(self, tabular_csv, tab_dataset):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        a = ExperimentConfig(dataset=ds, runs=4, workers=1, output_dir="x")
        b = ExperimentConfig(dataset=ds, runs=4, workers=8, output_dir="y")
        assert a.fingerprint(tab_dataset) == b.fingerprint(tab_dataset)

    def test_fingerprint_sees_result_shaping_fields(self, tabular_csv, tab_dataset):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        a = ExperimentConfig(dataset=ds, runs=4)
        b = ExperimentConfig(dataset=ds, runs=5)
        c = ExperimentConfig(dataset=ds, runs=4, base_seed=1)
        assert len({a.fingerprint(tab_dataset), b.fingerprint(tab_dataset),
                    c.fingerprint(tab_dataset)}) == 3

    def test_fingerprint_sees_changed_rows(self, tab_config, tab_dataset):
        features, labels = tab_dataset.features, tab_dataset.labels
        nudged = features.copy()
        nudged[3, 5] += 1e-9
        changed = [
            LabeledDataset(features, 1 - labels),
            LabeledDataset(nudged, labels),
            LabeledDataset(features.reshape(features.shape[0] * 2, -1), np.repeat(labels, 2)),
        ]
        fingerprints = {tab_config.fingerprint(ds) for ds in (tab_dataset, *changed)}
        assert len(fingerprints) == 4

    def test_duplicate_model_rejected(self, tabular_csv):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        with pytest.raises(UsageError):
            ExperimentConfig(dataset=ds, models=("rf", "rf"))

    def test_unknown_model_rejected(self, tabular_csv):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        with pytest.raises(UsageError):
            ExperimentConfig(dataset=ds, models=("xgboost",))

    def test_bad_model_param_rejected_eagerly(self, tabular_csv):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        with pytest.raises(UsageError):
            ExperimentConfig(dataset=ds, model_params={"rf": {"bogus": 1}})

    def test_alpha_range(self, tabular_csv):
        ds = DatasetSpec(kind="tabular", csv=str(tabular_csv), label_column="status")
        with pytest.raises(UsageError):
            ExperimentConfig(dataset=ds, alpha=0.0)

    def test_from_dict_rejects_unknown_key(self, tabular_csv):
        raw = {
            "dataset": {"kind": "tabular", "csv": str(tabular_csv),
                        "label_column": "status"},
            "runz": 10,
        }
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict(raw)

    def test_dataset_spec_validation(self):
        with pytest.raises(UsageError):
            DatasetSpec(kind="audio", root="x")  # manifest missing
        with pytest.raises(UsageError):
            DatasetSpec(kind="tabular", csv="x")  # label column missing
        with pytest.raises(UsageError):
            DatasetSpec(kind="parquet")

    def test_manifest_validation(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"groups": {"a": 2}}')
        with pytest.raises(UsageError):
            load_manifest(path)
        path.write_text('{"groups": {}}')
        with pytest.raises(UsageError):
            load_manifest(path)
        path.write_text('{"groups": {"a": 0, "b": 1}}')
        assert load_manifest(path) == {"a": 0, "b": 1}
        # JSON true equals 1 in Python, but a flag is no label
        path.write_text('{"groups": {"a": 0, "pd": true}}')
        with pytest.raises(UsageError, match="'pd'"):
            load_manifest(path)


class TestExecuteTask:
    def test_pure_given_arguments(self, tab_dataset):
        (a,) = execute_task(tab_dataset, {}, [3], 42, "logreg")
        (b,) = execute_task(tab_dataset, {}, [3], 42, "logreg")
        # everything except the wall-clock timing must reproduce exactly
        strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "train_ms"}
        assert strip(a) == strip(b)

    def test_split_hash_shared_across_models_within_run(self, tab_dataset):
        (a,) = execute_task(tab_dataset, {}, [2], 42, "logreg")
        (b,) = execute_task(tab_dataset, {}, [2], 42, "gb")
        assert a.split_hash == b.split_hash
        assert a.seed == b.seed

    def test_split_hash_differs_across_runs(self, tab_dataset):
        (a,) = execute_task(tab_dataset, {}, [0], 42, "logreg")
        (b,) = execute_task(tab_dataset, {}, [1], 42, "logreg")
        assert a.split_hash != b.split_hash

    def test_model_params_reach_training(self, tab_dataset):
        (normal,) = execute_task(tab_dataset, {}, [0], 7, "logreg")
        # a tolerance above the starting gradient keeps the zero model, so
        # every test row lands on the same side; the scores must reflect that
        (crushed,) = execute_task(
            tab_dataset, {"logreg": {"tol": 1e3}}, [0], 7, "logreg"
        )
        assert crushed.recall in (0.0, 1.0)
        assert crushed.accuracy != normal.accuracy

    @pytest.mark.parametrize("kind", ["gb", "dnn"])
    def test_block_kinds_train_in_one_call(self, tab_dataset, monkeypatch, kind):
        calls = []

        def spy(spec, trains, validations, seeds):
            calls.append(len(trains))
            return fit_block(spec, trains, validations, seeds)

        monkeypatch.setattr(harness, "fit_block", spy)
        monkeypatch.setattr(harness, "fit", None)  # no run fits alone
        params = {"dnn": {"epochs": 3}, "gb": {"n_estimators": 3}}
        block = execute_task(tab_dataset, params, [4, 5, 6], 42, kind)
        assert calls == [3]
        monkeypatch.undo()
        alone = [record for run in (4, 5, 6)
                 for record in execute_task(tab_dataset, params, [run], 42, kind)]
        strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "train_ms"}
        assert [strip(r) for r in block] == [strip(r) for r in alone]


class TestRunExperiment:
    def test_record_grid_and_order(self, tab_config, tab_dataset):
        table = run_experiment(tab_config, dataset=tab_dataset)
        assert len(table.records) == 10
        expected = [(run, kind) for run in range(5) for kind in ("logreg", "gb")]
        assert [(r.run_index, r.model) for r in table.records] == expected
        assert table.config_fingerprint == tab_config.fingerprint(tab_dataset)

    def test_rerun_is_byte_identical(self, tab_config, tab_dataset):
        a = runs_csv_text(run_experiment(tab_config, dataset=tab_dataset))
        b = runs_csv_text(run_experiment(tab_config, dataset=tab_dataset))
        assert a == b

    def test_loads_dataset_when_not_given(self, tab_config, tab_dataset):
        a = run_experiment(tab_config)
        b = run_experiment(tab_config, dataset=tab_dataset)
        assert runs_csv_text(a) == runs_csv_text(b)

    def test_same_rows_at_two_paths_give_equal_bytes(self, tab_config, tabular_csv, tmp_path):
        copy = tmp_path / "renamed" / "copy.csv"
        copy.parent.mkdir()
        copy.write_bytes(tabular_csv.read_bytes())
        moved = dataclasses.replace(tab_config, dataset=dataclasses.replace(
            tab_config.dataset, csv=str(copy)))
        assert runs_csv_text(run_experiment(moved)) == runs_csv_text(run_experiment(tab_config))

    def test_worker_count_does_not_change_output(self, tab_config, tab_dataset):
        calls = []
        serial = run_experiment(tab_config, dataset=tab_dataset,
                                progress=lambda *call: calls.append(call))
        parallel_cfg = ExperimentConfig.from_dict(
            {
                "dataset": {"kind": "tabular", "csv": tab_config.dataset.csv,
                            "label_column": "status", "drop_columns": ["name"]},
                "models": list(tab_config.models),
                "runs": tab_config.runs,
                "base_seed": tab_config.base_seed,
                "workers": 3,
            }
        )
        parallel = run_experiment(parallel_cfg, dataset=tab_dataset,
                                  progress=lambda *call: calls.append(call))
        assert runs_csv_text(serial) == runs_csv_text(parallel)
        # once per task on each path, in order
        assert calls == 2 * [(done, 10) for done in range(1, 11)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_worker_moves_once_onto_its_cpu(self, tab_dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus)))
        monkeypatch.setattr(harness, "_warm_heap", lambda: None)  # keep this process's heap
        for name in ("_WORKER_DATASET", "_WORKER_PARAMS", "_WORKER_SEED"):
            monkeypatch.setattr(harness, name, None)
        allowed = os.sched_getaffinity(0)
        cpus = queue.SimpleQueue()
        for cpu in (5, 7):
            cpus.put(cpu)
        for _ in range(3):  # three workers on two CPUs wrap around
            harness._worker_init(tab_dataset.features, tab_dataset.labels, "t", {}, 0, cpus)
        assert calls == [{5}, allowed, {7}, allowed, {5}, allowed]
        harness._worker_init(tab_dataset.features, tab_dataset.labels, "t", {}, 0)
        assert len(calls) == 6  # no queue, no move

    def test_block_size_does_not_change_output(self, tab_config, tab_dataset, monkeypatch):
        config = dataclasses.replace(tab_config, models=CANONICAL_KINDS)
        texts = set()
        for workers in (1, 2):
            for size in (1, 2, 5):
                monkeypatch.setattr(harness, "_block_size", lambda *args, size=size: size)
                table = run_experiment(dataclasses.replace(config, workers=workers),
                                       dataset=tab_dataset)
                texts.add(runs_csv_text(table))
        assert len(texts) == 1

    def test_block_size_spreads_runs_within_an_engine_batch(self):
        assert harness._block_size(5, 1, (12, 13)) == 5
        assert harness._block_size(5, 2, (195, 22)) == 3
        assert harness._block_size(3, 8, (60, 22)) == 1
        assert harness._block_size(1000, 2, (195, 22)) == _LEVEL_ENTRIES // (195 * 22) > 1
        assert harness._block_size(10, 1, (2000, 50)) == 1

    @pytest.mark.parametrize("runs, workers, shape", [
        (5, 1, (195, 22)), (5, 2, (195, 22)), (5, 3, (12, 13)), (20, 2, (195, 22)),
        (7, 4, (60, 22)), (3, 8, (60, 22)), (10, 2, (2000, 50))])
    @pytest.mark.parametrize("resumed_every", [0, 2, 3])
    def test_task_plan_gives_stacked_kinds_whole_blocks(self, runs, workers, shape,
                                                       resumed_every):
        grid = [(run, kind) for run in range(runs) for kind in CANONICAL_KINDS]
        # a resume finds every resumed_every-th pair missing (0: a fresh run)
        missing = [pair for i, pair in enumerate(grid) if not resumed_every
                   or i % resumed_every == 0]
        pending = {kind: [run for run, k in missing if k == kind] for kind in CANONICAL_KINDS}
        tasks = harness._plan_tasks(pending, runs, workers, shape)
        planned = [(run, kind) for kind, block in tasks for run in block]
        assert sorted(planned) == sorted(missing)  # each pending pair exactly once
        cap, spread = harness._block_size(runs, 1, shape), harness._block_size(runs, workers, shape)
        left = {kind: len(block) for kind, block in pending.items()}
        for kind, block in tasks:
            if kind in BLOCK_KINDS:
                assert len(block) == min(left[kind], cap)
            else:
                assert 1 <= len(block) <= spread
            left[kind] -= len(block)
        stacked = [kind in BLOCK_KINDS for kind, _ in tasks]
        assert stacked == sorted(stacked, reverse=True)  # stacked tasks first

    def test_run_experiment_executes_the_task_plan(self, tab_config, tab_dataset, monkeypatch):
        config = dataclasses.replace(tab_config, models=CANONICAL_KINDS)
        executed = []
        real = harness.execute_task

        def recording(dataset, model_params, runs, base_seed, kind):
            executed.append((kind, list(runs)))
            return real(dataset, model_params, runs, base_seed, kind)

        monkeypatch.setattr(harness, "execute_task", recording)
        run_experiment(config, dataset=tab_dataset)
        pending = {kind: list(range(config.runs)) for kind in CANONICAL_KINDS}
        assert executed == harness._plan_tasks(pending, config.runs, 1, tab_dataset.features.shape)
        assert executed[0][0] == "gb"

    @pytest.mark.parametrize("workers", [1, 3])
    def test_resume_completes_missing_pairs(self, tab_config, tab_dataset, workers):
        full = run_experiment(tab_config, dataset=tab_dataset)
        partial = RunTable(
            records=tuple(r for i, r in enumerate(full.records) if i % 3 != 0),
            config_fingerprint=full.config_fingerprint,
        )
        calls = []
        resumed = run_experiment(dataclasses.replace(tab_config, workers=workers),
                                 dataset=tab_dataset, existing=partial,
                                 progress=lambda *call: calls.append(call))
        assert runs_csv_text(resumed) == runs_csv_text(full)
        # the gaps (rows 0, 3, 6, 9) are the only tasks computed and counted
        assert calls == [(done, 4) for done in range(1, 5)]

    def test_resume_reuses_existing_rows(self, tab_config, tab_dataset):
        full = run_experiment(tab_config, dataset=tab_dataset)
        marked = RunRecord(**{**full.records[0].__dict__, "train_ms": 1234.5})
        partial = RunTable(
            records=(marked,), config_fingerprint=full.config_fingerprint
        )
        resumed = run_experiment(tab_config, dataset=tab_dataset, existing=partial)
        assert resumed.records[0].train_ms == 1234.5  # kept, not recomputed

    def test_resume_refuses_rows_of_older_seed_protocol(self, tab_config, tab_dataset, tmp_path):
        # runs.csv files written before seed protocol 4 carry the fingerprint
        # of the dataset's path and the same fields; before protocol 2,
        # without the protocol field
        older = {"dataset": {"kind": "tabular", "csv": tab_config.dataset.csv,
                             "label_column": "status", "drop_columns": ["name"]},
                 "models": list(tab_config.models),
                 "model_params": {}, "runs": tab_config.runs,
                 "base_seed": tab_config.base_seed, "alpha": tab_config.alpha}
        full = run_experiment(tab_config, dataset=tab_dataset)
        path = tmp_path / "runs.csv"
        for payload in (older, {**older, "seed_protocol": 3}):
            fingerprint = hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()[:16]
            assert fingerprint != tab_config.fingerprint(tab_dataset)
            write_runs_csv(RunTable(records=full.records, config_fingerprint=fingerprint), path)
            with pytest.raises(UsageError, match="different configuration"):
                run_experiment(tab_config, dataset=tab_dataset, existing=read_runs_csv(path))

    def test_resume_refuses_rows_of_seed_protocol_2(self, tab_config, tab_dataset, tmp_path,
                                                    monkeypatch):
        # protocol 3 changed every rf row, protocol 5 every logreg fit,
        # protocol 6 logreg fits at c < 1 and protocol 7 the dnn's weights;
        # the fingerprint carries the protocol
        full = run_experiment(tab_config, dataset=tab_dataset)
        path = tmp_path / "runs.csv"
        for protocol in (2, 4, 5, 6):
            with monkeypatch.context() as patched:
                patched.setattr(harness, "SEED_PROTOCOL", protocol)
                older = tab_config.fingerprint(tab_dataset)
            assert older != tab_config.fingerprint(tab_dataset)
            write_runs_csv(RunTable(records=full.records, config_fingerprint=older), path)
            with pytest.raises(UsageError, match="different configuration"):
                run_experiment(tab_config, dataset=tab_dataset, existing=read_runs_csv(path))

    def test_resume_rejects_foreign_fingerprint(self, tab_config, tab_dataset):
        full = run_experiment(tab_config, dataset=tab_dataset)
        foreign = RunTable(records=full.records, config_fingerprint="deadbeef")
        with pytest.raises(UsageError):
            run_experiment(tab_config, dataset=tab_dataset, existing=foreign)


class TestCsvFormats:
    def test_runs_roundtrip_byte_identical(self, tab_config, tab_dataset, tmp_path):
        table = run_experiment(tab_config, dataset=tab_dataset)
        path = tmp_path / "runs.csv"
        write_runs_csv(table, path)
        again = read_runs_csv(path)
        assert runs_csv_text(again) == runs_csv_text(table)
        assert again.config_fingerprint == table.config_fingerprint

    def test_runs_csv_layout(self, tab_config, tab_dataset):
        table = run_experiment(tab_config, dataset=tab_dataset)
        lines = runs_csv_text(table).splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == f"# config_fingerprint={table.config_fingerprint}"
        assert lines[2] == ("run_index,model,seed,accuracy,precision,recall,"
                            "f1,early_stopped,split_hash")
        assert len(lines) == 3 + len(table.records)

    def test_failed_write_keeps_prior_file(self, tab_config, tab_dataset, tmp_path,
                                           monkeypatch):
        table = run_experiment(tab_config, dataset=tab_dataset)
        path = tmp_path / "runs.csv"
        write_runs_csv(table, path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        shorter = RunTable(records=table.records[:2],
                           config_fingerprint=table.config_fingerprint)
        with pytest.raises(WriteError, match="replace refused"):
            write_runs_csv(shorter, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.csv"]

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("# format_version=1\nrun,who\n")
        with pytest.raises(VoicebenchError):
            read_runs_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda text: "\ufeff" + text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\nrun_index,", "\n\nrun_index,", 1),
    ], ids=["bom", "crlf", "blank_line_after_comments"])
    def test_read_edited_file_like_the_plain_one(self, tmp_path, edit):
        # each of these read back as "unexpected columns"
        table = _synthetic_table({"rf": [0.5, 0.6, 0.7], "gb": [0.4, 0.5, 0.6]})
        plain, edited = tmp_path / "plain.csv", tmp_path / "edited.csv"
        write_runs_csv(table, plain)
        edited.write_bytes(edit(plain.read_text()).encode("utf-8"))
        assert read_runs_csv(edited) == read_runs_csv(plain) == table

    def test_messages_name_file_lines(self, tmp_path):
        # the quoted cell spans lines 4-5 and line 6 is blank, so the bad row
        # is line 7; pairing rows with lines one to one said line 6
        lines = runs_csv_text(_synthetic_table({"rf": [0.5], "gb": [0.4]})).splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ',"h\n0"'
        lines[4] = "\n" + lines[4].replace("0.4", "high", 1)
        path = tmp_path / "runs.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VoicebenchError, match="line 7: could not convert"):
            read_runs_csv(path)

    def test_early_stopped_tristate_roundtrip(self, tmp_path):
        records = tuple(
            RunRecord(run_index=i, model="dnn", seed=i, accuracy=0.5,
                      precision=0.5, recall=0.5, f1=0.5,
                      early_stopped=flag, split_hash="h")
            for i, flag in enumerate((None, True, False))
        )
        table = RunTable(records=records, config_fingerprint="abc")
        path = tmp_path / "runs.csv"
        write_runs_csv(table, path)
        again = read_runs_csv(path)
        assert [r.early_stopped for r in again.records] == [None, True, False]

    def test_timings_skip_reloaded_rows(self):
        fresh = RunRecord(run_index=0, model="rf", seed=0, accuracy=1.0,
                          precision=1.0, recall=1.0, f1=1.0,
                          early_stopped=None, split_hash="h", train_ms=2.5)
        reloaded = RunRecord(run_index=1, model="rf", seed=1, accuracy=1.0,
                             precision=1.0, recall=1.0, f1=1.0,
                             early_stopped=None, split_hash="h", train_ms=None)
        text = timings_csv_text(RunTable((fresh, reloaded), "abc"))
        lines = text.splitlines()
        assert lines[1] == "run_index,model,train_ms"
        assert lines[2:] == ["0,rf,2.5"]

    def test_boxplot_groups_by_model(self):
        records = tuple(
            RunRecord(run_index=i, model=m, seed=0, accuracy=0.25 * (i + 1),
                      precision=0.5, recall=0.5, f1=0.5,
                      early_stopped=None, split_hash="h")
            for m in ("a_model", "b_model") for i in range(2)
        )
        # interleave to prove grouping is by model, not input order
        shuffled = (records[0], records[2], records[1], records[3])
        lines = boxplot_csv_text(RunTable(shuffled, "f")).splitlines()
        assert lines[1] == "model,run_index,accuracy"
        assert lines[2:] == [
            "a_model,0,0.25", "a_model,1,0.5",
            "b_model,0,0.25", "b_model,1,0.5",
        ]


def _synthetic_table(series_by_model: dict, fingerprint: str = "fp") -> RunTable:
    """Build a RunTable от per-model accuracy sequences (equal lengths)."""
    records = []
    lengths = {len(v) for v in series_by_model.values()}
    assert len(lengths) == 1
    (n_runs,) = lengths
    for run in range(n_runs):
        for model, series in series_by_model.items():
            acc = float(series[run])
            records.append(RunRecord(
                run_index=run, model=model, seed=run,
                accuracy=acc,
                precision=min(1.0, acc + 0.01 * (run % 3)),
                recall=max(0.0, acc - 0.005 * (run % 2)),
                f1=acc,
                early_stopped=None,
                split_hash=f"h{run}",
            ))
    return RunTable(records=tuple(records), config_fingerprint=fingerprint)


class TestAnalyze:
    def test_too_few_models(self):
        table = _synthetic_table({"rf": [0.5, 0.6, 0.7, 0.8]})
        with pytest.raises(TooFewModels):
            analyze(table)

    def test_too_few_runs(self):
        table = _synthetic_table({"rf": [0.5, 0.6], "gb": [0.4, 0.5]})
        with pytest.raises(TooFewRuns):
            analyze(table)

    def test_unbalanced_rows_rejected(self):
        table = _synthetic_table({"rf": [0.5, 0.6, 0.7], "gb": [0.4, 0.5, 0.6]})
        table = RunTable(records=table.records[:-1],
                         config_fingerprint=table.config_fingerprint)
        with pytest.raises(TooFewRuns):
            analyze(table)

    def test_descriptives_recompute(self):
        rng = np.random.default_rng(17)
        table = _synthetic_table({
            "rf": rng.uniform(0.6, 0.9, size=12),
            "gb": rng.uniform(0.5, 0.8, size=12),
        })
        report = analyze(table)
        for model in ("rf", "gb"):
            rows = sorted((r for r in table.records if r.model == model),
                          key=lambda r: r.run_index)
            for name in ("accuracy", "precision", "recall", "f1"):
                series = np.array([getattr(r, name) for r in rows])
                entry = report["descriptives"][model][name]
                assert abs(entry["mean"] - series.mean()) < 1e-12
                assert abs(entry["std"] - series.std(ddof=1)) < 1e-12

    def test_separated_models_get_distinct_letters(self):
        rng = np.random.default_rng(18)
        table = _synthetic_table({
            "strong": rng.uniform(0.9, 0.95, size=15),
            "weak": rng.uniform(0.5, 0.55, size=15),
        })
        report = analyze(table)
        assert report["letters"]["strong"] != report["letters"]["weak"]
        assert report["omnibus"]["p_value"] < 0.01
        assert report["normality"]["strong"]["status"] == "ok"

    def test_indistinguishable_models_share_letter(self):
        rng = np.random.default_rng(19)
        base = rng.uniform(0.7, 0.9, size=20)
        table = _synthetic_table({
            "a": base,
            "b": base + rng.normal(0, 1e-3, size=20),
        })
        report = analyze(table)
        assert report["letters"]["a"] == report["letters"]["b"] == "a"

    def test_zero_variance_group_reported_not_raised(self):
        rng = np.random.default_rng(20)
        table = _synthetic_table({
            "flat": np.full(10, 0.75),
            "varied": rng.uniform(0.5, 0.9, size=10),
        })
        report = analyze(table)
        assert report["normality"]["flat"]["status"] == "degenerate-zero-variance"
        assert report["normality"]["varied"]["status"] == "ok"

    def test_normality_above_5000_runs_reported_not_raised(self):
        rng = np.random.default_rng(21)
        table = _synthetic_table({
            "strong": rng.uniform(0.7, 0.95, size=5001),
            "weak": rng.uniform(0.5, 0.75, size=5001),
        })
        report = analyze(table)
        assert report["normality"] == {"strong": {"status": "skipped-n-above-5000"},
                                       "weak": {"status": "skipped-n-above-5000"}}
        assert report["variance_homogeneity"]["status"] == report["omnibus"]["status"] == "ok"
        assert report["letters"] == {"strong": "a", "weak": "b"}

    def test_all_tied_omnibus_reported_not_raised(self):
        table = _synthetic_table({
            "a": np.full(5, 0.8),
            "b": np.full(5, 0.8),
        })
        report = analyze(table)
        assert report["omnibus"]["status"] == "degenerate-all-tied"
        assert report["letters"]["a"] == report["letters"]["b"]

    def test_report_json_roundtrip_byte_identical(self):
        rng = np.random.default_rng(21)
        table = _synthetic_table({
            "rf": rng.uniform(0.6, 0.9, size=8),
            "gb": rng.uniform(0.5, 0.8, size=8),
            "svm": rng.uniform(0.7, 0.95, size=8),
        })
        text = canonical_dumps(analyze(table))
        assert canonical_dumps(canonical_loads(text)) == text
        parsed = canonical_loads(text)
        assert parsed["format_version"] == 1
        assert parsed["n_runs"] == 8
        assert set(parsed["letters"]) == {"rf", "gb", "svm"}


class TestEmitOutputs:
    def test_without_report(self, tab_config, tab_dataset, tmp_path):
        table = run_experiment(tab_config, dataset=tab_dataset)
        paths = emit_outputs(table, None, tmp_path / "out")
        assert sorted(paths) == ["runs", "timings"]
        assert (tmp_path / "out" / "runs.csv").exists()
        assert (tmp_path / "out" / "timings.csv").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_with_report(self, tab_config, tab_dataset, tmp_path):
        table = run_experiment(tab_config, dataset=tab_dataset)
        report = analyze(table, alpha=tab_config.alpha)
        paths = emit_outputs(table, report, tmp_path / "out")
        assert sorted(paths) == ["boxplot", "report", "runs", "timings"]
        text = (tmp_path / "out" / "report.json").read_text()
        assert canonical_dumps(canonical_loads(text)) == text
        boxplot = (tmp_path / "out" / "boxplot_accuracy.csv").read_text()
        # one row per (model, run) plus version comment plus header
        assert len(boxplot.splitlines()) == 2 + len(table.records)


class TestDumpSplits:
    def test_covers_every_row_once_per_run(self, tab_config, tab_dataset):
        text = dump_splits_csv(tab_config, tab_dataset)
        lines = text.splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "run_index,partition,row_index"
        body = [line.split(",") for line in lines[2:]]
        n_rows = tab_dataset.labels.size
        assert len(body) == tab_config.runs * n_rows
        for run in range(tab_config.runs):
            rows = sorted(int(r[2]) for r in body if int(r[0]) == run)
            assert rows == list(range(n_rows))

    def test_membership_matches_split(self, tab_config, tab_dataset):
        text = dump_splits_csv(tab_config, tab_dataset)
        body = [line.split(",") for line in text.splitlines()[2:]]
        test_rows = sorted(
            int(r[2]) for r in body if r[0] == "0" and r[1] == "test"
        )
        rs = run_seed(tab_config.base_seed, 0)
        split = stratified_split(tab_dataset, stream_seed(rs, STREAM_SPLIT))
        assert test_rows == sorted(split.test_idx.tolist())
