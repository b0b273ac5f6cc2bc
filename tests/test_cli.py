import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voicebench
from voicebench import cli, harness
from voicebench.cli import cli_main
from voicebench.harness import read_runs_csv
from voicebench.jsonio import canonical_loads


def _tab_args(tabular_csv, out_dir, *extra):
    return [
        "--tabular-csv", str(tabular_csv),
        "--label-column", "status",
        "--drop-columns", "name",
        "--runs", "4",
        "--seed", "11",
        "--models", "logreg,gb",
        "--quiet",
        "--out", str(out_dir),
        *extra,
    ]


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "extract" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 1

    def test_unknown_model_lists_valid_kinds(self, tabular_csv, tmp_path, capsys):
        code = cli_main(
            ["run", *_tab_args(tabular_csv, tmp_path, "--models", "rf,perceptron")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "perceptron" in err
        assert "logreg, svm, rf, gb, dnn" in err

    def test_no_dataset_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["run", "--runs", "3", "--out", str(tmp_path)]) == 1
        assert "no dataset" in capsys.readouterr().err

    def test_audio_dir_requires_manifest(self, tmp_path, capsys):
        code = cli_main(["run", "--audio-dir", "somewhere", "--out", str(tmp_path)])
        assert code == 1
        assert "--manifest" in capsys.readouterr().err

    def test_missing_csv_file_is_data_error(self, tmp_path, capsys):
        code = cli_main([
            "run", "--tabular-csv", str(tmp_path / "ghost.csv"),
            "--label-column", "y", "--runs", "2", "--quiet",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_nonfinite_cell_is_data_error(self, tabular_csv, tmp_path, capsys):
        lines = tabular_csv.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "nan"
        lines[5] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli_main(["all", *_tab_args(bad, tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad} row 6, column 'feat_02': 'nan'" in err
        assert not (tmp_path / "out" / "runs.csv").exists()

    def test_column_named_twice_is_data_error(self, tabular_csv, tmp_path, capsys):
        # a second 'status' column holding the labels would leak them into
        # the features
        header, *rows = tabular_csv.read_text().splitlines()
        names = header.split(",")
        names[1] = "status"
        lines = [",".join(names)]
        for row in rows:
            cells = row.split(",")
            cells[1] = cells[-1]
            lines.append(",".join(cells))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli_main(["all", *_tab_args(bad, tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}: column 'status' is named twice" in err
        assert not (tmp_path / "out").exists()

    def test_console_script_help(self):
        proc = subprocess.run(
            ["voicebench", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout


class TestRun:
    def test_writes_runs_and_timings(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        assert (out / "runs.csv").exists()
        assert (out / "timings.csv").exists()
        # run alone must not produce analysis artifacts
        assert not (out / "report.json").exists()
        assert not (out / "boxplot_accuracy.csv").exists()
        table = read_runs_csv(out / "runs.csv")
        assert len(table.records) == 8  # 4 runs x 2 models
        assert "completed 4 runs x 2 models" in capsys.readouterr().out

    def test_repeat_run_is_byte_identical(self, tabular_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", *_tab_args(tabular_csv, out_a)]) == 0
        assert cli_main(["run", *_tab_args(tabular_csv, out_b)]) == 0
        assert (out_a / "runs.csv").read_bytes() == (out_b / "runs.csv").read_bytes()

    def test_resume_completes_truncated_table(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        full = (out / "runs.csv").read_bytes()

        lines = full.decode().splitlines(keepends=True)
        (out / "runs.csv").write_text("".join(lines[:3 + 3]))  # keep 3 data rows
        assert cli_main(["run", *_tab_args(tabular_csv, out, "--resume")]) == 0
        assert "resuming: 3 rows already present" in capsys.readouterr().out
        assert (out / "runs.csv").read_bytes() == full

    def test_resume_rejects_other_config(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        code = cli_main(
            ["run", *_tab_args(tabular_csv, out, "--resume", "--seed", "99")]
        )
        assert code == 1
        assert "different configuration" in capsys.readouterr().err

    def test_resume_refuses_rows_without_a_fingerprint(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        args = _tab_args(tabular_csv, out)
        args[args.index("4")] = "3"
        args[args.index("logreg,gb")] = "logreg,svm"
        args[args.index("11")] = "1"
        assert cli_main(["run", *args]) == 0
        runs = out / "runs.csv"
        lines = runs.read_text().splitlines(keepends=True)
        runs.write_text("".join(line for line in lines
                                if not line.startswith("# config_fingerprint=")))
        stripped = runs.read_bytes()
        args[args.index("1")] = "99"
        capsys.readouterr()
        assert cli_main(["run", *args, "--resume"]) == 1
        assert "different configuration (no fingerprint != " in capsys.readouterr().err
        assert runs.read_bytes() == stripped

    def test_resume_refuses_changed_rows_at_the_same_path(self, tabular_csv, tmp_path, capsys):
        table, out = tmp_path / "voice.csv", tmp_path / "out"
        table.write_bytes(tabular_csv.read_bytes())
        assert cli_main(["all", *_tab_args(table, out)]) == 0
        before = read_runs_csv(out / "runs.csv").config_fingerprint
        header, *rows = table.read_text().splitlines()
        table.write_text("\n".join([header] + [row[:-1] + str(1 - int(row[-1])) for row in rows]))
        assert cli_main(["all", *_tab_args(table, tmp_path / "fresh")]) == 0
        after = read_runs_csv(tmp_path / "fresh" / "runs.csv").config_fingerprint
        capsys.readouterr()
        assert cli_main(["all", *_tab_args(table, out, "--resume")]) == 1
        err = capsys.readouterr().err
        assert "different configuration" in err and before in err and after in err

    def test_dump_splits(self, tabular_csv, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out, "--dump-splits")]) == 0
        lines = (out / "splits.csv").read_text().splitlines()
        assert lines[1] == "run_index,partition,row_index"
        assert len(lines) == 2 + 4 * 60  # per run, every row appears once

    def test_env_var_default_output(self, tabular_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("VOICEBENCH_OUT", str(tmp_path / "from_env"))
        args = _tab_args(tabular_csv, "ignored")
        args = args[: args.index("--out")] + args[args.index("--out") + 2:]
        assert cli_main(["run", *args]) == 0
        assert (tmp_path / "from_env" / "runs.csv").exists()


class TestAnalyzeCommand:
    def test_full_chain(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        assert cli_main([
            "analyze", "--runs-csv", str(out / "runs.csv"),
            "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "model accuracy (mean +/- std) letters" in stdout
        report = canonical_loads((out / "report.json").read_text())
        assert report["n_runs"] == 4
        assert set(report["letters"]) == {"logreg", "gb"}
        assert (out / "boxplot_accuracy.csv").exists()

    def test_single_model_is_data_error(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        args = _tab_args(tabular_csv, out)
        args[args.index("logreg,gb")] = "rf"
        assert cli_main(["run", *args]) == 0
        code = cli_main([
            "analyze", "--runs-csv", str(out / "runs.csv"), "--out", str(out)
        ])
        assert code == 2
        assert "at least 2 models" in capsys.readouterr().err

    def test_keeps_run_outputs_in_same_dir(self, tabular_csv, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        before = {name: (out / name).read_bytes() for name in ("runs.csv", "timings.csv")}
        assert len(before["timings.csv"].splitlines()) == 2 + 8
        assert cli_main([
            "analyze", "--runs-csv", str(out / "runs.csv"), "--out", str(out)
        ]) == 0
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
        assert (out / "report.json").exists()
        assert (out / "boxplot_accuracy.csv").exists()

    @pytest.mark.parametrize(
        "row,detail",
        [("0,logreg,11,0.5", "expected 9 fields, got 4"),
         ("0,logreg,11,high,0.5,0.5,0.5,,abc", "could not convert"),
         ("0,logreg,11,0.5,0.5,0.5,0.5,maybe,abc", "early_stopped")],
    )
    def test_bad_row_is_data_error(self, tabular_csv, tmp_path, capsys, row, detail):
        out = tmp_path / "out"
        assert cli_main(["run", *_tab_args(tabular_csv, out)]) == 0
        runs = out / "runs.csv"
        lines = runs.read_text().splitlines()
        lines[4] = row  # two comment lines, the header, then the data
        runs.write_text("\n".join(lines) + "\n")
        code = cli_main(["analyze", "--runs-csv", str(runs), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{runs} line 5" in err
        assert detail in err

    def test_second_row_for_a_pair_is_data_error(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        args = _tab_args(tabular_csv, out)
        args[args.index("4")] = "5"
        args[args.index("logreg,gb")] = "logreg,svm"
        assert cli_main(["run", *args]) == 0
        runs = out / "runs.csv"
        lines = runs.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("0,logreg,"))
        last = next(i for i, line in enumerate(lines) if line.startswith("4,logreg,"))
        lines[last] = lines[first]
        runs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for command in (["analyze", "--runs-csv", str(runs), "--out", str(out)],
                        ["run", *args, "--resume"]):
            assert cli_main(command) == 2
            err = capsys.readouterr().err
            assert f"{runs} line {last + 1}" in err and "run 0 of model 'logreg'" in err

    def test_normality_above_5000_runs_is_a_status(self, tmp_path, capsys):
        # Shapiro-Wilk's approximation stops at 5000 values; the rest of the
        # chain still runs
        records = [harness.RunRecord(
            run_index=run, model=model, seed=run, accuracy=acc, precision=acc,
            recall=acc, f1=acc, early_stopped=None, split_hash=f"h{run}")
            for run in range(5001)
            for model, acc in (("logreg", 0.5 + (run % 7) / 20), ("svm", 0.6 + (run % 5) / 20))]
        runs = tmp_path / "runs.csv"
        harness.write_runs_csv(harness.RunTable(tuple(records), "fp"), runs)
        assert cli_main(["analyze", "--runs-csv", str(runs), "--out", str(tmp_path)]) == 0
        report = canonical_loads((tmp_path / "report.json").read_text())
        assert report["normality"] == {"logreg": {"status": "skipped-n-above-5000"},
                                       "svm": {"status": "skipped-n-above-5000"}}
        assert report["variance_homogeneity"]["status"] == report["omnibus"]["status"] == "ok"
        assert report["letters"] == {"logreg": "a", "svm": "b"}

    def test_missing_runs_csv(self, tmp_path):
        code = cli_main([
            "analyze", "--runs-csv", str(tmp_path / "none.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 2


class TestAllCommand:
    def test_run_plus_analysis(self, tabular_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["all", *_tab_args(tabular_csv, out)]) == 0
        for name in ("runs.csv", "timings.csv", "report.json",
                     "boxplot_accuracy.csv"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "omnibus rank test" in stdout

    @pytest.mark.parametrize("models,runs", [("rf", "20"), ("logreg,rf", "2"), ("", "4")])
    def test_refuses_what_analysis_would_refuse_before_training(
            self, tabular_csv, tmp_path, capsys, monkeypatch, models, runs):
        def spy(*args, **kwargs):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", spy)
        monkeypatch.setattr(harness, "load_dataset", spy)
        args = _tab_args(tabular_csv, tmp_path / "out", "--models", models, "--runs", runs)
        assert cli_main(["all", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("at least 2 models" if models else "need at least one model") in err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_cli_override(self, tabular_csv, tmp_path):
        config = {
            "dataset": {
                "kind": "tabular", "csv": str(tabular_csv),
                "label_column": "status", "drop_columns": ["name"],
            },
            "models": ["logreg", "gb"],
            "runs": 3,
            "base_seed": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli_main([
            "all", "--config", str(config_path), "--runs", "4",
            "--quiet", "--out", str(out),
        ]) == 0
        table = read_runs_csv(out / "runs.csv")
        assert len(table.run_indices()) == 4  # override beat the file value

    @pytest.mark.parametrize(
        "key,value,named",
        [("runs", "many", "'runs'"), ("base_seed", "x", "'base_seed'"),
         ("workers", 1.5, "'workers'"), ("alpha", "low", "'alpha'"),
         ("runs", True, "'runs'"), ("models", "svm", "'models'"),
         ("models", 5, "'models'"), ("model_params", [], "'model_params'"),
         ("model_params", {"svm": 5}, "'svm'"),
         ("model_params", {"svm": {"c": "big"}}, "'c'"),
         ("dataset.kind", 5, "'kind'"), ("dataset.csv", 5, "'csv'"),
         ("dataset.root", ["in"], "'root'"), ("dataset.manifest", 7, "'manifest'"),
         ("dataset.label_column", 3, "'label_column'"),
         ("dataset.drop_columns", "name", "'drop_columns'"),
         ("dataset.drop_columns", ["name", 3], "'drop_columns'"),
         ("output_dir", None, "'output_dir'"),
         ("dataset.drop_column", ["name"], "unknown dataset key 'drop_column'"),
         ("model_params", {"rf": {"n_estimators": 2.5}}, "'n_estimators'"),
         ("model_params", {"dnn": {"hidden": [64, 0]}}, "'hidden'"),
         ("models", ["svm", ["rf"]], "unknown model kind ['rf']"),
         ("runs", 2.5, "'runs'"), ("runs", 0, "'runs'"), ("workers", 0, "'workers'"),
         ("model_params", {"svm": {"max_passes": 100}},
          "model 'svm' has no parameter 'max_passes'"),
         ("model_params", {"dnn": {"dropout": 1.0}}, "'dnn' parameter 'dropout'"),
         ("model_params", {"svm": {"c": -1}}, "'svm' parameter 'c' must be a finite number > 0"),
         ("model_params", {"gb": {"learning_rate": -0.1}}, "'learning_rate'"),
         ("model_params", {"logreg": {"c": float("nan")}}, "'logreg' parameter 'c'"),
         ("model_params", {"dnn": {"l2": -1}}, "'l2' must be a finite number >= 0")],
    )
    def test_bad_config_value_is_usage_error(self, tabular_csv, tmp_path, capsys,
                                             monkeypatch, key, value, named):
        config = {
            "dataset": {"kind": "tabular", "csv": str(tabular_csv),
                        "label_column": "status", "drop_columns": ["name"]},
            "models": ["logreg", "svm"],
            "runs": 3,
            "output_dir": str(tmp_path / "out"),
        }
        section, _, name = key.rpartition(".")
        (config[section] if section else config)[name] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
        code = cli_main(["all", "--config", str(config_path), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_whole_float_runs_match_integer_runs(self, tabular_csv, tmp_path):
        texts = []
        for name, runs in (("int", 3), ("float", 3.0)):
            config = {
                "dataset": {"kind": "tabular", "csv": str(tabular_csv),
                            "label_column": "status", "drop_columns": ["name"]},
                "models": ["logreg", "gb"],
                "runs": runs,
                "output_dir": str(tmp_path / name),
            }
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            assert cli_main(["run", "--config", str(config_path), "--quiet"]) == 0
            texts.append((tmp_path / name / "runs.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_huge_column_keeps_its_signal(self, tmp_path):
        # column a carries the label at scale s; squaring its deviations for
        # the std overflowed at 1e155, which zeroed the column at exit 0
        rng = np.random.default_rng(30)
        labels = np.repeat([0, 1], [20, 40])
        noise = rng.normal(size=(60, 3))
        accuracies = []
        for scale in (1.0, 1e155):
            table, out = tmp_path / f"{scale:g}.csv", tmp_path / f"out{scale:g}"
            rows = np.column_stack([(labels + 0.3 * noise[:, 0]) * scale, noise[:, 1:], labels])
            table.write_text("a,b,c,y\n" + "".join(
                f"{a!r},{b!r},{c!r},{y:.0f}\n" for a, b, c, y in rows.tolist()))
            assert cli_main(["all", "--tabular-csv", str(table), "--label-column", "y",
                             "--runs", "5", "--seed", "1", "--models", "logreg,rf,gb",
                             "--workers", "1", "--quiet", "--out", str(out)]) == 0
            records = read_runs_csv(out / "runs.csv").records
            accuracies.append({model: np.mean([r.accuracy for r in records if r.model == model])
                               for model in ("logreg", "rf", "gb")})
        assert accuracies[0]["logreg"] > 0.9
        assert accuracies[1] == accuracies[0]

    def test_power_of_two_scales_keep_every_row(self, tmp_path):
        # scaling a table by 2^k is exact, so every model must see the same
        # standardized features; the absolute std floor of 1e-12 lost the
        # signal at 2^-70 (logreg 0.6667 at --runs 5 against 0.9333)
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], [20, 40])
        noise = rng.normal(size=(60, 3))
        plain = np.column_stack([labels + 0.3 * noise[:, 0], noise[:, 1:]])
        rows = {}
        for k in (-900, -70, 0, 70, 900):
            features = plain * 2.0 ** k
            assert np.all(np.abs(features) >= np.finfo(np.float64).tiny)
            table, out = tmp_path / f"k{k}.csv", tmp_path / f"out{k}"
            table.write_text("a,b,c,y\n" + "".join(
                f"{a!r},{b!r},{c!r},{y}\n" for (a, b, c), y in zip(features.tolist(), labels)))
            assert cli_main(["all", "--tabular-csv", str(table), "--label-column", "y",
                             "--runs", "5", "--seed", "1", "--workers", "1", "--quiet",
                             "--out", str(out)]) == 0
            rows[k] = [line for line in (out / "runs.csv").read_text().splitlines()
                       if not line.startswith("#")]
        assert len(rows[0]) == 1 + 5 * 5
        for k in rows:
            assert rows[k] == rows[0], k


class TestExtract:
    def test_features_csv_then_retrain_from_it(self, audio_corpus, tmp_path, capsys):
        root, manifest = audio_corpus
        features_csv = tmp_path / "features.csv"
        assert cli_main([
            "extract", "--audio-dir", str(root),
            "--manifest", str(manifest), "--out", str(features_csv),
        ]) == 0
        assert "wrote 17 rows" in capsys.readouterr().out

        lines = features_csv.read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1].startswith("path,label,mfcc_0,")
        assert len(lines) == 2 + 17

        # extracted features feed straight back in as a tabular dataset
        out = tmp_path / "out"
        assert cli_main([
            "run", "--tabular-csv", str(features_csv),
            "--label-column", "label", "--drop-columns", "path",
            "--runs", "3", "--seed", "1", "--models", "logreg,rf",
            "--quiet", "--out", str(out),
        ]) == 0
        table = read_runs_csv(out / "runs.csv")
        assert len(table.records) == 6
        assert all(r.accuracy >= 0.0 for r in table.records)

    def test_extract_missing_manifest(self, audio_corpus, tmp_path):
        root, _ = audio_corpus
        code = cli_main([
            "extract", "--audio-dir", str(root),
            "--manifest", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2

    def test_extract_refuses_boolean_group_label(self, audio_corpus, tmp_path, capsys):
        root, manifest = audio_corpus
        groups = canonical_loads(Path(manifest).read_text())["groups"]
        flagged = tmp_path / "manifest.json"
        flagged.write_text(json.dumps({"groups": {name: label == 1 or 0
                                                  for name, label in groups.items()}}))
        code = cli_main(["extract", "--audio-dir", str(root), "--manifest", str(flagged),
                         "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "label must be 0 or 1, got True" in capsys.readouterr().err


_SRC = str(Path(voicebench.__file__).resolve().parents[1])


def _run_python(args, threads, timeout=300):
    """`python args` with src on the path and OPENBLAS_NUM_THREADS set to
    threads (None: unset); returns the finished process."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestImportCost:
    def test_cli_import_leaves_out_multiprocessing(self):
        # only a --workers > 1 run starts a pool and pays for the import
        code = "import sys, voicebench.cli\nprint('multiprocessing' in sys.modules)\n"
        assert _run_python(["-c", code], None).stdout.split() == ["False"]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_import_restores_the_callers_gc_state(self, enabled):
        for module in ("voicebench", "voicebench.cli"):
            code = ("import gc\n" + ("gc.enable()" if enabled else "gc.disable()")
                    + f"\nimport {module}\nprint(gc.isenabled())\n")
            assert _run_python(["-c", code], None).stdout.split() == [str(enabled)]

    def test_package_import_loads_no_submodule(self):
        # the root only pins BLAS; numpy loads with the first module that needs it
        code = ("import os, sys, voicebench\n"
                "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert _run_python(["-c", code], "4").stdout.split() == ["False", "1"]

    def test_submodule_attribute_is_the_module(self):
        code = ("import types, voicebench.mfcc\n"
                "print(isinstance(voicebench.mfcc, types.ModuleType))\n")
        assert _run_python(["-c", code], None).stdout.split() == ["True"]

    def test_cli_import_freezes_the_import_graph(self):
        code = "import gc, voicebench.cli\nprint(gc.get_freeze_count() > 0)\n"
        assert _run_python(["-c", code], None).stdout.split() == ["True"]

    def test_all_leaves_out_numpy_ma(self, tabular_csv, tmp_path):
        # plain np.unique and np.median import numpy.ma, 10-20 ms per process;
        # the command loads the table, fits all five kinds and analyzes
        args = _tab_args(tabular_csv, tmp_path / "out", "--models", "logreg,svm,rf,gb,dnn")
        code = (
            "import sys\n"
            "from voicebench.cli import cli_main\n"
            f"args = {args!r}\n"
            "assert cli_main(['all', *args]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
        assert _run_python(["-c", code], None).stdout.split()[-1] == "False"

    def test_all_runs_without_scipy(self, tabular_csv, tmp_path):
        # scipy is the test suite's reference only; a None entry in
        # sys.modules makes any import of it fail
        out = tmp_path / "out"
        args = _tab_args(tabular_csv, out, "--models", "logreg,svm,rf,gb,dnn")
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from voicebench.cli import cli_main\n"
            f"sys.exit(cli_main(['all', *{args!r}]))\n")
        _run_python(["-c", code], None)
        assert (out / "report.json").exists()


class TestBlasThreads:
    """Importing voicebench before numpy pins OpenBLAS to one thread, so
    the CLI's bytes cannot depend on the caller's thread setting."""

    def test_import_starts_no_blas_thread(self):
        if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs /proc/self/task and at least 2 CPUs")
        code = ("import os, voicebench\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n")
        assert _run_python(["-c", code], "4").stdout.split() == ["1", "1"]

    def test_outputs_independent_of_thread_variable(self, tabular_csv, audio_corpus, tmp_path):
        root, manifest = audio_corpus
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads_{threads}"
            _run_python(["-m", "voicebench", "all", "--tabular-csv", str(tabular_csv),
                         "--label-column", "status", "--drop-columns", "name",
                         "--runs", "4", "--seed", "11", "--workers", "2", "--quiet",
                         "--out", str(out)], threads)
            _run_python(["-m", "voicebench", "extract", "--audio-dir", str(root),
                         "--manifest", str(manifest), "--out", str(out / "features.csv")],
                        threads)
            outputs.append([(out / name).read_bytes()
                            for name in ("runs.csv", "report.json", "features.csv")])
        assert outputs[0][0].count(b"\n") == 3 + 4 * 5  # all five models ran
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    def test_helper_cuts_page_faults_and_cli_import_leaves_allocator_alone(self):
        if not _glibc():
            pytest.skip("the heap policy sets glibc mallopt thresholds; this C library "
                        "is not glibc")
        code = (
            "import contextlib, io, resource\n"
            "import numpy as np\n"
            "import voicebench.cli\n"
            "from voicebench import harness\n"
            "def churn():\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    for _ in range(100):\n"
            "        arrays = [np.ones(32768) for _ in range(8)]  # 256 KiB each, written\n"
            "        del arrays\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    voicebench.cli.cli_main(['--help'])\n"
            "cold = churn()\n"
            "harness._warm_heap()\n"
            "print(cold, churn())\n")
        cold, warm = map(int, _run_python(["-c", code], None).stdout.split())
        # 800 arrays of 64 pages: at glibc's defaults most pages fault each cycle
        assert cold > 800 * 16
        assert warm * 10 <= cold


class TestBenchTracer:
    """The traced benchmark wraps harness functions by name (bench/tracer.py):
    a rename there must fail here, not only in the benchmark."""

    def test_traced_all_reproduces_untraced_runs(self, tabular_csv, tmp_path):
        plain = tmp_path / "plain"
        assert cli_main(["all", *_tab_args(tabular_csv, plain)]) == 0
        traced = tmp_path / "traced"
        spans = tmp_path / "spans.json"
        tracer = Path(_SRC).parent / "bench" / "tracer.py"
        _run_python([str(tracer), "--spans", str(spans),
                     "--analysis-csv", str(plain / "runs.csv"),
                     "--analysis-out", str(tmp_path / "analysis"), "--",
                     "all", *_tab_args(tabular_csv, traced)], None)
        assert (traced / "runs.csv").read_bytes() == (plain / "runs.csv").read_bytes()
        recorded = json.loads(spans.read_text())
        assert recorded["returncode"] == 0
        names = {span["name"] for span in recorded["spans"]}
        assert {"models.fit", "data.stratified_split", "data.oversample"} <= names
