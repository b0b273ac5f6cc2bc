"""Print the sha256 of every output file voicebench writes on the
benchmark's inputs, so two source trees can be compared byte for byte.
Run from the repo root:

    python3 tools/output_digests.py SRC_DIR > digests.txt

SRC_DIR is the directory that holds the voicebench package (a checkout's
src). The script writes the benchmark inputs of seeds 1 and 7 with
bench/inputs.py into a temporary directory. In it, each in a fresh process
with PYTHONPATH=SRC_DIR, it runs `voicebench all --dump-splits` on the table
and on the WAV corpus at --runs 5 and 40 and --workers 1, 2 and 3, and
`voicebench extract` on each corpus. It also runs `all` at --runs 5 and
--workers 1 on three copies of each table that sit on the scaler's edges:
every feature times 2^-70 (`table-times-2^-70`) or 2^70
(`table-times-2^70`), both exact, so their `[model]` lines must equal the
plain table's, and the first feature held constant (`table-constant-f00`).
It prints one `sha256  name` line per
file, sorted by name, for runs.csv, report.json, boxplot_accuracy.csv,
splits.csv and the features CSV; timings.csv holds wall times and is left
out. For each runs.csv it also prints one `sha256  name [model]` line per
model: the digest of the column header and that model's rows, so a change
declared to touch one model's rows shows as a diff in that model's lines
only. For each report.json it prints one `sha256  name [analysis]` line:
the digest of the file without its config_fingerprint line, so a change to
the fingerprint alone shows only in the whole-file runs.csv and report.json
lines. Two trees write the same bytes when their printed lines are equal.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave bench/ as checked out
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402

SEEDS = (1, 7)
RUNS = (5, 40)
WORKERS = (1, 2, 3)
OUTPUTS = ("runs.csv", "report.json", "boxplot_accuracy.csv", "splits.csv")
EDGES = {  # copy name -> how the cell of feature i is rewritten
    "table-times-2^-70": lambda i, cell: repr(float(cell) * 2.0 ** -70),
    "table-times-2^70": lambda i, cell: repr(float(cell) * 2.0 ** 70),
    "table-constant-f00": lambda i, cell: "1.5" if i == 0 else cell,
}


def _voicebench(args: list, src: Path, cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "voicebench", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"voicebench {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def digests(src: Path) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in SEEDS:
            # inputs sit at one relative path for every tree: older trees
            # fingerprint the dataset path as given, not its rows
            table, corpus = Path(f"seed{seed}", "table.csv"), Path(f"seed{seed}", "corpus")
            (work / table.parent).mkdir()
            inputs.write_table(work / table, seed)
            inputs.write_corpus(work / corpus, seed)
            features = Path(f"seed{seed}", "features.csv")
            _voicebench(["extract", "--audio-dir", str(corpus),
                         "--manifest", str(corpus / "manifest.json"), "--out", str(features)],
                        src, work)
            written = [features]
            datasets = {
                "table": ["--tabular-csv", str(table), "--label-column", inputs.TABLE_LABEL,
                          "--drop-columns", inputs.TABLE_DROP],
                "corpus": ["--audio-dir", str(corpus),
                           "--manifest", str(corpus / "manifest.json")],
            }
            plans = [(name, runs, workers) for name in datasets
                     for runs in RUNS for workers in WORKERS]
            for name, edit in EDGES.items():
                _write_edge_copy(work / table, work / table.with_name(f"{name}.csv"), edit)
                datasets[name] = [str(table.with_name(f"{name}.csv")) if arg == str(table)
                                  else arg for arg in datasets["table"]]
                plans.append((name, 5, 1))
            for name, runs, workers in plans:
                out = Path(f"seed{seed}", f"{name}-runs{runs}-workers{workers}")
                _voicebench(["all", *datasets[name], "--runs", str(runs), "--seed", str(seed),
                             "--workers", str(workers), "--out", str(out),
                             "--dump-splits", "--quiet"], src, work)
                written += [out / output for output in OUTPUTS]
            for path in written:
                data = (work / path).read_bytes()
                lines.append(f"{hashlib.sha256(data).hexdigest()}  {path}")
                if path.name == "runs.csv":
                    lines += [f"{hashlib.sha256(part).hexdigest()}  {path} [{model}]"
                              for model, part in _by_model(data).items()]
                if path.name == "report.json":
                    analysis = b"".join(line for line in data.splitlines(keepends=True)
                                        if not line.lstrip().startswith(b'"config_fingerprint"'))
                    lines.append(f"{hashlib.sha256(analysis).hexdigest()}  {path} [analysis]")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def _write_edge_copy(table: Path, path: Path, edit) -> None:
    """The table with each feature cell (all but the first and last column)
    rewritten by edit(feature index, cell)."""
    header, *rows = table.read_text().splitlines()
    path.write_text("\n".join([header] + [
        ",".join([name, *(edit(i, cell) for i, cell in enumerate(cells)), label])
        for name, *cells, label in (row.split(",") for row in rows)]) + "\n")


def _by_model(runs_csv: bytes) -> dict:
    """The column header line and each model's row lines, per model."""
    header, *rows = [line for line in runs_csv.splitlines(keepends=True)
                     if not line.startswith(b"#")]
    at = header.decode().split(",").index("model")
    parts = {}
    for row in rows:
        model = row.decode().split(",")[at]
        parts[model] = parts.get(model, header) + row
    return parts


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("\n".join(digests(Path(argv[0]).resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
