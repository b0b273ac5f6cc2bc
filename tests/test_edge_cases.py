"""Seeded sweep of numeric edge cases through the whole CLI, in-process.

Each case draws a 60-row table (20 rows of class 0, 40 of class 1) from its
own fixed seed, writes it as a CSV and runs `voicebench all` on it with all
five models. Tier-1 turns RuntimeWarning into an error, so an overflow or a
division by zero anywhere on the way fails the case. A case must either exit
0 with finite accuracies in [0, 1], or exit 1 or 2 with one `error:` line
that names its cause.
"""
import math

import numpy as np
import pytest

from voicebench.cli import cli_main
from voicebench.harness import read_runs_csv

N0, N1 = 20, 40
LABELS = np.repeat([0, 1], [N0, N1])
SCALES = (1e-300, 3.7e-151, 1e-20, 2.5e-7, 6.1e9, 1e155, 1e300)


def _signal(rng, scale=1.0):
    """A column that carries the label, and two unit-noise columns."""
    noise = rng.normal(size=(LABELS.size, 3))
    return np.column_stack([(LABELS + 0.3 * noise[:, 0]) * scale, noise[:, 1:]])


def _table_at(scale):
    return lambda rng: _signal(rng) * scale


def _column_at(scale):
    return lambda rng: _signal(rng, scale)


def _large_offset(rng):
    # a spread of some hundred ulps on top of a large magnitude
    features = _signal(rng)
    features[:, 0] = 1e6 + 1e-7 * features[:, 0]
    return features


def _constant_beside_signal(rng):
    return np.column_stack([_signal(rng)[:, 0], np.full(LABELS.size, 0.1)])


def _every_row_twice(rng):
    half = _signal(rng)[::2]
    return np.repeat(half, 2, axis=0)


def _wide_range(rng):
    # one column holding both ends of the float range
    features = _signal(rng)
    features[:, 1] = np.where(features[:, 1] > 0, 1e300, 1e-300) * np.abs(features[:, 1])
    return features


# name -> (table from a seeded rng, None to expect exit 0 or the cause of a refusal,
#          whether column 0 carries the label and must keep it)
CASES = {
    **{f"table_at_{s:g}": (_table_at(s), None, True) for s in SCALES},
    **{f"column_at_{s:g}": (_column_at(s), None, True) for s in SCALES},
    "subnormal_table": (_table_at(5e-320), None, True),
    "near_largest_float": (_table_at(1.7e308 / 4), None, True),
    "wide_range_column": (_wide_range, None, True),
    "large_offset_small_spread": (_large_offset, None, True),
    "constant_beside_signal": (_constant_beside_signal, None, True),
    "constant_subnormal_beside_signal":
        (lambda rng: np.column_stack([_signal(rng)[:, 0], np.full(LABELS.size, 5e-320)]),
         None, True),
    "single_column": (lambda rng: _signal(rng)[:, :1], None, True),
    "every_row_twice": (_every_row_twice, None, True),
    "every_column_constant":
        (lambda rng: np.tile([3.0, -1.5, 0.0], (LABELS.size, 1)),
         "every training row is identical", False),
}


def _labels_for(name):
    return np.repeat(LABELS[::2], 2) if name == "every_row_twice" else LABELS


def _write_table(path, features, labels):
    header = ",".join(f"x{i}" for i in range(features.shape[1])) + ",y\n"
    path.write_text(header + "".join(
        ",".join(map(repr, row)) + f",{label}\n"
        for row, label in zip(features.tolist(), labels.tolist())))


@pytest.mark.parametrize("seed,name", list(enumerate(CASES, 32000)),
                         ids=list(CASES))
def test_edge_case_ends_in_results_or_a_message(tmp_path, capsys, seed, name):
    build, cause, signal = CASES[name]
    features = build(np.random.default_rng(seed))
    assert np.all(np.isfinite(features))
    table = tmp_path / "table.csv"
    _write_table(table, features, _labels_for(name))
    code = cli_main(["all", "--tabular-csv", str(table), "--label-column", "y",
                     "--runs", "3", "--seed", "1", "--workers", "1", "--quiet",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if cause is not None:
        assert code in (1, 2)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert cause in err
        return
    assert (code, err) == (0, "")
    records = read_runs_csv(tmp_path / "out" / "runs.csv").records
    assert len(records) == 15
    for r in records:
        for value in (r.accuracy, r.precision, r.recall, r.f1):
            assert math.isfinite(value) and 0.0 <= value <= 1.0
    if signal:  # at scale 1 logreg scores 0.92-0.98 on these tables
        logreg = [r.accuracy for r in records if r.model == "logreg"]
        assert np.mean(logreg) >= 0.8, logreg
