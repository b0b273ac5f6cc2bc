"""Dataset assembly and the split/scale/oversample pipeline.

Two loaders produce the same LabeledDataset shape: one walks a directory
tree of WAV recordings with a group -> label map, the other reads a numeric
CSV with a binary label column. Downstream of that, everything is arrays.
read_csv_rows is the one CSV reader, shared with the reader of runs.csv.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import audio, mfcc
from .errors import (
    ClassTooSmall,
    DimensionMismatch,
    EmptyDataset,
    IngestError,
    InvalidLabel,
    MissingColumn,
    NonNumericValue,
    SingleClass,
    UsageError,
    VoicebenchError,
)

TEST_FRACTION = 0.2          # stage one: hold out test
VALIDATION_FRACTION = 0.25   # stage two: validation share of the remainder
STD_FLOOR = 2.0 ** -46      # 64 ulps of a column's magnitude; constant columns scale to 0


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with binary labels (1 = positive class)."""

    features: np.ndarray
    labels: np.ndarray
    source_name: str = "dataset"
    row_ids: tuple | None = None  # e.g. relative file paths for audio data

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DimensionMismatch("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise DimensionMismatch("labels must align with feature rows")
        if features.shape[0] == 0:
            raise EmptyDataset(f"{self.source_name}: no rows")
        if not np.all(np.isin(labels, (0, 1))):
            raise InvalidLabel(f"{self.source_name}: labels must be 0 or 1")
        if labels.min() == labels.max():
            raise SingleClass(f"{self.source_name}: only one class present")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)


def clip_to_features(clip: audio.AudioClip) -> np.ndarray:
    """Normalize rate and duration, then summarize as one MFCC mean vector."""
    # samples past the kept duration would only be cut off
    clip = audio.resample(clip, mfcc.SAMPLE_RATE, round(mfcc.DURATION_S * mfcc.SAMPLE_RATE))
    clip = audio.fix_duration(clip, mfcc.DURATION_S)
    return mfcc.temporal_mean(mfcc.mfcc(clip))


def load_audio_dataset(root, group_labels: dict[str, int]) -> LabeledDataset:
    """Extract features for every WAV under the mapped group directories.

    group_labels maps subdirectory names (relative to root) to a 0/1 label.
    Any file that fails to decode aborts the load with an IngestError that
    lists every failure, so a partially-read corpus can never slip through.
    """
    root = Path(root)
    rows, labels, ids, failures = [], [], [], []

    for group in sorted(group_labels):
        label = group_labels[group]
        if isinstance(label, bool):  # True == 1, but a flag is no label
            raise UsageError(f"group {group!r}: label must be 0 or 1, got {label!r}")
        if label not in (0, 1):
            raise InvalidLabel(f"group {group!r}: label must be 0 or 1, got {label!r}")
        group_dir = root / group
        if not group_dir.is_dir():
            raise EmptyDataset(f"group directory not found: {group_dir}")
        wavs = sorted(
            p for p in group_dir.rglob("*") if p.is_file() and p.suffix.lower() == ".wav"
        )
        for path in wavs:
            rel = path.relative_to(root).as_posix()
            try:
                rows.append(clip_to_features(audio.read_wav(path)))
            except VoicebenchError as exc:
                failures.append((rel, str(exc)))
                continue
            labels.append(label)
            ids.append(rel)

    if failures:
        raise IngestError(failures)
    if not rows:
        raise EmptyDataset(f"no WAV files under {root}")
    return LabeledDataset(
        np.vstack(rows),
        np.asarray(labels),
        source_name=str(root),
        row_ids=tuple(ids),
    )


def _parse_binary_label(raw: str, where: str) -> int:
    try:
        value = float(raw)
    except ValueError:
        raise InvalidLabel(f"{where}: label {raw!r} is not numeric") from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise InvalidLabel(f"{where}: label must be 0 or 1, got {raw!r}")


def read_csv_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """'#' comment lines and other non-blank rows, each with the file line it
    ends on (a quoted cell may span lines); a UTF-8 BOM goes, CRLF reads as LF."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    # a comment reads as a blank line, so the reader counts the file's lines
    reader = csv.reader(["\n" if line.startswith("#") else line for line in lines])
    return ([line.rstrip("\r\n") for line in lines if line.startswith("#")],
            [(reader.line_num, row) for row in reader if row])


def load_tabular_dataset(
    csv_path,
    label_column: str,
    drop_columns: tuple[str, ...] = (),
) -> LabeledDataset:
    """Read a numeric CSV; all columns except the label and drops become features.

    Comment and blank lines are skipped (see read_csv_rows), so versioned
    files read back cleanly, and "row N" in a message is line N of the file.
    """
    csv_path = Path(csv_path)
    _, rows = read_csv_rows(csv_path)
    if not rows:
        raise EmptyDataset(f"{csv_path}: empty file")
    (_, header), rows = rows[0], rows[1:]

    if len(set(header)) < len(header):  # the label or a drop would match twice
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise MissingColumn(f"{csv_path}: column {twice!r} is named twice in the header")
    if label_column not in header:
        raise MissingColumn(f"{csv_path}: no column named {label_column!r}")
    for name in drop_columns:
        if name not in header:
            raise MissingColumn(f"{csv_path}: no column named {name!r}")
    skip = set(drop_columns) | {label_column}
    label_idx = header.index(label_column)
    feature_idx = [i for i, name in enumerate(header) if name not in skip]
    if not feature_idx:
        raise MissingColumn(f"{csv_path}: no feature columns left after drops")

    features = np.empty((len(rows), len(feature_idx)), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    for r, (lineno, row) in enumerate(rows):
        where = f"{csv_path} row {lineno}"
        if len(row) != len(header):
            raise NonNumericValue(f"{where}: expected {len(header)} fields")
        labels[r] = _parse_binary_label(row[label_idx], where)
        for c, i in enumerate(feature_idx):
            try:
                value = float(row[i])
            except ValueError:
                value = math.nan
            # float() also parses nan/inf, which would tie every model at 0.5
            if not math.isfinite(value):
                raise NonNumericValue(f"{where}, column {header[i]!r}: {row[i]!r}")
            features[r, c] = value

    if len(rows) == 0:
        raise EmptyDataset(f"{csv_path}: no data rows")
    return LabeledDataset(features, labels, source_name=str(csv_path))


@dataclass(frozen=True)
class ScalerState:
    """Per-feature affine normalization fitted on training rows only."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=np.float64))


def fit_scaler(features: np.ndarray) -> ScalerState:
    features = np.asarray(features, dtype=np.float64)
    # std squares deviations, which overflow past ~1e154; each column is
    # taken over a power of two near its largest magnitude, which is exact
    scale = np.ldexp(0.5, np.frexp(np.abs(features).max(axis=0))[1])
    features = features / scale
    return ScalerState(features.mean(axis=0) * scale, features.std(axis=0) * scale)


def apply_scaler(state: ScalerState, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != state.means.shape[0]:
        raise DimensionMismatch(
            f"expected {state.means.shape[0]} feature columns, "
            f"got shape {features.shape}"
        )
    # divide by a power of two near the column's magnitude (exact) before the floor
    scale = np.ldexp(0.5, np.frexp(np.maximum(np.abs(state.means), state.stds))[1])
    return (features / scale - state.means / scale) / np.maximum(state.stds / scale, STD_FLOOR)


@dataclass(frozen=True)
class SplitTriple:
    """Train/validation/test partitions, scaled by a scaler fitted on train."""

    train_features: np.ndarray
    train_labels: np.ndarray
    validation_features: np.ndarray
    validation_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    train_idx: np.ndarray = field(repr=False, default=None)
    validation_idx: np.ndarray = field(repr=False, default=None)
    test_idx: np.ndarray = field(repr=False, default=None)


def _partition_sizes(n_class: int) -> tuple[int, int, int]:
    """Per-class (train, validation, test) sizes for the two-stage split.

    Fractions are floored, but every partition keeps at least one row per
    class so tiny classes still appear everywhere; leftovers go to train.
    """
    n_test = max(1, int(n_class * TEST_FRACTION))
    rest = n_class - n_test
    n_val = max(1, int(rest * VALIDATION_FRACTION))
    n_train = rest - n_val
    return n_train, n_val, n_test


def stratified_split(dataset: LabeledDataset, seed: int) -> SplitTriple:
    """Two-stage stratified split (test first, then validation from the rest).

    Each class is shuffled independently with the given seed; partition
    index arrays are sorted ascending so downstream row order never depends
    on the shuffle, only membership does. Scaling is fitted on train rows
    and applied to all three partitions.
    """
    rng = np.random.default_rng(seed)
    train_parts, val_parts, test_parts = [], [], []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        if cls_idx.size < 3:
            raise ClassTooSmall(
                f"class {cls} has {cls_idx.size} rows; need at least 3 "
                "to populate train/validation/test"
            )
        n_train, n_val, n_test = _partition_sizes(cls_idx.size)
        shuffled = cls_idx[rng.permutation(cls_idx.size)]
        test_parts.append(shuffled[:n_test])
        val_parts.append(shuffled[n_test:n_test + n_val])
        train_parts.append(shuffled[n_test + n_val:])
        assert n_train == train_parts[-1].size

    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))
    test_idx = np.sort(np.concatenate(test_parts))

    # every row lies in one partition, and scaling is per element
    scaled = apply_scaler(fit_scaler(dataset.features[train_idx]), dataset.features)
    return SplitTriple(
        train_features=scaled[train_idx],
        train_labels=dataset.labels[train_idx],
        validation_features=scaled[val_idx],
        validation_labels=dataset.labels[val_idx],
        test_features=scaled[test_idx],
        test_labels=dataset.labels[test_idx],
        train_idx=train_idx,
        validation_idx=val_idx,
        test_idx=test_idx,
    )


def oversample(features: np.ndarray, labels: np.ndarray, seed: int):
    """Balance classes by duplicating random minority rows (with replacement).

    Already-balanced input is returned unchanged. Duplicates are appended
    after the original rows, so the originals keep their positions.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n0 = int(np.sum(labels == 0))
    n1 = int(np.sum(labels == 1))
    if n0 == 0 or n1 == 0:
        raise SingleClass("oversample needs both classes present")
    if n0 == n1:
        return features, labels

    minority = 0 if n0 < n1 else 1
    deficit = abs(n0 - n1)
    minority_idx = np.flatnonzero(labels == minority)
    rng = np.random.default_rng(seed)
    picks = minority_idx[rng.integers(0, minority_idx.size, size=deficit)]
    return (
        np.concatenate([features, features[picks]], axis=0),
        np.concatenate([labels, labels[picks]]),
    )
