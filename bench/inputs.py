"""Seeded input generators for the benchmark.

Every generator takes the benchmark seed and writes plain files; the
program under test only ever sees those files. The same seed always yields
byte-identical files.
"""
from __future__ import annotations

import json
import wave
from pathlib import Path

import numpy as np

from checks import RUNS_COLUMNS

# UCI-Parkinsons-shaped table: 195 recordings, 22 voice features, and a
# 48 healthy / 147 patient class split.
TABLE_ROWS = (48, 147)
TABLE_FEATURES = 22
TABLE_LABEL = "status"
TABLE_DROP = "name"

# Multi-rate corpus: (source rate, seconds) of each clip, the same for both
# classes. Every rate but 16 kHz goes through the resampler, and every clip
# is longer than the 1 s the feature extractor keeps, so the corpus exposes
# resampling work that is later thrown away. 8 kHz clips have an empty band
# above 4 kHz and form their own cluster in MFCC space; half of each class
# is at 8 kHz so that every training split holds that cluster for both
# classes and accuracy stays near 1 on every seed. The plan is fixed, not
# drawn from the seed, so every seed asks for the same amount of work.
CORPUS_PLAN = (
    (8000, 1.3), (16000, 1.5), (44100, 1.1), (8000, 1.1), (48000, 1.1),
    (8000, 1.3), (16000, 1.2), (8000, 1.1), (16000, 1.5), (8000, 1.3),
)
CORPUS_RATES = (8000, 16000, 44100, 48000)
CORPUS_GROUPS = {"controls": 0, "patients": 1}

ANALYSIS_MODELS = ("logreg", "svm", "rf", "gb", "dnn")
ANALYSIS_RUNS = 1000
ANALYSIS_TEST_ROWS = 39


def write_table(path: Path, seed: int) -> None:
    """Write the UCI-shaped CSV: a name column, 22 features and the label.

    Patients differ from controls by a fixed mean shift in a latent space
    that a fixed random matrix mixes into the 22 columns, so the classes
    overlap a little and every model reaches a high but imperfect accuracy.
    """
    rng = np.random.default_rng([seed, 1])
    n0, n1 = TABLE_ROWS
    structure = np.random.default_rng(20240617)  # fixed population shape
    mixing = structure.normal(0.0, 1.0, size=(TABLE_FEATURES, TABLE_FEATURES))
    shift = structure.uniform(0.5, 1.2, size=TABLE_FEATURES)
    scale = structure.uniform(0.2, 50.0, size=TABLE_FEATURES)
    offset = structure.uniform(-5.0, 200.0, size=TABLE_FEATURES)

    labels = np.repeat([0, 1], [n0, n1])
    labels = labels[rng.permutation(labels.size)]
    latent = rng.normal(0.0, 1.0, size=(labels.size, TABLE_FEATURES))
    latent += labels[:, None] * shift
    # einsum, not BLAS, so the bytes do not depend on the BLAS thread count
    mixed = np.einsum("ij,jk->ik", latent, mixing) / np.sqrt(TABLE_FEATURES)
    features = mixed * scale + offset

    header = [TABLE_DROP] + [f"f{i:02d}" for i in range(TABLE_FEATURES)] + [TABLE_LABEL]
    lines = [",".join(header)]
    for row, (label, values) in enumerate(zip(labels, features)):
        cells = [f"rec_{row:03d}"] + [repr(float(v)) for v in values] + [str(int(label))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def synth_voice(rng: np.random.Generator, label: int, rate: int, seconds: float) -> np.ndarray:
    """Vowel-like signal: three harmonics of a speaker-specific f0.

    Patients have a higher f0, a 5 Hz tremor and more breath noise.
    """
    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    f0 = rng.normal(125.0 if label == 0 else 235.0, 8.0)
    x = np.zeros(n)
    for harmonic, amp in ((1, 0.5), (2, 0.25), (3, 0.12)):
        x += amp * np.sin(2 * np.pi * f0 * harmonic * t + rng.uniform(0, 2 * np.pi))
    if label == 1:
        x *= 1.0 + rng.uniform(0.1, 0.4) * np.sin(2 * np.pi * 5.0 * t)
    x += (0.15 if label == 1 else 0.03) * rng.standard_normal(n)
    return 0.6 * x / np.max(np.abs(x))


def _write_pcm16(path: Path, samples: np.ndarray, rate: int) -> None:
    quantized = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(quantized.tobytes())


def write_corpus(root: Path, seed: int) -> dict[int, float]:
    """Write the WAV tree and its manifest under root.

    Returns the input audio seconds per source rate, as stored in the files.
    """
    rng = np.random.default_rng([seed, 2])
    seconds_by_rate = {rate: 0.0 for rate in CORPUS_RATES}
    for group, label in CORPUS_GROUPS.items():
        (root / group).mkdir(parents=True)
        for i, (rate, seconds) in enumerate(CORPUS_PLAN):
            samples = synth_voice(rng, label, rate, seconds)
            _write_pcm16(root / group / f"spk{i:02d}.wav", samples, rate)
            seconds_by_rate[rate] += samples.size / rate
    manifest = {"format_version": 1, "groups": CORPUS_GROUPS}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return seconds_by_rate


def write_analysis_runs(path: Path, seed: int) -> None:
    """Write a 5-model x 1000-run runs.csv in the CLI's format.

    Accuracies are binomial test-set scores with model-specific rates, so
    the statistics chain sees ties, unequal spreads and real differences.
    """
    rng = np.random.default_rng([seed, 3])
    rates = dict(zip(ANALYSIS_MODELS, (0.84, 0.86, 0.91, 0.92, 0.87)))
    lines = ["# format_version=1", "# config_fingerprint=0000000000000000",
             ",".join(RUNS_COLUMNS)]
    for run in range(ANALYSIS_RUNS):
        split_hash = f"{int(rng.integers(0, 2**63)):016x}"
        for model in ANALYSIS_MODELS:
            accuracy = int(rng.binomial(ANALYSIS_TEST_ROWS, rates[model])) / ANALYSIS_TEST_ROWS
            precision, recall = (float(v) for v in rng.uniform(accuracy - 0.05, 1.0, size=2))
            f1 = 2 * precision * recall / (precision + recall)
            stopped = str(bool(rng.integers(0, 2))).lower() if model == "dnn" else ""
            lines.append(f"{run},{model},{seed ^ run},{accuracy!r},{precision!r},"
                         f"{recall!r},{f1!r},{stopped},{split_hash}")
    path.write_text("\n".join(lines) + "\n")
