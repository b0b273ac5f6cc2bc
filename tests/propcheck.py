"""Seeded invariant checks shared by the unit tests and the acceptance
suite. Each function draws its own scenario from the seed and raises
AssertionError on violation.
"""
import numpy as np

from voicebench.audio import AudioClip
from voicebench.data import (
    LabeledDataset,
    apply_scaler,
    fit_scaler,
    oversample,
    stratified_split,
)
from voicebench.mfcc import HOP, LOG_FLOOR, N_FFT, N_MELS, N_MFCC, SAMPLE_RATE, mfcc
from voicebench.models import ClassifierSpec, fit
from voicebench.models.base import binomial_deviance
from voicebench.models.forest import leaf_values
from voicebench.models.svm import rbf_kernel, train_svm_smo


def _random_dataset(rng: np.random.Generator, min_per_class: int = 3):
    n = int(rng.integers(2 * min_per_class + 2, 160))
    d = int(rng.integers(2, 9))
    n1 = int(rng.integers(min_per_class, n - min_per_class + 1))
    features = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
    features += rng.uniform(-5.0, 5.0, size=d)
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[:n1]] = 1
    return LabeledDataset(features, labels, source_name=f"prop-{n}-{d}")


def check_split_invariants(seed: int):
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng)
    split = stratified_split(ds, seed)

    parts = [split.train_idx, split.validation_idx, split.test_idx]
    merged = np.concatenate(parts)
    assert merged.size == ds.labels.size, "partitions must cover every row"
    assert np.unique(merged).size == merged.size, "partitions must be disjoint"

    for cls in (0, 1):
        n_cls = int(np.sum(ds.labels == cls))
        n_test = max(1, int(n_cls * 0.2))
        n_val = max(1, int((n_cls - n_test) * 0.25))
        n_train = n_cls - n_test - n_val
        assert int(np.sum(ds.labels[split.test_idx] == cls)) == n_test
        assert int(np.sum(ds.labels[split.validation_idx] == cls)) == n_val
        assert int(np.sum(ds.labels[split.train_idx] == cls)) == n_train
        assert n_train >= 1 and n_val >= 1 and n_test >= 1

    # train-fitted scaler: train columns are centered with unit spread
    assert np.max(np.abs(split.train_features.mean(axis=0))) < 1e-9
    stds = split.train_features.std(axis=0)
    assert np.all((np.abs(stds - 1.0) < 1e-9) | (stds < 1e-9))

    again = stratified_split(ds, seed)
    assert np.array_equal(split.train_idx, again.train_idx)
    assert np.array_equal(split.validation_idx, again.validation_idx)
    assert np.array_equal(split.test_idx, again.test_idx)


def check_scaler_no_leak(seed: int):
    """Perturbing rows outside train must not move the scaler or train data."""
    rng = np.random.default_rng(seed)
    ds = _random_dataset(rng)
    split = stratified_split(ds, seed)

    mutated = ds.features.copy()
    outside = np.concatenate([split.validation_idx, split.test_idx])
    mutated[outside] += rng.normal(scale=100.0, size=(outside.size, ds.features.shape[1]))
    ds2 = LabeledDataset(mutated, ds.labels, source_name=ds.source_name)
    split2 = stratified_split(ds2, seed)

    assert np.array_equal(split.train_idx, split2.train_idx)
    assert np.array_equal(split.train_features, split2.train_features)
    # both splits scaled every partition with the scaler of the unperturbed train rows
    scaler = fit_scaler(ds.features[split.train_idx])
    for data, part in ((ds, split), (ds2, split2)):
        for rows, scaled in ((part.validation_idx, part.validation_features),
                             (part.test_idx, part.test_features)):
            assert np.array_equal(scaled, apply_scaler(scaler, data.features[rows]))


def check_oversample_balance(seed: int):
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(3, 60))
    n1 = int(rng.integers(3, 60))
    d = int(rng.integers(2, 6))
    features = rng.normal(size=(n0 + n1, d))
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    perm = rng.permutation(n0 + n1)
    features, labels = features[perm], labels[perm]

    out_f, out_y = oversample(features, labels, seed)
    assert int(np.sum(out_y == 0)) == int(np.sum(out_y == 1)) == max(n0, n1)
    n = labels.size
    assert np.array_equal(out_f[:n], features) and np.array_equal(out_y[:n], labels)
    if n0 != n1:
        minority = 0 if n0 < n1 else 1
        assert np.all(out_y[n:] == minority)
        pool = features[labels == minority]
        for row in out_f[n:]:
            assert np.any(np.all(pool == row, axis=1)), "duplicate not from minority"
    else:
        assert out_f.shape[0] == n


def check_svm_feasibility(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 60))
    d = int(rng.integers(2, 8))
    n1 = int(rng.integers(4, n - 4))
    x = np.vstack([
        rng.normal(0.0, 1.0, size=(n - n1, d)),
        rng.normal(rng.uniform(0.3, 2.5), 1.0, size=(n1, d)),
    ])
    y = np.concatenate([np.zeros(n - n1, dtype=int), np.ones(n1, dtype=int)])
    dup = rng.integers(0, n, size=5)  # duplicates exercise the flat-direction path
    x = np.vstack([x, x[dup]])
    y = np.concatenate([y, y[dup]])

    model = train_svm_smo(x, y)
    a, z = model.alphas, np.where(y == 1, 1.0, -1.0)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    assert abs(float(np.sum(a * z))) <= 1e-6
    decision = rbf_kernel(x, x, model.gamma) @ (a * z) + model.bias
    r = z * (decision - z)
    violations = ((r < -1e-3 - 1e-9) & (a < 1.0 - 1e-12)) | \
                 ((r > 1e-3 + 1e-9) & (a > 1e-12))
    assert not np.any(violations), f"{int(violations.sum())} KKT violations remain"


def deviance_path(model, x, y) -> list:
    """Training deviance before the first stage and after each stage."""
    scores = np.full(y.size, model.base_score)
    path = [binomial_deviance(y, scores)]
    for values in leaf_values(model.nodes, x):
        scores = scores + model.learning_rate * values
        path.append(binomial_deviance(y, scores))
    return path


def check_boosting_descent(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 80))
    d = int(rng.integers(2, 6))
    x = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (x @ w + 0.3 * rng.normal(size=n) > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    model = fit(ClassifierSpec("gb", {"n_estimators": 25}), (x, y))
    path = np.asarray(deviance_path(model, x, y))
    assert np.all(np.diff(path) <= 1e-12), "training deviance increased"


def check_silence_mfcc(seed: int):
    """Silence has a canonical MFCC form under the default configuration."""
    rng = np.random.default_rng(seed)
    seconds = float(rng.uniform(0.5, 1.5))
    n = int(SAMPLE_RATE * seconds)
    clip = AudioClip(np.zeros(n), SAMPLE_RATE)
    coeffs = mfcc(clip)
    assert coeffs.shape == (1 + (n - N_FFT) // HOP, N_MFCC)
    assert np.all(coeffs[:, 1:] == 0.0), "silence must zero all AC coefficients"
    expected_c0 = np.sqrt(N_MELS) * np.log(LOG_FLOOR)
    assert np.max(np.abs(coeffs[:, 0] - expected_c0)) < 1e-9


ALL_FAMILIES = (
    ("split-invariants", check_split_invariants),
    ("scaler-no-leak", check_scaler_no_leak),
    ("oversample-balance", check_oversample_balance),
    ("svm-dual-feasibility", check_svm_feasibility),
    ("boosting-deviance-descent", check_boosting_descent),
    ("silence-mfcc-canonical", check_silence_mfcc),
)
