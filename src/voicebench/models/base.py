"""Shared classifier contract: specs with default hyperparameters, a fit
dispatcher with common input validation, prediction plumbing, and the
sigmoid/softplus/deviance helpers that logreg, boosting and the net share.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, UsageError

# Fixed order used for seed-stream derivation; never reorder or renumber.
CANONICAL_KINDS = ("logreg", "svm", "rf", "gb", "dnn")

_DEFAULTS = {
    "logreg": {"c": 1.0, "max_iter": 1000, "tol": 1e-6},
    "svm": {"c": 1.0, "kkt_tol": 1e-3, "max_passes": 10000},
    "rf": {"n_estimators": 100},
    "gb": {"n_estimators": 100, "learning_rate": 0.1, "max_depth": 3},
    "dnn": {
        "hidden": (64, 32),
        "dropout": 0.3,
        "learning_rate": 0.003,
        "l2": 0.001,
        "epochs": 100,
        "batch_size": 32,
        "patience": 15,
    },
}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    params: dict = field(default_factory=dict)


def default_params(kind: str) -> dict:
    if kind not in _DEFAULTS:
        raise UsageError(
            f"unknown model kind {kind!r}; valid kinds: {', '.join(CANONICAL_KINDS)}"
        )
    return dict(_DEFAULTS[kind])


def make_spec(kind: str, overrides: dict | None = None) -> ClassifierSpec:
    params = default_params(kind)
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise UsageError(f"model {kind!r} parameters must be an object, got {overrides!r}")
    for key, value in overrides.items():
        if key not in params:
            raise UsageError(f"model {kind!r} has no parameter {key!r}")
        if isinstance(params[key], tuple):
            if not isinstance(value, (list, tuple)):
                raise UsageError(f"model {kind!r} parameter {key!r} must be a list")
            value = tuple(_count(kind, key, entry) for entry in value)
        elif isinstance(params[key], int):
            value = _count(kind, key, value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise UsageError(
                f"model {kind!r} parameter {key!r} must be a number, got {value!r}"
            )
        params[key] = value
    return ClassifierSpec(kind, params)


def _count(kind: str, key: str, value) -> int:
    """An integer hyperparameter (a count or a size): whole and at least 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < 1):
        raise UsageError(
            f"model {kind!r} parameter {key!r} must be a whole number >= 1, got {value!r}"
        )
    return int(value)


def _validate_train_input(features: np.ndarray, labels: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
        raise DimensionMismatch(
            f"features {features.shape} do not align with labels {labels.shape}"
        )
    if features.shape[0] == 0:
        raise DegenerateData("no training rows")
    if np.unique(labels).size < 2:
        raise DegenerateData("training labels contain a single class")
    if np.all(features == features[0]):
        raise DegenerateData("every training row is identical; nothing to separate")
    return features, labels


@dataclass
class TrainMeta:
    kind: str
    train_ms: float = 0.0
    converged: bool = True
    epochs_run: int | None = None
    early_stopped: bool | None = None
    best_epoch: int | None = None


def fit(spec: ClassifierSpec, train, validation=None, seed: int = 0):
    """Train one classifier. train/validation are (features, labels) pairs.

    Deterministic given (spec, data, seed); three of the five kinds ignore
    the seed entirely. Only the DNN consumes the validation pair (early
    stopping); it is accepted for every kind so callers stay uniform.
    """
    from . import boosting, dnn, forest, logreg, svm

    features, labels = _validate_train_input(*train)
    params = make_spec(spec.kind, spec.params if spec.params else None).params

    started = time.perf_counter()
    if spec.kind == "logreg":
        model = logreg.train_logreg(features, labels, **params)
    elif spec.kind == "svm":
        model = svm.train_svm_smo(features, labels, **params)
    elif spec.kind == "rf":
        model = forest.train_random_forest(features, labels, seed=seed, **params)
    elif spec.kind == "gb":
        model = boosting.train_gradient_boosting(features, labels, **params)
    elif spec.kind == "dnn":
        if validation is None:
            raise UsageError("dnn training requires a validation pair")
        val_features = np.asarray(validation[0], dtype=np.float64)
        val_labels = np.asarray(validation[1], dtype=np.int64)
        if val_features.ndim != 2 or val_features.shape[1] != features.shape[1]:
            raise DimensionMismatch("validation feature width differs from train")
        model = dnn.train_dnn(
            features, labels, val_features, val_labels, seed=seed, **params
        )
    else:  # make_spec above already rejected unknown kinds
        raise AssertionError(spec.kind)

    model.meta.train_ms = (time.perf_counter() - started) * 1000.0
    return model


def check_predict_input(features: np.ndarray, expected_dim: int) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != expected_dim:
        raise DimensionMismatch(
            f"expected {expected_dim} feature columns, got shape {features.shape}"
        )
    return features


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) without overflow."""
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)


def binomial_deviance(labels: np.ndarray, logits: np.ndarray) -> float:
    """Mean negative log-likelihood (binary cross-entropy) of 0/1 labels
    under logit scores."""
    return float(np.mean(softplus(logits) - labels * logits))
