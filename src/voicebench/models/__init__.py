"""Classifier registry: five binary models behind one fit/predict contract.

Kinds: logreg, svm, rf, gb, dnn. All predictors map a probability or score
tie exactly at the decision boundary to the positive class. A kind's
hyperparameters, with their defaults, are the keyword arguments of its
trainer. fit_block trains a block of runs of one kind: gb and dnn in one
stacked call, the other kinds run after run. fit is a block of one.
"""
from __future__ import annotations

import inspect
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData, DimensionMismatch, UsageError
from .boosting import train_gradient_boosting_block
from .dnn import train_dnn_block
from .forest import train_random_forest
from .logreg import train_logreg
from .svm import train_svm_smo

# In canonical order, which seed-stream derivation uses; never reorder.
_TRAINERS = {
    "logreg": train_logreg,
    "svm": train_svm_smo,
    "rf": train_random_forest,
    "gb": train_gradient_boosting_block,
    "dnn": train_dnn_block,
}
CANONICAL_KINDS = tuple(_TRAINERS)
# Kinds whose trainer grows the models of a whole block of runs in one call.
BLOCK_KINDS = ("gb", "dnn")


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    params: dict = field(default_factory=dict)


def default_params(kind: str) -> dict:
    """The trainer's keyword defaults, except the seed that fit passes."""
    # a tuple test, so an unhashable kind is refused like any other
    if kind not in CANONICAL_KINDS:
        raise UsageError(
            f"unknown model kind {kind!r}; valid kinds: {', '.join(CANONICAL_KINDS)}"
        )
    return {name: arg.default
            for name, arg in inspect.signature(_TRAINERS[kind]).parameters.items()
            if arg.default is not arg.empty and name != "seed"}


def make_spec(kind: str, overrides: dict | None = None) -> ClassifierSpec:
    params = default_params(kind)
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise UsageError(f"model {kind!r} parameters must be an object, got {overrides!r}")
    for key, value in overrides.items():
        if key not in params:
            raise UsageError(f"model {kind!r} has no parameter {key!r}")
        name = f"model {kind!r} parameter {key!r}"
        if isinstance(params[key], tuple):
            if not isinstance(value, (list, tuple)):
                raise UsageError(f"{name} must be a list")
            value = tuple(whole_count(name, entry) for entry in value)
        elif isinstance(params[key], int):
            value = whole_count(name, value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise UsageError(f"{name} must be a number, got {value!r}")
        params[key] = value
    return ClassifierSpec(kind, params)


def whole_count(name: str, value) -> int:
    """A count or a size: a whole number, at least 1. name says whose."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < 1):
        raise UsageError(f"{name} must be a whole number >= 1, got {value!r}")
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
    if labels.min() == labels.max():
        raise DegenerateData("training labels contain a single class")
    if np.all(features == features[0]):
        raise DegenerateData("every training row is identical; nothing to separate")
    return features, labels


def _trainer_args(kind: str, train, validation) -> tuple:
    """The checked data arguments of kind's trainer: the training pair, and
    for dnn the validation pair too."""
    features, labels = _validate_train_input(*train)
    if kind != "dnn":
        return features, labels
    if validation is None:
        raise UsageError("dnn training requires a validation pair")
    val_features = np.asarray(validation[0], dtype=np.float64)
    val_labels = np.asarray(validation[1], dtype=np.int64)
    if val_features.ndim != 2 or val_features.shape[1] != features.shape[1]:
        raise DimensionMismatch("validation feature width differs from train")
    return features, labels, val_features, val_labels


def fit(spec: ClassifierSpec, train, validation=None, seed: int = 0):
    """Train one classifier, as a block of one (fit_block). train/validation
    are (features, labels) pairs.

    Deterministic given (spec, data, seed); only rf and dnn draw from the
    seed. Only the DNN consumes the validation pair (early stopping); it is
    accepted for every kind so callers stay uniform.
    """
    return fit_block(spec, [train], [validation], [seed])[0]


def fit_block(spec: ClassifierSpec, trains, validations=None, seeds=None) -> list:
    """Train one classifier per run, in run order; run t's model depends only
    on (spec, trains[t], validations[t], seeds[t]), and seeds default to 0.

    Every run passes the same checks. logreg, svm and rf train run after
    run, each model timing its own call. Kinds in BLOCK_KINDS train every
    run in one stacked call, so all runs' sets must share their shapes, and
    each model's train_ms is an equal share of the call's time.
    """
    runs = len(trains)
    validations = [None] * runs if validations is None else list(validations)
    seeds = [0] * runs if seeds is None else list(seeds)
    if not len(validations) == len(seeds) == runs:
        raise UsageError(f"a block of {runs} runs needs {runs} validation pairs and seeds")
    stacks = [_trainer_args(spec.kind, train, validation)
              for train, validation in zip(trains, validations)]
    params = make_spec(spec.kind, spec.params if spec.params else None).params
    trainer = _TRAINERS[spec.kind]
    if spec.kind not in BLOCK_KINDS:
        models = []
        for args, seed in zip(stacks, seeds):
            if spec.kind == "rf":
                params["seed"] = seed
            started = time.perf_counter()
            model = trainer(*args, **params)
            model.meta.train_ms = (time.perf_counter() - started) * 1000.0
            models.append(model)
        return models
    shapes = {tuple(part.shape for part in args) for args in stacks}
    if len(shapes) > 1:
        raise DimensionMismatch(f"a block's training sets differ in shape: {sorted(shapes)}")
    if spec.kind == "dnn":
        params["seeds"] = seeds
    started = time.perf_counter()
    models = trainer(*(np.stack(part) for part in zip(*stacks)), **params)
    share = (time.perf_counter() - started) * 1000.0 / len(models)
    for model in models:
        model.meta.train_ms = share
    return models
