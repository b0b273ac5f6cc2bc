"""What the trainers share: training metadata, the prediction input check,
and the sigmoid/softplus/deviance helpers of logreg, boosting and the net.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch


@dataclass
class TrainMeta:
    kind: str
    train_ms: float = 0.0
    converged: bool = True
    epochs_run: int | None = None
    early_stopped: bool | None = None
    best_epoch: int | None = None


def check_predict_input(features: np.ndarray, expected_dim: int) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != expected_dim:
        raise DimensionMismatch(
            f"expected {expected_dim} feature columns, got shape {features.shape}"
        )
    return features


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so exp never overflows."""
    pos = t >= 0
    z = np.exp(np.where(pos, -t, t))
    return np.where(pos, 1.0, z) / (1.0 + z)


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) without overflow."""
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)


def binomial_deviance(labels: np.ndarray, logits: np.ndarray):
    """Mean negative log-likelihood (binary cross-entropy) of 0/1 labels
    under logit scores, over the last axis: a scalar for one series, one
    value per row for a stack of them."""
    return np.mean(softplus(logits) - labels * logits, axis=-1)
