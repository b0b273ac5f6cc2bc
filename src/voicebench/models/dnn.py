"""Fully-connected net (input -> 64 -> 32 -> 1) trained with Adam.

Forward pass: ReLU hidden layers with inverted dropout (training only),
sigmoid output, mean binary cross-entropy. Weight decay is decoupled from
the gradient moments (applied directly to weights, never biases) so the
penalty strength does not get rescaled by Adam's denominator. Early
stopping watches validation loss with a fixed patience and the returned
model always carries the best-epoch weights.

RNG draw order per training call: Glorot init layer by layer, then per
epoch one permutation plus one dropout mask per hidden layer per batch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import TrainMeta, binomial_deviance, check_predict_input, sigmoid

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)


def init_params(rng: np.random.Generator, dims: tuple[int, ...]) -> list:
    """Glorot-uniform weights, zero biases, for consecutive dim pairs."""
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        params.append((w, np.zeros(fan_out)))
    return params


def n_parameters(dims: tuple[int, ...]) -> int:
    return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


def forward_logits(params: list, x: np.ndarray, masks: list | None = None) -> np.ndarray:
    """Logits for a batch; masks (one per hidden layer) enable dropout."""
    h = x
    for layer, (w, b) in enumerate(params[:-1]):
        h = relu(h @ w + b)
        if masks is not None:
            h = h * masks[layer]
    w, b = params[-1]
    return (h @ w + b)[:, 0]


def loss_and_grads(params: list, x: np.ndarray, y: np.ndarray,
                   masks: list | None = None):
    """Mean BCE loss and gradients for every weight and bias.

    Pure function of its inputs (dropout enters only through explicit
    masks), which is what makes finite-difference checking possible.
    """
    activations = [x]
    h = x
    for layer, (w, b) in enumerate(params[:-1]):
        h = relu(h @ w + b)
        if masks is not None:
            h = h * masks[layer]
        activations.append(h)
    w_out, b_out = params[-1]
    logits = (h @ w_out + b_out)[:, 0]

    loss = binomial_deviance(y, logits)

    n = x.shape[0]
    delta = ((sigmoid(logits) - y) / n)[:, None]
    grads = [None] * len(params)
    grads[-1] = (activations[-1].T @ delta, delta.sum(axis=0))
    upstream = delta @ w_out.T
    for layer in range(len(params) - 2, -1, -1):
        if masks is not None:
            upstream = upstream * masks[layer]
        pre_relu_active = activations[layer + 1] > 0.0
        upstream = upstream * pre_relu_active
        w, _ = params[layer]
        grads[layer] = (activations[layer].T @ upstream, upstream.sum(axis=0))
        if layer > 0:
            upstream = upstream @ w.T
    return loss, grads


@dataclass
class DnnModel:
    params: list
    dims: tuple
    meta: TrainMeta = field(default=None)
    val_loss_history: list = field(default_factory=list)
    best_val_loss: float = float("inf")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.dims[0])
        if features.shape[0] == 0:
            return np.zeros(0)
        return sigmoid(forward_logits(self.params, features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        # probability exactly 0.5 resolves to the positive class
        return (self.predict_proba(features) >= 0.5).astype(np.int64)


def _validation_loss(params: list, x: np.ndarray, y: np.ndarray) -> float:
    return binomial_deviance(y, forward_logits(params, x))


def train_dnn(
    features: np.ndarray,
    labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    hidden: tuple[int, ...] = (64, 32),
    dropout: float = 0.3,
    learning_rate: float = 0.003,
    l2: float = 0.001,
    epochs: int = 100,
    batch_size: int = 32,
    patience: int = 15,
    seed: int = 0,
) -> DnnModel:
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    val_x = np.asarray(val_features, dtype=np.float64)
    val_y = np.asarray(val_labels, dtype=np.float64)

    rng = np.random.default_rng(seed)
    dims = (features.shape[1], *hidden, 1)
    params = init_params(rng, dims)
    keep = 1.0 - dropout

    adam_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    adam_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    step = 0

    best_loss = float("inf")
    best_params = [(w.copy(), b.copy()) for w, b in params]
    best_epoch = 0
    wait = 0
    history = []
    early_stopped = False
    epochs_run = 0

    for epoch in range(epochs):
        order = rng.permutation(features.shape[0])
        for start in range(0, order.size, batch_size):
            batch = order[start:start + batch_size]
            xb, yb = features[batch], y[batch]
            if dropout > 0.0:
                masks = [
                    (rng.random((xb.shape[0], width)) < keep) / keep
                    for width in hidden
                ]
            else:
                masks = None
            _, grads = loss_and_grads(params, xb, yb, masks)

            step += 1
            corr1 = 1.0 - _ADAM_BETA1 ** step
            corr2 = 1.0 - _ADAM_BETA2 ** step
            for layer, (w, b) in enumerate(params):
                gw, gb = grads[layer]
                mw, mb = adam_m[layer]
                vw, vb = adam_v[layer]
                mw *= _ADAM_BETA1
                mw += (1.0 - _ADAM_BETA1) * gw
                mb *= _ADAM_BETA1
                mb += (1.0 - _ADAM_BETA1) * gb
                vw *= _ADAM_BETA2
                vw += (1.0 - _ADAM_BETA2) * gw * gw
                vb *= _ADAM_BETA2
                vb += (1.0 - _ADAM_BETA2) * gb * gb
                # decoupled decay: penalty hits weights directly, biases never
                w -= learning_rate * (
                    (mw / corr1) / (np.sqrt(vw / corr2) + _ADAM_EPS) + l2 * w
                )
                b -= learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + _ADAM_EPS)

        epochs_run = epoch + 1
        val_loss = _validation_loss(params, val_x, val_y)
        history.append(val_loss)
        if val_loss < best_loss:
            best_loss = val_loss
            best_params = [(w.copy(), b.copy()) for w, b in params]
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= patience:
                early_stopped = True
                break

    meta = TrainMeta(
        kind="dnn",
        epochs_run=epochs_run,
        early_stopped=early_stopped,
        best_epoch=best_epoch,
    )
    return DnnModel(
        params=best_params,
        dims=dims,
        meta=meta,
        val_loss_history=history,
        best_val_loss=best_loss,
    )
