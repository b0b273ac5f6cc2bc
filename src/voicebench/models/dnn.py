"""Fully-connected net (input -> 64 -> 32 -> 1) trained with Adam.

Forward pass: ReLU hidden layers with inverted dropout (training only),
sigmoid output, mean binary cross-entropy. Weight decay is decoupled from
the gradient moments (applied directly to weights, never biases) so the
penalty strength does not get rescaled by Adam's denominator. Early
stopping watches validation loss with a fixed patience and the returned
model always carries the best-epoch weights.

Parameters, gradients and both Adam moments are rows of one array, each
laid out [all weights | all biases] with per-layer (w, b) views into it.

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


def n_parameters(dims: tuple[int, ...]) -> int:
    return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


def layer_views(flat: np.ndarray, dims: tuple[int, ...]) -> list:
    """(w, b) views, one pair per layer, into a flat [all weights | all
    biases] buffer of n_parameters(dims) values."""
    views, w_at, b_at = [], 0, n_parameters(dims) - sum(dims[1:])
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = flat[w_at:w_at + fan_in * fan_out].reshape(fan_in, fan_out)
        views.append((w, flat[b_at:b_at + fan_out]))
        w_at += fan_in * fan_out
        b_at += fan_out
    return views


def init_params(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform weights, zero biases, for consecutive dim pairs, as a
    flat buffer (see layer_views)."""
    flat = np.zeros(n_parameters(dims))
    for w, _ in layer_views(flat, dims):
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return flat


def _forward(params: list, x: np.ndarray, masks: list | None = None):
    """Layer inputs (x first, then each hidden output) and the logits."""
    activations = [x]
    for layer, (w, b) in enumerate(params[:-1]):
        h = activations[-1] @ w
        h += b
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[layer]
        activations.append(h)
    w, b = params[-1]
    return activations, (activations[-1] @ w + b)[:, 0]


def forward_logits(params: list, x: np.ndarray, masks: list | None = None) -> np.ndarray:
    """Logits for a batch; masks (one per hidden layer) enable dropout."""
    return _forward(params, x, masks)[1]


def backprop(params: list, x: np.ndarray, y: np.ndarray, masks: list | None,
             grads: list) -> None:
    """Gradients of the mean BCE (binomial_deviance of forward_logits) for
    every weight and bias, written into grads, a list of (w, b)-shaped pairs.

    Pure function of its inputs (dropout enters only through explicit
    masks), which is what makes finite-difference checking possible.
    """
    activations, logits = _forward(params, x, masks)
    upstream = ((sigmoid(logits) - y) / x.shape[0])[:, None]
    for layer in range(len(params) - 1, -1, -1):
        grad_w, grad_b = grads[layer]
        np.matmul(activations[layer].T, upstream, out=grad_w)
        upstream.sum(axis=0, out=grad_b)
        if layer > 0:
            upstream = upstream @ params[layer][0].T
            if masks is not None:
                upstream *= masks[layer - 1]
            upstream *= activations[layer] > 0.0


@dataclass
class DnnModel:
    params: list
    dims: tuple
    meta: TrainMeta = field(default=None)
    val_loss_history: list = field(default_factory=list)
    best_val_loss: float = float("inf")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.dims[0])
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
    state = np.zeros((4, n_parameters(dims)))
    flat, grad, adam_m, adam_v = state
    flat[:] = init_params(rng, dims)
    params, grads = layer_views(flat, dims), layer_views(grad, dims)
    n_weights = flat.size - sum(dims[1:])
    keep = 1.0 - dropout
    step = 0

    best_loss = float("inf")
    best = flat.copy()
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
            backprop(params, xb, yb, masks, grads)

            step += 1
            adam_m *= _ADAM_BETA1
            adam_m += (1.0 - _ADAM_BETA1) * grad
            adam_v *= _ADAM_BETA2
            adam_v += (1.0 - _ADAM_BETA2) * grad * grad
            m_hat = adam_m / (1.0 - _ADAM_BETA1 ** step)
            denom = np.sqrt(adam_v / (1.0 - _ADAM_BETA2 ** step))
            denom += _ADAM_EPS
            # decoupled decay: penalty hits weights directly, biases never;
            # learning_rate multiplies before the bias division (bit order)
            w, b = flat[:n_weights], flat[n_weights:]
            w -= learning_rate * (m_hat[:n_weights] / denom[:n_weights] + l2 * w)
            b -= learning_rate * m_hat[n_weights:] / denom[n_weights:]

        epochs_run = epoch + 1
        val_loss = _validation_loss(params, val_x, val_y)
        history.append(val_loss)
        if val_loss < best_loss:
            best_loss = val_loss
            best = flat.copy()
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
        params=layer_views(best, dims),
        dims=dims,
        meta=meta,
        val_loss_history=history,
        best_val_loss=best_loss,
    )
