"""Fully-connected net (input -> 64 -> 32 -> 1) trained with Adam.

Forward pass: ReLU hidden layers with inverted dropout (training only),
sigmoid output, mean binary cross-entropy. Early stopping watches
validation loss with a fixed patience and the returned model always
carries the best-epoch weights.

Adam steps in Kingma & Ba's efficient order (2015, after Algorithm 1),
theta -= alpha_t * m / (sqrt(v) + eps_hat) with alpha_t = lr * sqrt(1 -
beta2^t) / (1 - beta1^t) and eps_hat = eps * sqrt(1 - beta2^t). Decoupled
weight decay first scales the weights, never the biases, by 1 - lr * l2,
so Adam's denominator does not rescale the penalty.

Parameters, gradients and both Adam moments are the four rows of a
(4, runs, n_parameters) array, each run laid out [all weights | all
biases] with per-layer (w, b) views into it. The forward and backward
passes take an optional leading run axis, so one net and a stack of nets
share them.

A block of runs with equal shapes trains in one call, in stacks of at most
_LEVEL_ENTRIES // n_parameters runs: each batch is one forward/backward
pass and one Adam update of every live run, no sum crosses runs, and a run
whose patience runs out leaves the stack. Each run gets the bytes of its
own fit.

RNG draw order per run, from its own default_rng(seed): Glorot init layer
by layer, then per epoch one permutation of the rows and one
random(n * sum(hidden)) whose doubles are the dropout masks batch after
batch, hidden layer after hidden layer (the draws of a per-batch loop).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainMeta, binomial_deviance, check_predict_input, sigmoid
from .forest import _LEVEL_ENTRIES

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def n_parameters(dims: tuple[int, ...]) -> int:
    return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


def layer_views(flat: np.ndarray, dims: tuple[int, ...]) -> list:
    """(w, b) views, one pair per layer, into [all weights | all biases]
    buffers of n_parameters(dims) values along the last axis of flat. w is
    (..., fan_in, fan_out); b is (fan_out,) for one buffer and (..., 1,
    fan_out) for a stack of them, so that it broadcasts over a batch's rows."""
    lead = flat.shape[:-1]
    views, w_at, b_at = [], 0, n_parameters(dims) - sum(dims[1:])
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = flat[..., w_at:w_at + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        b = flat[..., b_at:b_at + fan_out]
        views.append((w, b[..., None, :] if lead else b))
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
    return activations, (activations[-1] @ w + b)[..., 0]


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
    upstream = ((sigmoid(logits) - y) / x.shape[-2])[..., None]
    for layer in range(len(params) - 1, -1, -1):
        grad_w, grad_b = grads[layer]
        np.matmul(activations[layer].swapaxes(-1, -2), upstream, out=grad_w)
        upstream.sum(axis=-2, keepdims=grad_b.ndim > 1, out=grad_b)
        if layer > 0:
            upstream = upstream @ params[layer][0].swapaxes(-1, -2)
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

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.dims[0])
        # probability exactly 0.5 resolves to the positive class
        return (sigmoid(forward_logits(self.params, features)) >= 0.5).astype(np.int64)


def _validation_loss(params: list, x: np.ndarray, y: np.ndarray):
    """The validation loss of each net (one per leading index)."""
    return binomial_deviance(y, forward_logits(params, x))


def train_dnn_block(
    features: np.ndarray,
    labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    seeds,
    hidden: tuple[int, ...] = (64, 32),
    dropout: float = 0.3,
    learning_rate: float = 0.003,
    l2: float = 0.001,
    epochs: int = 100,
    batch_size: int = 32,
    patience: int = 15,
) -> list[DnnModel]:
    """One DnnModel per run of a stack, (R, n, d) features, (R, n) labels,
    (R, nv, d) and (R, nv) validation, one seed per run, each equal to the
    run's fit in a block of one. Runs train in stacks of at most
    _LEVEL_ENTRIES // n_parameters(dims), which bounds the working memory."""
    arrays = [np.asarray(a, dtype=np.float64)
              for a in (features, labels, val_features, val_labels)]
    dims = (arrays[0].shape[2], *hidden, 1)
    size = max(1, _LEVEL_ENTRIES // n_parameters(dims))
    return [model for first in range(0, len(seeds), size)
            for model in _train_stack(*(a[first:first + size] for a in arrays),
                                      seeds[first:first + size], dims, dropout, learning_rate,
                                      l2, epochs, batch_size, patience)]


def _batch_masks(masks_of_epoch: np.ndarray, start: int, rows: int, hidden) -> list:
    """Dropout masks of the batch of `rows` rows from row `start`: its block
    of each run's epoch masks (..., n * sum(hidden)), hidden layer after
    hidden layer, as (..., rows, width) views."""
    lead, masks, at = masks_of_epoch.shape[:-1], [], start * sum(hidden)
    for width in hidden:
        masks.append(masks_of_epoch[..., at:at + rows * width].reshape(*lead, rows, width))
        at += rows * width
    return masks


def _train_stack(x, y, val_x, val_y, seeds, dims, dropout, learning_rate, l2, epochs,
                 batch_size, patience) -> list[DnnModel]:
    runs, n, _ = x.shape
    hidden = dims[1:-1]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # parameters, gradients and Adam's two moments per run; the live runs
    # are the first rows
    state = np.zeros((4, runs, n_parameters(dims)))
    for row, rng in zip(state[0], rngs):
        row[:] = init_params(rng, dims)
    best = state[0].copy()
    n_weights = best.shape[1] - sum(dims[1:])
    keep = 1.0 - dropout
    # each run's dropout masks for one epoch, none without dropout
    masks_of_epoch = np.empty((runs, n * sum(hidden) if dropout > 0.0 else 0))
    order = np.empty((runs, n), dtype=np.intp)
    step = 0

    live = list(range(runs))  # the run of each stacked row
    best_loss = [float("inf")] * runs
    best_epoch = [0] * runs
    wait = [0] * runs
    history = [[] for _ in range(runs)]
    early_stopped = [False] * runs
    epochs_run = [0] * runs

    stack = 0
    for epoch in range(epochs):
        if stack != len(live):  # the first epoch, or runs left the stack
            stack = len(live)
            flat, grad, adam_m, adam_v = state[:, :stack]
            params, grads = layer_views(flat, dims), layer_views(grad, dims)
            w = flat[:, :n_weights]  # the weight columns, which decay
            rows, epoch_masks = np.arange(stack)[:, None], masks_of_epoch[:stack]
        for row, run in enumerate(live):
            order[row] = rngs[run].permutation(n)
            if dropout > 0.0:
                rngs[run].random(out=epoch_masks[row])
        if dropout > 0.0:
            np.divide(epoch_masks < keep, keep, out=epoch_masks)
        x_epoch, y_epoch = x[rows, order[:stack]], y[rows, order[:stack]]
        for start in range(0, n, batch_size):
            xb, yb = x_epoch[:, start:start + batch_size], y_epoch[:, start:start + batch_size]
            masks = (_batch_masks(epoch_masks, start, xb.shape[1], hidden)
                     if dropout > 0.0 else None)
            backprop(params, xb, yb, masks, grads)

            step += 1
            adam_m *= _ADAM_BETA1
            adam_m += (1.0 - _ADAM_BETA1) * grad
            adam_v *= _ADAM_BETA2
            adam_v += (1.0 - _ADAM_BETA2) * grad * grad
            # the folded step (module docstring) in the spent gradient
            root = math.sqrt(1.0 - _ADAM_BETA2 ** step)
            np.sqrt(adam_v, out=grad)
            grad += _ADAM_EPS * root
            np.divide(adam_m, grad, out=grad)
            grad *= learning_rate * root / (1.0 - _ADAM_BETA1 ** step)
            w *= 1.0 - learning_rate * l2
            flat -= grad

        staying = []
        for row, (run, val_loss) in enumerate(zip(live, _validation_loss(
                params, val_x, val_y).tolist())):
            epochs_run[run] = epoch + 1
            history[run].append(val_loss)
            if val_loss < best_loss[run]:
                best_loss[run] = val_loss
                best[run] = flat[row]
                best_epoch[run] = epoch
                wait[run] = 0
            else:
                wait[run] += 1
                if wait[run] >= patience:
                    early_stopped[run] = True
                    continue
            staying.append(row)
        if len(staying) < stack:
            if not staying:
                break
            for row, kept in enumerate(staying):  # kept >= row: moves rows up in place
                state[:, row] = state[:, kept]
            live = [live[row] for row in staying]
            x, y, val_x, val_y = x[staying], y[staying], val_x[staying], val_y[staying]

    return [DnnModel(
        params=layer_views(best[run], dims),
        dims=dims,
        meta=TrainMeta(kind="dnn", epochs_run=epochs_run[run],
                       early_stopped=early_stopped[run], best_epoch=best_epoch[run]),
        val_loss_history=history[run],
        best_val_loss=best_loss[run],
    ) for run in range(runs)]
