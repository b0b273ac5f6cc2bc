import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs
from voicebench.errors import DimensionMismatch, UsageError
from voicebench.models import ClassifierSpec, fit, fit_block, make_spec
from voicebench.models import dnn
from voicebench.models.base import binomial_deviance
from voicebench.models.dnn import (
    DnnModel,
    _batch_masks,
    backprop,
    forward_logits,
    init_params,
    layer_views,
    n_parameters,
    train_dnn,
)


def loss_and_grads(params, x, y, masks=None):
    """Mean BCE loss and fresh gradient pairs for every weight and bias."""
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in params]
    backprop(params, x, y, masks, grads)
    return binomial_deviance(y, forward_logits(params, x, masks)), grads


def numeric_gradient_check(seed: int, dims=(5, 8, 4, 1), n=12, step=1e-5):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    params = layer_views(init_params(rng, dims), dims)
    # shift biases off zero: exactly-zero pre-activations sit on the relu
    # kink, where the two-sided difference disagrees with any subgradient
    params = [(w, b + rng.normal(scale=0.1, size=b.shape)) for w, b in params]
    x = rng.normal(size=(n, dims[0]))
    y = rng.integers(0, 2, n).astype(np.float64)

    _, grads = loss_and_grads(params, x, y)

    def loss_at(flat):
        rebuilt, offset = [], 0
        for w, b in params:
            wk = flat[offset:offset + w.size].reshape(w.shape)
            offset += w.size
            bk = flat[offset:offset + b.size]
            offset += b.size
            rebuilt.append((wk, bk))
        return loss_and_grads(rebuilt, x, y)[0]

    flat = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params])
    flat_grad = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

    worst = 0.0
    probe = np.random.default_rng(seed + 1).permutation(flat.size)[:60]
    for i in probe:
        bump = np.zeros_like(flat)
        bump[i] = step
        numeric = (loss_at(flat + bump) - loss_at(flat - bump)) / (2 * step)
        denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
        worst = max(worst, abs(numeric - flat_grad[i]) / denom)
    return worst


class TestStructure:
    def test_parameter_count_formula(self):
        assert n_parameters((13, 64, 32, 1)) == 3009
        assert n_parameters((2, 3, 1)) == 2 * 3 + 3 + 3 * 1 + 1

    def test_init_shapes(self):
        flat = init_params(np.random.default_rng(0), (5, 8, 3, 1))
        params = layer_views(flat, (5, 8, 3, 1))
        # one buffer, [all weights | all biases]
        assert flat.shape == (n_parameters((5, 8, 3, 1)),)
        assert all(np.shares_memory(a, flat) for pair in params for a in pair)
        assert np.array_equal(flat[-12:], np.zeros(12))
        assert [(w.shape, b.shape) for w, b in params] == [
            ((5, 8), (8,)), ((8, 3), (3,)), ((3, 1), (1,)),
        ]
        for w, b in params:
            limit = np.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= limit)
            assert np.all(b == 0.0)

    def test_forward_shapes(self):
        params = layer_views(init_params(np.random.default_rng(1), (4, 6, 1)), (4, 6, 1))
        logits = forward_logits(params, np.zeros((7, 4)))
        assert logits.shape == (7,)


class TestGradients:
    def test_analytic_matches_numeric(self):
        worst = max(numeric_gradient_check(seed) for seed in (100, 101, 102))
        assert worst < 1e-6

    def test_dropout_mask_gradients(self):
        # gradients must stay correct when dropout masks are active
        rng = np.random.default_rng(200)
        dims = (4, 6, 3, 1)
        params = layer_views(init_params(rng, dims), dims)
        params = [(w, b + rng.normal(scale=0.1, size=b.shape)) for w, b in params]
        x = rng.normal(size=(9, 4))
        y = rng.integers(0, 2, 9).astype(np.float64)
        keep = 0.7
        masks = [(rng.random((9, 6)) < keep) / keep,
                 (rng.random((9, 3)) < keep) / keep]

        base, grads = loss_and_grads(params, x, y, masks=masks)
        w0 = params[0][0]
        step = 1e-6
        for idx in ((0, 0), (2, 3), (3, 5)):
            bumped = w0.copy()
            bumped[idx] += step
            plus = loss_and_grads([(bumped, params[0][1])] + params[1:], x, y,
                                  masks=masks)[0]
            bumped[idx] -= 2 * step
            minus = loss_and_grads([(bumped, params[0][1])] + params[1:], x, y,
                                   masks=masks)[0]
            numeric = (plus - minus) / (2 * step)
            assert abs(numeric - grads[0][0][idx]) < 1e-5


class TestTraining:
    def test_learns_blobs(self):
        x, y = make_blobs(seed=300, n=80, d=5, sep=2.0, std=0.6)
        xv, yv = make_blobs(seed=301, n=30, d=5, sep=2.0, std=0.6)
        model = train_dnn(x, y, xv, yv, epochs=60, seed=2)
        assert np.array_equal(model.predict(x), y)
        assert model.meta.epochs_run >= 1

    def test_deterministic(self):
        x, y = make_blobs(seed=302, n=50, d=4, sep=1.0, std=1.0)
        xv, yv = make_blobs(seed=303, n=20, d=4, sep=1.0, std=1.0)
        a = train_dnn(x, y, xv, yv, epochs=12, seed=7)
        b = train_dnn(x, y, xv, yv, epochs=12, seed=7)
        assert a.val_loss_history == b.val_loss_history
        for (wa, ba), (wb, bb) in zip(a.params, b.params):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_early_stop_restores_best_weights(self):
        # small training set + many epochs: validation loss will turn up
        x, y = make_blobs(seed=304, n=24, d=6, sep=0.4, std=1.6)
        xv, yv = make_blobs(seed=305, n=40, d=6, sep=0.4, std=1.6)
        model = train_dnn(x, y, xv, yv, epochs=400, patience=10, seed=3)
        history = np.asarray(model.val_loss_history)
        assert abs(model.best_val_loss - history.min()) < 1e-15
        assert model.meta.early_stopped is True
        assert model.meta.epochs_run < 400
        best = int(np.argmin(history))
        # nothing after the best epoch improved on it (strict policy)
        assert np.all(history[best + 1:] >= history[best])
        # restored weights reproduce the best recorded validation loss
        from voicebench.models.dnn import _validation_loss
        assert abs(_validation_loss(model.params, xv, yv.astype(float))
                   - model.best_val_loss) < 1e-12
        assert model.meta.best_epoch == int(np.argmin(history))

    def test_inference_has_no_dropout(self):
        x, y = make_blobs(seed=306, n=40, d=3, sep=1.5, std=0.8)
        xv, yv = make_blobs(seed=307, n=16, d=3, sep=1.5, std=0.8)
        model = train_dnn(x, y, xv, yv, epochs=10, dropout=0.5, seed=4)
        probe = np.random.default_rng(308).normal(size=(25, 3))
        a = model.predict_proba(probe)
        b = model.predict_proba(probe)
        assert np.array_equal(a, b)

    def test_decision_threshold_tie_goes_positive(self):
        # zeroed output head makes every probability exactly 0.5
        params = layer_views(init_params(np.random.default_rng(5), (3, 4, 1)), (3, 4, 1))
        w_last = np.zeros_like(params[-1][0])
        b_last = np.zeros_like(params[-1][1])
        model = DnnModel(params=params[:-1] + [(w_last, b_last)], dims=(3, 4, 1))
        probe = np.random.default_rng(6).normal(size=(10, 3))
        assert np.all(model.predict_proba(probe) == 0.5)
        assert np.array_equal(model.predict(probe), np.ones(10, dtype=np.int64))

    def test_epoch_budget_respected(self):
        x, y = make_blobs(seed=309, n=30, d=3)
        xv, yv = make_blobs(seed=310, n=12, d=3)
        model = train_dnn(x, y, xv, yv, epochs=5, patience=50, seed=1)
        assert model.meta.epochs_run == 5
        assert len(model.val_loss_history) == 5
        assert model.meta.early_stopped is False


class TestReferenceBits:
    """The trainer must reproduce, bit for bit, a plain per-layer Adam
    trainer (_reference_train_dnn below): same parameters, validation
    losses and stopping epochs."""

    @staticmethod
    def _check(x, y, xv, yv, **kwargs):
        model = train_dnn(x, y, xv, yv, **kwargs)
        params, history, best_epoch, epochs_run, early_stopped = (
            _reference_train_dnn(x, y, xv, yv, **kwargs))
        assert _param_bytes(model.params) == _param_bytes(params)
        assert model.val_loss_history == history
        assert model.meta.best_epoch == best_epoch
        assert model.meta.epochs_run == epochs_run
        assert model.meta.early_stopped == early_stopped
        return early_stopped

    def test_without_dropout(self):
        x, y = make_blobs(seed=320, n=64, d=5, sep=1.0, std=1.0)
        xv, yv = make_blobs(seed=321, n=24, d=5, sep=1.0, std=1.0)
        self._check(x, y, xv, yv, dropout=0.0, epochs=8, batch_size=32, seed=11)

    def test_with_dropout(self):
        x, y = make_blobs(seed=322, n=64, d=5, sep=1.0, std=1.0)
        xv, yv = make_blobs(seed=323, n=24, d=5, sep=1.0, std=1.0)
        self._check(x, y, xv, yv, dropout=0.3, epochs=8, batch_size=16, seed=12)

    def test_partial_last_batch(self):
        x, y = make_blobs(seed=324, n=50, d=6, sep=1.0, std=1.0)
        xv, yv = make_blobs(seed=325, n=20, d=6, sep=1.0, std=1.0)
        assert 50 % 16 != 0
        self._check(x, y, xv, yv, hidden=(7, 5, 3), dropout=0.3, epochs=6,
                    batch_size=16, seed=13)

    def test_early_stop(self):
        x, y = make_blobs(seed=304, n=24, d=6, sep=0.4, std=1.6)
        xv, yv = make_blobs(seed=305, n=40, d=6, sep=0.4, std=1.6)
        assert self._check(x, y, xv, yv, epochs=400, patience=10, seed=3)

    def test_bench_shaped_defaults(self):
        # the oversampled training split of a 195 x 22 table is 178 rows
        x, y = make_blobs(seed=326, n=178, d=22, sep=0.5, std=1.2)
        xv, yv = make_blobs(seed=327, n=30, d=22, sep=0.5, std=1.2)
        self._check(x, y, xv, yv, seed=14)


class TestBlock:
    """One stacked call gives each run of a block the bytes of its own fit
    and of _reference_train_dnn: every parameter, the validation losses and
    the stopping fields."""

    @staticmethod
    def _block(seed, runs, n=24, nv=10, d=5):
        trains = [make_blobs(seed=seed + 2 * t, n=n, d=d, sep=0.5, std=1.4) for t in range(runs)]
        validations = [make_blobs(seed=seed + 2 * t + 1, n=nv, d=d, sep=0.5, std=1.4)
                       for t in range(runs)]
        return trains, validations, [1000 + seed + t for t in range(runs)]

    @staticmethod
    def _digest(model):
        return (_param_bytes(model.params), model.val_loss_history, model.best_val_loss,
                model.meta.epochs_run, model.meta.best_epoch, model.meta.early_stopped)

    def _assert_runs_match(self, trains, validations, seeds, params=None):
        spec = ClassifierSpec("dnn", params or {})
        models = fit_block(spec, trains, validations, seeds)
        assert len(models) == len(trains)
        full = make_spec("dnn", params).params
        for model, train, validation, seed in zip(models, trains, validations, seeds):
            assert self._digest(model) == self._digest(fit(spec, train, validation, seed))
            best, history, best_epoch, epochs_run, early_stopped = _reference_train_dnn(
                *train, *validation, seed=seed, **full)
            assert self._digest(model) == (_param_bytes(best), history, history[best_epoch],
                                           epochs_run, best_epoch, early_stopped)
        return models

    def test_default_parameters(self):
        models = self._assert_runs_match(*self._block(400, 4))
        assert len({model.meta.epochs_run for model in models}) > 1  # runs leave at different epochs

    @pytest.mark.parametrize("params", [
        {"dropout": 0.0},
        {"hidden": [16]},
        {"hidden": [32, 16, 8]},
        {"batch_size": 7, "patience": 3},  # 24 % 7 = 3: a short last batch
        {"epochs": 5},
        {"batch_size": 500},
        {"patience": 1},
    ])
    def test_overrides(self, params):
        self._assert_runs_match(*self._block(410, 3), params)

    def test_runs_stopping_in_one_epoch(self):
        trains, validations, seeds = self._block(428, 5)
        # a copy of run 0 stops with it, in the same epoch
        trains.append(trains[0])
        validations.append(validations[0])
        seeds.append(seeds[0])
        models = self._assert_runs_match(trains, validations, seeds, {"patience": 2})
        stops = [model.meta.epochs_run for model in models]
        assert all(model.meta.early_stopped for model in models)
        assert max(stops) < 100
        assert len(set(stops)) < len(stops) - 1  # besides the copy, two runs stop together

    def test_block_of_one(self):
        (model,) = self._assert_runs_match(*self._block(430, 1))
        assert model.meta.kind == "dnn" and model.meta.train_ms > 0.0

    def test_block_longer_than_one_stack(self, monkeypatch):
        stacks = []
        train_stack = dnn._train_stack

        def spy(*args):
            stacks.append(len(args[4]))
            return train_stack(*args)

        monkeypatch.setattr(dnn, "_train_stack", spy)
        # at the default sizes a stack holds 40000 // 3585 = 11 runs of 22 columns
        trains, validations, seeds = self._block(440, 12, n=20, nv=6, d=22)
        self._assert_runs_match(trains, validations, seeds, {"epochs": 3})
        assert stacks[:2] == [11, 1]  # then one stack per run's own fit
        stacks.clear()
        monkeypatch.setattr(dnn, "_LEVEL_ENTRIES", 2 * n_parameters((5, 64, 32, 1)))
        self._assert_runs_match(*self._block(450, 5), {"patience": 4})
        assert stacks[:3] == [2, 2, 1]

    def test_unequal_shapes_refused(self):
        trains, validations, seeds = self._block(460, 2)
        spec = ClassifierSpec("dnn")
        x, y = trains[1]
        with pytest.raises(DimensionMismatch):
            fit_block(spec, [trains[0], (x[:-2], y[:-2])], validations, seeds)
        xv, yv = validations[1]
        with pytest.raises(DimensionMismatch):
            fit_block(spec, trains, [validations[0], (xv[:-2], yv[:-2])], seeds)
        with pytest.raises(DimensionMismatch):
            fit_block(spec, trains, [validations[0], (xv[:, :-1], yv)], seeds)

    def test_block_without_validations_refused(self):
        trains, _, seeds = self._block(470, 2)
        with pytest.raises(UsageError):
            fit_block(ClassifierSpec("dnn"), trains, seeds=seeds)

    def test_block_memory_is_bounded(self):
        """Runs train in stacks of at most 13 runs at 13 columns, so 40 runs
        hold one stack's state plus each finished run's best parameters."""
        trains, validations, seeds = self._block(480, 40, n=12, nv=4, d=13)
        spec = ClassifierSpec("dnn")
        # first calls import lazily (np.unique loads numpy.ma); not the trainer's memory
        fit_block(spec, trains[:1], validations[:1], seeds[:1])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fit_block(spec, trains, validations, seeds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class TestDrawPremise:
    """The stacked trainer draws each run's dropout masks for a whole epoch
    in one call. That equals the per-batch draws only while numpy's Generator
    hands out doubles as one stream; if a numpy release breaks that, these
    fail before any model changes silently."""

    @pytest.mark.parametrize("seed,a,b", [(0, 5, 7), (3, 1, 1), (9, 640, 2048), (11, 3, 0)])
    def test_random_splits_into_consecutive_calls(self, seed, a, b):
        rng = np.random.default_rng(seed)
        parts = np.concatenate([rng.random(a), rng.random(b)])
        assert np.random.default_rng(seed).random(a + b).tobytes() == parts.tobytes()

    def test_epoch_masks_equal_batch_draws(self):
        n, batch, hidden, keep = 50, 16, (7, 5, 3), 0.7
        assert n % batch != 0  # a short last batch
        per_batch, per_epoch = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3):  # epochs: a permutation, then the masks
            assert per_batch.permutation(n).tobytes() == per_epoch.permutation(n).tobytes()
            masks_of_epoch = (per_epoch.random(n * sum(hidden)) < keep) / keep
            for start in range(0, n, batch):
                rows = min(batch, n - start)
                expected = [(per_batch.random((rows, width)) < keep) / keep for width in hidden]
                got = _batch_masks(masks_of_epoch, start, rows, hidden)
                assert [m.shape for m in got] == [(rows, width) for width in hidden]
                assert [m.tobytes() for m in got] == [m.tobytes() for m in expected]
                stacked = _batch_masks(masks_of_epoch[None], start, rows, hidden)
                assert [m.tobytes() for m in stacked] == [m.tobytes() for m in expected]


def _param_bytes(params) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for pair in params for a in pair)


def _reference_train_dnn(features, labels, val_features, val_labels,
                         hidden=(64, 32), dropout=0.3, learning_rate=0.003,
                         l2=0.001, epochs=100, batch_size=32, patience=15, seed=0):
    """Per-layer Adam on (w, b) pairs; returns (params, history, best_epoch,
    epochs_run, early_stopped)."""
    from voicebench.models.base import binomial_deviance, sigmoid

    def forward(params, x, masks=None):
        activations = [x]
        for layer, (w, b) in enumerate(params[:-1]):
            h = np.maximum(activations[-1] @ w + b, 0.0)
            if masks is not None:
                h = h * masks[layer]
            activations.append(h)
        w, b = params[-1]
        return activations, (activations[-1] @ w + b)[:, 0]

    def grads_of(params, x, y, masks):
        activations, logits = forward(params, x, masks)
        delta = ((sigmoid(logits) - y) / x.shape[0])[:, None]
        grads = [None] * len(params)
        grads[-1] = (activations[-1].T @ delta, delta.sum(axis=0))
        upstream = delta @ params[-1][0].T
        for layer in range(len(params) - 2, -1, -1):
            if masks is not None:
                upstream = upstream * masks[layer]
            upstream = upstream * (activations[layer + 1] > 0.0)
            grads[layer] = (activations[layer].T @ upstream, upstream.sum(axis=0))
            if layer > 0:
                upstream = upstream @ params[layer][0].T
        return grads

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    val_x = np.asarray(val_features, dtype=np.float64)
    val_y = np.asarray(val_labels, dtype=np.float64)
    rng = np.random.default_rng(seed)
    dims = (x.shape[1], *hidden, 1)
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append((rng.uniform(-limit, limit, size=(fan_in, fan_out)),
                       np.zeros(fan_out)))
    keep = 1.0 - dropout
    adam_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    adam_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    best_loss, best_epoch, wait = float("inf"), 0, 0
    best = [(w.copy(), b.copy()) for w, b in params]
    history, early_stopped, epochs_run = [], False, 0
    for epoch in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, order.size, batch_size):
            batch = order[start:start + batch_size]
            masks = None
            if dropout > 0.0:
                masks = [(rng.random((batch.size, width)) < keep) / keep
                         for width in hidden]
            grads = grads_of(params, x[batch], y[batch], masks)
            step += 1
            corr1, corr2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for layer, (w, b) in enumerate(params):
                gw, gb = grads[layer]
                mw, mb = adam_m[layer]
                vw, vb = adam_v[layer]
                mw *= b1
                mw += (1.0 - b1) * gw
                mb *= b1
                mb += (1.0 - b1) * gb
                vw *= b2
                vw += (1.0 - b2) * gw * gw
                vb *= b2
                vb += (1.0 - b2) * gb * gb
                w -= learning_rate * ((mw / corr1) / (np.sqrt(vw / corr2) + eps) + l2 * w)
                b -= learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
        epochs_run = epoch + 1
        val_loss = binomial_deviance(val_y, forward(params, val_x)[1])
        history.append(val_loss)
        if val_loss < best_loss:
            best_loss, best_epoch, wait = val_loss, epoch, 0
            best = [(w.copy(), b.copy()) for w, b in params]
        else:
            wait += 1
            if wait >= patience:
                early_stopped = True
                break
    return best, history, best_epoch, epochs_run, early_stopped
