import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_blobs
from lbfgs_reference import minimize_lbfgs
from platt_smo import platt_smo
from propcheck import deviance_path
from voicebench.data import oversample
from voicebench.errors import DegenerateData, DimensionMismatch, UsageError
from voicebench.models import (
    CANONICAL_KINDS,
    ClassifierSpec,
    default_params,
    fit,
    fit_block,
    make_spec,
)
from voicebench.models import forest, svm
from voicebench.models.base import binomial_deviance, sigmoid
from voicebench.models.boosting import _MIN_IMPROVEMENT, _friedman_gain
from voicebench.models.forest import (
    _RF_ENTRIES,
    ForestModel,
    Nodes,
    _neg_gini,
    best_splits,
    grow,
    join,
    leaf_values,
    presort,
    train_random_forest,
)
from voicebench.models.logreg import logreg_objective, train_logreg
from voicebench.models.svm import rbf_kernel, scale_gamma, train_svm_smo


class TestSpecs:
    def test_canonical_kinds(self):
        assert CANONICAL_KINDS == ("logreg", "svm", "rf", "gb", "dnn")

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            default_params("perceptron")

    def test_default_table(self):
        # the trainers' keyword defaults, without seed or positional arguments
        table = {kind: default_params(kind) for kind in CANONICAL_KINDS}
        assert table == {
            "logreg": {"c": 1.0, "max_iter": 1000, "tol": 1e-6},
            "svm": {"c": 1.0, "kkt_tol": 1e-3, "max_iter": 10000},
            "rf": {"n_estimators": 100},
            "gb": {"n_estimators": 100, "learning_rate": 0.1, "max_depth": 3},
            "dnn": {"hidden": (64, 32), "dropout": 0.3, "learning_rate": 0.003,
                    "l2": 0.001, "epochs": 100, "batch_size": 32, "patience": 15},
        }
        types = {kind: {key: type(value) for key, value in params.items()}
                 for kind, params in table.items()}
        assert types == {
            "logreg": {"c": float, "max_iter": int, "tol": float},
            "svm": {"c": float, "kkt_tol": float, "max_iter": int},
            "rf": {"n_estimators": int},
            "gb": {"n_estimators": int, "learning_rate": float, "max_depth": int},
            "dnn": {"hidden": tuple, "dropout": float, "learning_rate": float,
                    "l2": float, "epochs": int, "batch_size": int, "patience": int},
        }

    def test_unknown_param(self):
        with pytest.raises(UsageError):
            make_spec("rf", {"depth": 3})

    @pytest.mark.parametrize(
        "kind,overrides",
        [("svm", {"c": "big"}), ("svm", {"c": True}), ("gb", {"max_depth": "3"}),
         ("dnn", {"hidden": 64}), ("rf", 5),
         ("rf", {"n_estimators": 2.5}), ("rf", {"n_estimators": 0}),
         ("logreg", {"max_iter": 10.5}), ("svm", {"max_iter": -1}),
         ("gb", {"n_estimators": float("inf")}), ("gb", {"max_depth": 0.5}),
         ("dnn", {"epochs": 0}), ("dnn", {"batch_size": 8.5}), ("dnn", {"patience": 0}),
         ("dnn", {"hidden": [64, 0]}), ("dnn", {"hidden": [64.5]}),
         ("dnn", {"hidden": ["64"]}), ("dnn", {"epochs": True}),
         ("dnn", {"epochs": float("nan")}),
         ("dnn", {"dropout": 1.0}), ("svm", {"c": -1}), ("gb", {"learning_rate": -0.1}),
         ("logreg", {"c": float("nan")}), ("logreg", {"c": 0}), ("logreg", {"tol": 0.0}),
         ("logreg", {"c": float("inf")}), ("logreg", {"c": 10 ** 400}),
         ("svm", {"kkt_tol": -1e-3}), ("svm", {"c": float("-inf")}),
         ("gb", {"learning_rate": float("nan")}), ("dnn", {"dropout": -0.1}),
         ("dnn", {"dropout": float("nan")}), ("dnn", {"l2": -1e-3}),
         ("dnn", {"l2": float("inf")}), ("dnn", {"learning_rate": 0.0})],
    )
    def test_bad_value_rejected(self, kind, overrides):
        with pytest.raises(UsageError) as raised:
            make_spec(kind, overrides)
        if isinstance(overrides, dict):
            assert f"{kind!r}" in str(raised.value)
            assert f"{next(iter(overrides))!r}" in str(raised.value)

    def test_real_values_at_the_edge_of_their_range(self):
        # l2 and dropout may be 0; every other real only has to be positive
        assert make_spec("dnn", {"l2": 0, "dropout": 0.0}).params["l2"] == 0
        assert make_spec("dnn", {"dropout": 0.999}).params["dropout"] == 0.999
        assert make_spec("svm", {"c": 5e-324, "kkt_tol": 1e300}).params["c"] == 5e-324
        assert make_spec("logreg", {"c": 2}).params["c"] == 2

    def test_whole_float_counts_become_ints(self):
        spec = make_spec("dnn", {"epochs": 20.0, "hidden": [16.0, 8]})
        assert spec.params["epochs"] == 20 and type(spec.params["epochs"]) is int
        assert spec.params["hidden"] == (16, 8)
        assert all(type(width) is int for width in spec.params["hidden"])

    def test_override(self):
        spec = make_spec("gb", {"n_estimators": 7})
        assert spec.params["n_estimators"] == 7
        # defaults stay intact for everything else
        assert spec.params["learning_rate"] == default_params("gb")["learning_rate"]


class TestFitContract:
    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_trains_and_separates_blobs(self, kind):
        x, y = make_blobs(seed=5, n=60, d=4, sep=3.0, std=0.5)
        xv, yv = make_blobs(seed=6, n=20, d=4, sep=3.0, std=0.5)
        overrides = {"epochs": 60} if kind == "dnn" else None
        model = fit(make_spec(kind, overrides), (x, y), (xv, yv), seed=1)
        assert model.meta.kind == kind
        assert model.meta.train_ms >= 0.0
        assert np.array_equal(model.predict(x), y)

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_deterministic_given_seed(self, kind):
        x, y = make_blobs(seed=7, n=40, d=3, sep=1.0, std=1.0)
        xv, yv = make_blobs(seed=8, n=16, d=3, sep=1.0, std=1.0)
        overrides = {"epochs": 25} if kind == "dnn" else None
        a = fit(make_spec(kind, overrides), (x, y), (xv, yv), seed=9)
        b = fit(make_spec(kind, overrides), (x, y), (xv, yv), seed=9)
        probe = np.random.default_rng(10).normal(size=(30, 3))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_single_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(DegenerateData):
            fit(ClassifierSpec("logreg"), (x, np.ones(10, dtype=int)))

    def test_identical_rows_rejected(self):
        x = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        with pytest.raises(DegenerateData):
            fit(ClassifierSpec("rf"), (x, y))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateData):
            fit(ClassifierSpec("svm"), (np.zeros((0, 2)), np.zeros(0, dtype=int)))

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_predict_validates_width(self, kind):
        x, y = make_blobs(seed=11, n=30, d=3)
        xv, yv = make_blobs(seed=12, n=12, d=3)
        overrides = {"epochs": 5} if kind == "dnn" else None
        model = fit(make_spec(kind, overrides), (x, y), (xv, yv), seed=0)
        with pytest.raises(DimensionMismatch):
            model.predict(np.zeros((4, 7)))

    @pytest.mark.parametrize("kind", CANONICAL_KINDS)
    def test_predict_empty_returns_empty(self, kind):
        x, y = make_blobs(seed=13, n=30, d=2)
        xv, yv = make_blobs(seed=14, n=12, d=2)
        overrides = {"epochs": 5} if kind == "dnn" else None
        model = fit(make_spec(kind, overrides), (x, y), (xv, yv), seed=0)
        assert model.predict(np.zeros((0, 2))).shape == (0,)


class TestLbfgs:
    def test_quadratic(self):
        target = np.array([3.0, -1.0, 0.5])
        scale = np.array([1.0, 4.0, 0.25])

        def fg(x):
            diff = x - target
            return 0.5 * float(diff @ (scale * diff)), scale * diff

        x, converged, n_iter = minimize_lbfgs(fg, np.zeros(3), tol=1e-10, max_iter=200)
        assert converged
        assert np.max(np.abs(x - target)) < 1e-8

    def test_ill_conditioned_quadratic(self):
        scale = np.logspace(0, 4, 6)  # condition number 1e4
        target = np.arange(6.0)

        def fg(x):
            diff = x - target
            return 0.5 * float(diff @ (scale * diff)), scale * diff

        x, converged, _ = minimize_lbfgs(fg, np.zeros(6), tol=1e-9, max_iter=400)
        assert converged
        assert np.max(np.abs(x - target)) < 1e-6

    def test_convex_nonquadratic(self):
        # log-cosh has nearly flat tails, so the line search has to work
        target = np.array([2.0, -5.0, 0.0, 11.0])

        def fg(x):
            diff = x - target
            f = float(np.sum(np.logaddexp(diff, -diff) - math.log(2.0)))
            f += 0.005 * float(x @ x)
            return f, np.tanh(diff) + 0.01 * x

        x, converged, _ = minimize_lbfgs(fg, np.zeros(4), tol=1e-9, max_iter=400)
        assert converged
        _, grad = fg(x)
        assert np.max(np.abs(grad)) < 1e-9

    def test_already_converged_returns_start(self):
        def fg(x):
            return float(x @ x), 2.0 * x

        x0 = np.zeros(4)
        x, converged, n_iter = minimize_lbfgs(fg, x0, tol=1e-6, max_iter=50)
        assert converged
        assert n_iter == 0
        assert np.array_equal(x, x0)


class TestLogreg:
    def test_stationary_at_zero_with_balanced_labels(self):
        model = train_logreg(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert np.array_equal(model.weights, np.zeros(2))
        assert model.intercept == 0.0
        assert model.meta.converged

    def test_xor_collapses_to_uninformative_optimum(self):
        # XOR is not linearly separable; with symmetric inputs the penalized
        # optimum is the zero vector and the loss is 4 softplus(0) = 4 ln 2
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        x = 2.0 * x - 1.0  # symmetric around the origin
        y = np.array([0, 1, 1, 0])
        model = train_logreg(x, y)
        theta = np.concatenate([model.weights, [model.intercept]])
        value, grad = logreg_objective(theta, x, np.where(y == 1, 1.0, -1.0), 1.0)
        assert abs(value - 4.0 * math.log(2.0)) < 1e-9
        assert np.max(np.abs(grad)) < 1e-6
        assert np.max(np.abs(theta)) < 1e-6
        # grid probe: no nearby point does better (convex objective)
        rng = np.random.default_rng(0)
        for _ in range(50):
            probe = theta + rng.normal(scale=0.5, size=3)
            probe_value, _ = logreg_objective(
                probe, x, np.where(y == 1, 1.0, -1.0), 1.0
            )
            assert probe_value >= value - 1e-12

    def test_separable_data(self):
        x, y = make_blobs(seed=20, n=50, d=3)
        model = train_logreg(x, y)
        assert model.meta.converged
        assert np.array_equal(model.predict(x), y)
        proba = sigmoid(model.decision(x))
        assert np.all((proba > 0) & (proba < 1))

    def test_stronger_penalty_shrinks_weights(self):
        x, y = make_blobs(seed=21, n=60, d=4, sep=1.0, std=1.0)
        loose = train_logreg(x, y, c=10.0)
        tight = train_logreg(x, y, c=0.01)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


class TestSvm:
    def test_two_point_closed_form(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_svm_smo(x, y)
        # gamma = 1, alphas hit the box, so f(+-1) = +-(1 - e^-4)
        expected = 1.0 - math.exp(-4.0)
        decisions = model.decision(x)
        assert abs(decisions[0] + expected) < 1e-9
        assert abs(decisions[1] - expected) < 1e-9
        assert np.array_equal(model.alphas, [1.0, 1.0])
        assert abs(model.bias) < 1e-12
        assert model.support_vectors.shape == (2, 1)

    def test_gamma_heuristic(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])  # overall variance 1.0
        assert scale_gamma(x) == 0.5
        assert scale_gamma(np.ones((5, 3))) == 1.0

    def test_rbf_kernel_values(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        k = rbf_kernel(a, a, gamma=0.5)
        assert np.allclose(np.diag(k), 1.0)
        assert abs(k[0, 1] - math.exp(-1.0)) < 1e-12

    def test_xor_with_rbf(self):
        x = 2.0 * np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]]) - 1.0
        y = np.array([0, 1, 1, 0])
        model = train_svm_smo(x, y)
        assert np.array_equal(model.predict(x), y)

    def test_dual_feasibility_on_blobs(self):
        x, y = make_blobs(seed=30, n=80, d=3, sep=1.5, std=1.0)
        model = train_svm_smo(x, y)
        z = np.where(y == 1, 1.0, -1.0)
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= 1.0)
        assert abs(float(np.sum(model.alphas * z))) < 1e-9

    def test_deterministic(self):
        x, y = make_blobs(seed=31, n=50, d=4, sep=1.0, std=1.2)
        a = train_svm_smo(x, y)
        b = train_svm_smo(x, y)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias

    def test_kernel_bytes_independent_of_blas_threads(self):
        # the kernel decides SMO's pair choices; on this input a threaded
        # BLAS product gives other bytes at 2 threads than at 1
        code = (
            "import hashlib, numpy as np\n"
            "from voicebench.models.svm import rbf_kernel, scale_gamma\n"
            "x = np.random.default_rng(0).normal(size=(220, 22))\n"
            "k = rbf_kernel(x, x, scale_gamma(x))\n"
            "print(hashlib.sha256(k.tobytes()).hexdigest())\n"
        )
        src_dir = str(Path(svm.__file__).resolve().parents[2])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_decision_uses_training_kernel(self, monkeypatch):
        x, y = make_blobs(seed=32, n=40, d=3, sep=1.0, std=1.0)
        model = train_svm_smo(x, y)
        calls = []

        def spy(a, b, gamma):
            calls.append((a, b, gamma))
            return rbf_kernel(a, b, gamma)

        monkeypatch.setattr(svm, "rbf_kernel", spy)
        probe = np.random.default_rng(33).normal(size=(7, 3))
        decisions = model.decision(probe)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], probe) and calls[0][1] is model.support_vectors
        assert calls[0][2] == model.gamma
        assert np.array_equal(decisions, rbf_kernel(probe, model.support_vectors, model.gamma)
                              @ model.dual_coef + model.bias)


def _svm_problems():
    """Seeded blobs of 16-200 rows with duplicate rows, then sets shaped like
    the bench table's oversampled training splits (178 x 22, z-scored)."""
    for seed in range(40):
        rng = np.random.default_rng([seed, 24])
        n = int(rng.integers(16, 178))
        d = int(rng.integers(2, 9))
        n1 = int(rng.integers(4, n - 4))
        x = np.vstack([rng.normal(0.0, 1.0, size=(n - n1, d)),
                       rng.normal(rng.uniform(0.3, 2.5), 1.0, size=(n1, d))])
        y = np.repeat([0, 1], [n - n1, n1])
        dup = rng.integers(0, n, size=n // 8)
        yield np.vstack([x, x[dup]]), np.concatenate([y, y[dup]])
    for seed in range(12):
        rng = np.random.default_rng([seed, 178])
        y = np.repeat([0, 1], [29, 89])
        latent = rng.normal(size=(y.size, 22)) + y[:, None] * rng.uniform(0.5, 1.2, size=22)
        x = np.einsum("ij,jk->ik", latent, rng.normal(size=(22, 22)))
        yield oversample((x - x.mean(axis=0)) / x.std(axis=0), y, seed)


class TestSvmSolver:
    def test_dual_objective_not_above_platt(self):
        problems = 0
        for x, y in _svm_problems():
            model = train_svm_smo(x, y)
            z = np.where(y == 1, 1.0, -1.0)
            k = rbf_kernel(x, x, model.gamma)
            reference, _, reference_converged = platt_smo(k, z)
            assert model.meta.converged and reference_converged

            def dual(alpha):
                return 0.5 * (alpha * z) @ k @ (alpha * z) - alpha.sum()

            assert dual(model.alphas) <= dual(reference) + 1e-4, x.shape
            problems += 1
        assert problems == 52

    def test_iteration_cap_keeps_the_pair_feasible(self):
        x, y = make_blobs(seed=34, n=60, d=3, sep=0.5, std=1.0)
        model = train_svm_smo(x, y, max_iter=1)
        assert not model.meta.converged and model.meta.epochs_run == 1
        assert np.all((model.alphas >= 0.0) & (model.alphas <= 1.0))
        assert np.count_nonzero(model.alphas) == 2
        z = np.where(y == 1, 1.0, -1.0)
        assert abs(float(np.sum(model.alphas * z))) <= 1e-9


class TestLogregSolver:
    def test_objective_not_above_lbfgs(self):
        # the svm solver tests' problems, each kind with c from 1e-3 to 1e3.
        # L-BFGS stalls short of tol on a few of them at c >= 100, so its
        # result only has to be reached, at the cap logreg used to have
        problems = 0
        for x, y in _svm_problems():
            c = 10.0 ** (problems % 7 - 3)
            model = train_logreg(x, y, c=c)
            z = np.where(y == 1, 1.0, -1.0)

            def objective(theta):
                return logreg_objective(theta, x, z, c)

            reference, _, _ = minimize_lbfgs(
                objective, np.zeros(x.shape[1] + 1), tol=1e-6, max_iter=1000)
            assert model.meta.converged
            value = objective(np.append(model.weights, model.intercept))[0]
            optimum = objective(reference)[0]
            assert value <= optimum + 1e-9 * max(1.0, abs(optimum)), (x.shape, c)
            problems += 1
        assert problems == 52

    @pytest.mark.parametrize("c", [1e-8, 1e12])
    def test_extreme_penalty_converges_without_float_errors(self, c):
        x, y = make_blobs(seed=35, n=60, d=3)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            model = train_logreg(x, y, c=c)
        assert model.meta.converged
        assert np.all(np.isfinite(model.weights)) and np.isfinite(model.intercept)

    def test_iteration_cap(self):
        x, y = make_blobs(seed=36, n=60, d=3, sep=0.5, std=1.0)
        assert train_logreg(x, y).meta.epochs_run > 1
        model = train_logreg(x, y, max_iter=1)
        assert not model.meta.converged and model.meta.epochs_run == 1


class _Preorder(NamedTuple):
    """One tree in preorder (node, left subtree, right subtree), as the
    per-node references lay trees out: child links count from the root,
    and are -1 at leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _preorder(tree: Nodes):
    """A one-tree Nodes as _Preorder arrays, and each node's position in
    them. The k-th split of a breadth-first tree has its children at 2k + 1
    and 2k + 2."""
    split = tree.feature != -1
    kid = 2 * split.cumsum() - 1
    walk, stack = [], [0]
    while stack:
        walk.append(stack.pop())
        if split[walk[-1]]:
            stack += (kid[walk[-1]] + 1, kid[walk[-1]])
    walk = np.array(walk)
    at = np.empty_like(walk)
    at[walk] = np.arange(walk.size)
    links = [np.where(split, at[np.where(split, kid + side, 0)], -1)[walk] for side in (0, 1)]
    return _Preorder(tree.feature[walk], tree.threshold[walk], *links, tree.value[walk]), at


def _trees(nodes: Nodes) -> list[_Preorder]:
    """Each tree of nodes in preorder."""
    return [_preorder(tree)[0] for tree in nodes.cut(nodes.bounds.size - 1)]


def _gb(features, labels, **params):
    """One gb model fitted through the registry."""
    return fit(ClassifierSpec("gb", params), (features, labels))


def _stump(threshold: float, left_value: float, right_value: float) -> Nodes:
    return Nodes(
        feature=np.array([0, -1, -1]),
        threshold=np.array([threshold, 0.0, 0.0]),
        value=np.array([0.0, left_value, right_value]),
        bounds=np.array([0, 3]),
    )


class TestForest:
    def test_single_feature_threshold(self):
        rng = np.random.default_rng(40)
        x = np.concatenate([rng.uniform(-2, -0.5, 40), rng.uniform(0.5, 2, 40)])
        x = x.reshape(-1, 1)
        y = (x[:, 0] > 0).astype(int)
        model = train_random_forest(x, y, seed=3)
        # probe outside the class gap; inside it any threshold is defensible
        grid = np.concatenate([
            np.linspace(-2, -0.65, 15), np.linspace(0.65, 2, 15)
        ]).reshape(-1, 1)
        assert np.array_equal(model.predict(grid), (grid[:, 0] > 0).astype(int))

    def test_memorizes_noise(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        model = train_random_forest(x, y, seed=1)
        # fully grown trees on unique rows reproduce the training labels
        assert np.array_equal(model.predict(x), y)

    def test_seed_determinism(self):
        x, y = make_blobs(seed=42, n=50, d=4, sep=0.8, std=1.0)
        a = train_random_forest(x, y, seed=5)
        b = train_random_forest(x, y, seed=5)
        probe = np.random.default_rng(43).normal(size=(40, 4))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_different_seeds_differ(self):
        x, y = make_blobs(seed=44, n=50, d=4, sep=0.5, std=1.5)
        a = train_random_forest(x, y, seed=1)
        b = train_random_forest(x, y, seed=2)
        differs = any(
            not np.array_equal(ta.threshold, tb.threshold)
            for ta, tb in zip(_trees(a.nodes), _trees(b.nodes))
        )
        assert differs

    def test_vote_tie_goes_positive(self):
        model = ForestModel(
            nodes=join([_stump(0.0, 0.0, 0.0), _stump(0.0, 1.0, 1.0)]),
            n_features=1,
        )
        # one tree votes 0, the other votes 1, for any input
        assert np.array_equal(model.predict(np.array([[5.0]])), [1])

    def test_one_tree_of_256_rows(self):
        # a batch's row ids take a small integer type, which must hold n too
        rng = np.random.default_rng(45)
        x = rng.normal(size=(256, 3))
        y = (x[:, 0] > 0).astype(int)
        model = train_random_forest(x, y, n_estimators=1, seed=2)
        assert model.nodes.bounds.size == 2
        assert np.mean(model.predict(x) == y) > 0.9

    def test_stump_routing(self):
        tree = _stump(0.5, -1.0, 2.0)
        out = leaf_values(tree, np.array([[0.4], [0.5], [0.6], [np.nan]]))[0]
        # x <= threshold goes left, anything else (NaN too) right
        assert np.array_equal(out, [-1.0, -1.0, 2.0, 2.0])


class TestBoosting:
    def test_base_score_is_log_odds(self):
        x = np.arange(4.0).reshape(-1, 1)
        model = _gb(x, np.array([0, 1, 1, 1]), n_estimators=2)
        assert abs(model.base_score - math.log(3.0)) < 1e-12

    def test_deviance_path_descends(self):
        x, y = make_blobs(seed=50, n=60, d=3, sep=1.0, std=1.0)
        model = _gb(x, y, n_estimators=40)
        path = np.asarray(deviance_path(model, x, y))
        assert path.size == 41  # initial value plus one per stage
        assert abs(path[0] - binomial_deviance(y.astype(float),
                                               np.full(y.size, model.base_score))) < 1e-12
        assert np.all(np.diff(path) <= 1e-12)
        assert path[-1] < path[0]

    def test_depth_limit_caps_leaves(self):
        x, y = make_blobs(seed=51, n=80, d=5, sep=0.3, std=1.5)
        model = _gb(x, y, n_estimators=10, max_depth=3)
        for tree in _trees(model.nodes):
            n_leaves = int(np.sum(tree.feature == -1))
            assert 1 <= n_leaves <= 8

    def test_separates_blobs(self):
        x, y = make_blobs(seed=52, n=60, d=3)
        model = _gb(x, y)
        assert np.array_equal(model.predict(x), y)

    def test_deterministic(self):
        x, y = make_blobs(seed=53, n=40, d=3, sep=0.7, std=1.2)
        a = _gb(x, y, n_estimators=15)
        b = _gb(x, y, n_estimators=15)
        assert a.base_score == b.base_score
        assert np.array_equal(a.raw_scores(x), b.raw_scores(x))

    def test_raw_scores_match_tree_by_tree_sum(self):
        # raw_scores adds the trees as one running sum over a stacked array;
        # its bytes must be those of adding them onto the base score in turn
        rng = np.random.default_rng(54)
        for case in range(25):
            runs, n, d = int(rng.integers(1, 5)), int(rng.integers(4, 40)), int(rng.integers(1, 6))
            x = np.round(rng.normal(size=(runs, n, d)), int(rng.integers(1, 3)))
            y = rng.integers(0, 2, size=(runs, n))
            y[:, :2] = (0, 1)
            params = {"n_estimators": int(rng.integers(1, 40)),
                      "learning_rate": float(rng.uniform(0.01, 1.0)),
                      "max_depth": int(rng.integers(1, 5))}
            probe = rng.normal(0.0, 2.0, size=(int(rng.integers(0, 30)), d))
            for model in fit_block(ClassifierSpec("gb", params), list(zip(x, y))):
                scores = np.full(probe.shape[0], model.base_score)
                for values in leaf_values(model.nodes, probe):
                    scores += model.learning_rate * values
                assert model.raw_scores(probe).tobytes() == scores.tobytes()


def _tree_digest(trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        for array in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestTreeBits:
    """Pins every bit of grown trees, walked in preorder, so a tree-engine
    change that alters any split, threshold, child or leaf value fails
    here. Inputs are rounded to one decimal, so most columns carry heavy
    ties."""

    @staticmethod
    def _tied_blobs():
        x, y = make_blobs(seed=60, n=90, d=7, sep=0.5, std=1.5)
        return np.round(x, 1), y

    def test_forest_trees_bit_identical(self):
        # the pin is the digest of the slow reference of seed protocol 3
        x, y = self._tied_blobs()
        pinned = "abcac7c4e0357d50758447ec8edf265e074e5f3334eb966c5a19ccf090140202"
        assert _tree_digest(_reference_forest(x, y, seed=5)) == pinned
        model = train_random_forest(x, y, seed=5)
        assert _tree_digest(_trees(model.nodes)) == pinned

    def test_forest_matches_reference_across_batches(self, monkeypatch):
        x, y = make_blobs(seed=63, n=178, d=22, sep=0.3, std=1.5)
        x = np.round(x, 1)
        expected = _tree_digest(_reference_forest(x, y, seed=9, n_estimators=45))
        # 1 tree per batch, 10 (the batches of seed protocol 2) and today's cap
        for entries in (1, 40_000, _RF_ENTRIES):
            monkeypatch.setattr(forest, "_RF_ENTRIES", entries)
            assert entries // (178 * 22) < 45  # 45 trees make several batches
            model = train_random_forest(x, y, n_estimators=45, seed=9)
            assert _tree_digest(_trees(model.nodes)) == expected

    def test_boosting_trees_bit_identical(self):
        x, y = self._tied_blobs()
        model = _gb(x, y)
        assert _tree_digest(_trees(model.nodes)) == (
            "f2ca9587b220c7d39ed3dee7d4afdc7805f90d02f305d81dc225e7c7926dcc12")


def _splitmix_ref(state, counter):
    """Output counter (from 0) of SplitMix64 seeded with state, on Python ints."""
    z = (state + (counter + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
    return z ^ (z >> 31)


def _reference_forest(features, labels, seed, n_estimators=100):
    """Seed protocol 3, one node at a time. Each tree grows breadth-first on
    its bootstrap rows; an impure node ranks the columns by draws keyed on
    (seed, tree, its breadth-first index in the tree), and _loop_split
    splits it. Trees are laid out in preorder."""
    n, d = features.shape
    k = max(1, math.ceil(math.sqrt(d)))
    bootstraps = np.random.default_rng(seed).integers(0, n, size=(n_estimators, n))
    trees = []
    for t, b in enumerate(bootstraps):
        queue = [{"x": features[b], "y": labels[b], "rows": np.arange(n)}]
        for index, node in enumerate(queue):  # a node's place in the queue is its index
            if 0 < node["y"][node["rows"]].sum() < node["rows"].size:
                stream = _splitmix_ref(_splitmix_ref(seed, t), index)
                draws = [_splitmix_ref(stream, f) for f in range(d)]
                columns = sorted(range(d), key=lambda f: (draws[f], f))[:k]
                split = _loop_split(node["x"], node["y"], node["rows"], columns,
                                    _neg_gini, -np.inf)
                if split is not None:
                    go_left = node["x"][node["rows"], split[0]] <= split[1]
                    node["kids"] = [{"x": node["x"], "y": node["y"], "rows": node["rows"][side]}
                                    for side in (go_left, ~go_left)]
                    node["split"] = split
                    queue += node["kids"]
        trees.append(_preorder_tree(queue[0]))
    return trees


def _preorder_tree(root):
    arrays = {name: [] for name in ("feature", "threshold", "left", "right", "value")}

    def visit(node):
        at = len(arrays["feature"])
        for column in arrays.values():
            column.append(-1)
        if "split" in node:
            arrays["feature"][at], arrays["threshold"][at] = node["split"]
            arrays["value"][at] = 0.0
            arrays["left"][at] = visit(node["kids"][0])
            arrays["right"][at] = visit(node["kids"][1])
        else:
            ones = node["y"][node["rows"]].sum()
            arrays["threshold"][at] = 0.0
            arrays["value"][at] = 1.0 if 2 * ones >= node["rows"].size else 0.0
        return at

    visit(root)
    return _Preorder(*(np.asarray(arrays[name], dtype=dtype) for name, dtype in (
        ("feature", np.int64), ("threshold", np.float64), ("left", np.int64),
        ("right", np.int64), ("value", np.float64))))


def _walk(tree, row):
    """The leaf value row reaches in a _Preorder tree; NaN goes right."""
    node = 0
    while tree.feature[node] != -1:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


class TestForestWidePredict:
    """All trees walk at once; the results must equal walking each tree
    row by row, bit for bit."""

    @pytest.mark.parametrize("decimals", [None, 0, 1])
    def test_matches_row_by_row_walk(self, decimals):
        x, y = make_blobs(seed=64, n=80, d=5, sep=0.4, std=1.5)
        probe = np.random.default_rng(65).normal(0.0, 2.0, size=(60, 5))
        if decimals is not None:
            x, probe = np.round(x, decimals), np.round(probe, decimals)
        holes = probe[:20].copy()  # predict takes NaN cells
        holes[np.random.default_rng(66).random(holes.shape) < 0.4] = np.nan
        probe = np.vstack([probe, x, holes])  # training rows sit on thresholds' sides exactly
        forest_model = train_random_forest(x, y, n_estimators=30, seed=4)
        walked = np.array([[_walk(tree, row) for row in probe]
                           for tree in _trees(forest_model.nodes)])
        assert np.array_equal(leaf_values(forest_model.nodes, probe), walked)
        for tree, expected in zip(forest_model.nodes.cut(30)[:5], walked):
            assert np.array_equal(leaf_values(tree, probe)[0], expected)
        votes = walked.sum(axis=0)
        assert np.array_equal(forest_model.predict(probe), (2 * votes >= 30).astype(int))
        boost = _gb(x, y, n_estimators=25)
        scores = np.full(probe.shape[0], boost.base_score)
        for tree in _trees(boost.nodes):
            scores += boost.learning_rate * np.array([_walk(tree, row) for row in probe])
        assert boost.raw_scores(probe).tobytes() == scores.tobytes()


def _depth(tree, node=0):
    if tree.feature[node] == -1:
        return 0
    return 1 + max(_depth(tree, tree.left[node]), _depth(tree, tree.right[node]))


def _stack_preorder(levels, leaf_of_row):
    """The per-node stack walk grow laid trees out with before they were
    kept flat: a list of _Preorder trees and each row's local leaf.
    Each level's splits have their children's ids added as grow added them."""
    base, linked = 0, []
    for tree, feature, threshold in levels:
        base += tree.size
        linked.append((tree, feature, threshold, base + 2 * (feature != -1).cumsum() - 2))
    tree, feature, threshold, left = (np.concatenate(a) for a in zip(*linked))
    split = feature != -1
    left = np.where(split, left, -1)
    walk, stack, links = [], list(range(leaf_of_row.shape[0] - 1, -1, -1)), left.tolist()
    while stack:
        walk.append(stack.pop())
        if links[walk[-1]] >= 0:
            stack += (links[walk[-1]] + 1, links[walk[-1]])
    walk = np.array(walk)
    at = np.empty(walk.size, dtype=np.int64)
    at[walk] = np.arange(walk.size)
    offset = at[:leaf_of_row.shape[0]]
    local = at - offset[tree]
    parts = [a[walk] for a in (feature, threshold, np.where(split, local[left], -1),
                               np.where(split, local[left + 1], -1))]
    bounds = offset.tolist() + [walk.size]
    trees = [_Preorder(*(a[lo:hi] for a in parts), np.zeros(hi - lo))
             for lo, hi in zip(bounds, bounds[1:])]
    return trees, np.where(leaf_of_row >= 0, local[leaf_of_row], -1)


def _vote_per_tree(trees, leaf_of_row, weights, labels):
    """The per-tree loop rf set its leaf votes with: a leaf votes for its
    bootstrap majority, an exact tie positive. leaf_of_row is local."""
    for tree, leaf, w in zip(trees, leaf_of_row, weights):
        count, ones = (np.bincount(leaf[w > 0], x[w > 0], tree.value.size)
                       for x in (w, w * labels))
        tree.value[:] = (tree.feature == -1) & (2 * ones >= count)


def _flat_bytes(nodes):
    return [(a.dtype.str, np.ascontiguousarray(a).tobytes()) for a in (
        nodes.feature, nodes.threshold, nodes.value, nodes.bounds)]


class TestFlatLayout:
    """Grown trees stay flat: walked in preorder, bit for bit the trees of
    the per-node stack walk and per-tree vote loop they replaced."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Compares every _by_tree call with the stack walk; yields the count."""
        calls = []
        flat = forest._by_tree

        def spy(levels, leaf_of_row):
            nodes, leaf = flat(levels, leaf_of_row)
            trees, local = _stack_preorder(levels, leaf_of_row)
            bounds = np.cumsum([0] + [tree.feature.size for tree in trees])
            assert nodes.bounds.dtype == bounds.dtype and np.array_equal(nodes.bounds, bounds)
            assert leaf.dtype == local.dtype
            for tree, row_leaf, expected, expected_leaf, first in zip(
                    nodes.cut(len(trees)), leaf, trees, local, bounds.tolist()):
                walked, at = _preorder(tree)
                assert _tree_digest([walked]) == _tree_digest([expected])
                row_leaf = np.append(at, -1)[np.where(row_leaf >= 0, row_leaf - first, -1)]
                assert row_leaf.tobytes() == expected_leaf.tobytes()
            calls.append(len(trees))
            return nodes, leaf

        monkeypatch.setattr(forest, "_by_tree", spy)
        return calls

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_rf_batches_match_stack_walk(self, checked, max_depth):
        rng = np.random.default_rng(80)
        for case in range(12):
            n, d, trees = int(rng.integers(2, 60)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
            x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
            y = rng.integers(0, 2, n)
            weights = np.stack([np.bincount(rng.integers(0, n, n), minlength=n)
                                for _ in range(trees)])
            k = max(1, math.ceil(math.sqrt(d)))
            grow(x, presort(x), y,
                 lambda tree, index: np.argsort(rng.random((tree.size, d)), axis=1)[:, :k],
                 _neg_gini, -np.inf, weights, max_depth=max_depth)
        assert len(checked) == 12

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_gb_stacks_match_stack_walk(self, checked, max_depth):
        rng = np.random.default_rng(81)
        for case in range(12):
            runs, n, d = int(rng.integers(1, 6)), int(rng.integers(2, 50)), int(rng.integers(1, 6))
            x = np.round(rng.normal(size=(runs, n, d)), int(rng.integers(0, 3)))
            targets = rng.integers(0, 2, (runs, n)) - rng.uniform(0.2, 0.8, (runs, n))
            targets[0] = np.where(x[0, :, 0] > 0, 0.5, -0.5)  # run 0 closes at depth 1
            grow(x, presort(x), targets,
                 lambda tree, index: np.arange(d)[None].repeat(tree.size, axis=0),
                 _friedman_gain, _MIN_IMPROVEMENT, max_depth=max_depth)
        assert len(checked) == 12

    def test_children_are_implied_by_split_order(self):
        """Nodes stores no child links: a tree slice of s splits holds
        2s + 1 nodes, its k-th split's children sit at 2k + 1 and 2k + 2 of
        the slice, and walking a training row through them reaches the leaf
        grow gave that row."""
        assert [f.name for f in dataclasses.fields(Nodes)] == [
            "feature", "threshold", "value", "bounds"]
        rng = np.random.default_rng(83)
        for case in range(12):
            n, d, trees = int(rng.integers(2, 60)), int(rng.integers(1, 7)), int(rng.integers(1, 9))
            x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
            weights = np.stack([np.bincount(rng.integers(0, n, n), minlength=n)
                                for _ in range(trees)])
            nodes, leaf_of_row = grow(x, presort(x), rng.integers(0, 2, n),
                                      lambda tree, index: np.argsort(rng.random((tree.size, d)),
                                                                     axis=1),
                                      _neg_gini, -np.inf, weights)
            for t, (lo, hi) in enumerate(zip(nodes.bounds[:-1], nodes.bounds[1:])):
                split = nodes.feature[lo:hi] != -1
                kid = 2 * split.cumsum() - 1  # the left child of each split
                assert hi - lo == 2 * split.sum() + 1
                assert np.all((kid[split] > np.flatnonzero(split)) & (kid[split] + 1 < hi - lo))
                for row in np.flatnonzero(weights[t]):
                    node = 0
                    while split[node]:
                        go_left = x[row, nodes.feature[lo + node]] <= nodes.threshold[lo + node]
                        node = kid[node] + (not go_left)
                    assert lo + node == leaf_of_row[t, row]

    def test_trainers_match_stack_walk_and_vote_loop(self, checked, monkeypatch):
        x, y = make_blobs(seed=82, n=178, d=22, sep=0.3, std=1.5)
        x = np.round(x, 1)
        batches, engine = [], forest.grow

        def spy(*args, **kwargs):
            nodes, leaf = engine(*args, **kwargs)
            batches.append((nodes, leaf, args[6]))
            return nodes, leaf

        monkeypatch.setattr(forest, "grow", spy)
        monkeypatch.setattr(forest, "_RF_ENTRIES", 40_000)  # batches of 10 trees
        model = train_random_forest(x, y, n_estimators=25, seed=3)
        assert len(batches) > 1
        for nodes, leaf, weights in batches:
            trees = [Nodes(tree.feature, tree.threshold, np.zeros(tree.value.size), tree.bounds)
                     for tree in nodes.cut(len(weights))]
            local = np.where(leaf >= 0, leaf - nodes.bounds[:-1, None], -1)
            _vote_per_tree(trees, local, weights, y)
            assert _flat_bytes(join(trees)) == _flat_bytes(nodes)
        assert _flat_bytes(model.nodes) == _flat_bytes(join([nodes for nodes, _, _ in batches]))
        monkeypatch.setattr(forest, "grow", engine)
        block = [(x[0:120:2], y[0:120:2]), (x[1:120:2], y[1:120:2])]
        fit_block(ClassifierSpec("gb", {"n_estimators": 5}), block)
        assert len(checked) == len(batches) + 5


class TestForestCost:
    """Guards on the shape of the work, not on time: a forest fit searches
    once per level of each batch, and its level arrays stay small."""

    @staticmethod
    def _bench_shaped():
        x, y = make_blobs(seed=66, n=178, d=22, sep=0.3, std=1.5)
        return x, y

    def test_one_search_per_level_of_each_batch(self, monkeypatch):
        x, y = self._bench_shaped()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[3].size)
            return best_splits(*args, **kwargs)

        monkeypatch.setattr(forest, "best_splits", spy)
        model = train_random_forest(x, y, seed=2)
        levels = 1 + max(_depth(tree) for tree in _trees(model.nodes))
        batches = math.ceil(100 / max(1, _RF_ENTRIES // (178 * 22)))
        assert len(calls) <= levels * batches
        # each call covers many nodes: every split node was searched
        assert sum(calls) >= sum(int(np.sum(t.feature != -1)) for t in _trees(model.nodes))

    def test_fit_memory_peak(self):
        x, y = self._bench_shaped()
        train_random_forest(x, y, n_estimators=5, seed=1)  # warm caches
        tracemalloc.start()
        try:
            train_random_forest(x, y, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


class TestForestDraws:
    """Seed protocol 3's draws, keyed by (rf seed, tree, breadth-first index),
    make every column a candidate equally often."""

    def test_every_column_drawn_at_k_over_d(self, monkeypatch):
        x, y = TestForestCost._bench_shaped()
        d, k, per_tree = 22, 5, 4000
        drawn, engine = [], forest.grow

        def spy(*args, **kwargs):
            if not drawn:  # the fit's columns callback, on many (tree, index) keys
                trees = len(args[6])
                drawn.append(args[3](np.arange(trees).repeat(per_tree),
                                     np.tile(np.arange(per_tree), trees)))
            return engine(*args, **kwargs)

        monkeypatch.setattr(forest, "grow", spy)
        train_random_forest(x, y, seed=7)
        (candidates,) = drawn
        nodes = candidates.shape[0]
        assert candidates.shape == (nodes, k) and nodes >= 10 * per_tree
        assert np.all(np.diff(np.sort(candidates, axis=1), axis=1) > 0)  # k distinct columns
        # a rate's binomial standard deviation is under 0.0015 here; allow 4 of them
        rate = np.bincount(candidates.ravel(), minlength=d) / nodes
        assert np.all(np.abs(rate - k / d) < 0.006)
        first = np.bincount(candidates[:, 0], minlength=d) / nodes
        assert np.all(np.abs(first - 1 / d) < 0.003)


class TestBoostingEngine:
    """gb stages grow through the shared level engine: bit for bit the trees
    of a one-node-at-a-time reference, with one search per level."""

    def test_bench_shaped_trees_bit_identical(self):
        # pinned before the engine's per-level work was cut
        x, y = TestForestCost._bench_shaped()
        model = _gb(np.round(x, 1), y)
        assert _tree_digest(_trees(model.nodes)) == (
            "46bcf7433c17f695115fa33b91b9a6ffa5f6c46cd1d555a9cf56c8f9fbc6198c")

    def test_matches_reference_tree(self):
        rng = np.random.default_rng(67)
        mixed = 0
        for case in range(30):
            n, d = int(rng.integers(2, 90)), int(rng.integers(1, 8))
            x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
            if case % 2:  # few distinct targets: pure nodes beside impure ones
                targets = 0.5 * rng.integers(-1, 2, n)
            else:
                targets = rng.integers(0, 2, n) - rng.uniform(0.2, 0.8, n)
            for max_depth in (3, None):
                nodes, (leaf_of_row,) = grow(
                    x, presort(x), targets,
                    lambda tree, index: np.arange(d)[None].repeat(tree.size, axis=0),
                    _friedman_gain, _MIN_IMPROVEMENT, max_depth=max_depth)
                tree, at = _preorder(nodes)
                expected, expected_leaf_of_row, levels_mixed = _reference_boost_tree(
                    x, targets, max_depth)
                assert _tree_digest([tree]) == _tree_digest([expected])
                assert at[leaf_of_row].tobytes() == expected_leaf_of_row.tobytes()
                mixed += levels_mixed
        assert mixed > 0  # some levels searched open nodes next to closed ones

    def test_one_search_per_level_of_each_stage(self, monkeypatch):
        x, y = TestForestCost._bench_shaped()
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[3].size)
            return best_splits(*args, **kwargs)

        monkeypatch.setattr(forest, "best_splits", spy)
        _gb(x, y, n_estimators=20, max_depth=3)
        assert 20 <= len(calls) <= 3 * 20


class TestBoostingBlock:
    """One stacked call gives each run of a block the bytes of its own fit:
    every tree's arrays and the base score."""

    @staticmethod
    def _bytes(model):
        return model.base_score.hex(), [_tree_digest([tree]) for tree in _trees(model.nodes)]

    def _assert_runs_match(self, block, params=None):
        spec = ClassifierSpec("gb", params or {})
        models = fit_block(spec, block)
        assert len(models) == len(block)
        for model, train in zip(models, block):
            assert self._bytes(model) == self._bytes(fit(spec, train))
        return models

    @staticmethod
    def _block(seed, runs, n=40, d=4):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(runs, n, d)), 2)
        y = rng.integers(0, 2, size=(runs, n))
        y[:, :2] = (0, 1)
        return x, y

    def test_runs_closing_at_different_depths(self):
        x, y = self._block(71, 3)
        y[0] = x[0, :, 0] > 0  # one split separates run 0: its leaves close at depth 1
        models = self._assert_runs_match([(x[t], y[t]) for t in range(3)])
        assert _depth(_trees(models[0].nodes)[0]) == 1 < _depth(_trees(models[1].nodes)[0])

    def test_tied_and_constant_columns(self):
        x, y = self._block(72, 4)
        x[:, :, 1] = np.round(x[:, :, 1])
        x[:, :, 2] = 1.0
        x[2, :, 3] = x[2, 0, 3]  # constant in one run only
        self._assert_runs_match([(x[t], y[t]) for t in range(4)])

    def test_hyperparameter_override(self):
        x, y = self._block(73, 3, n=30)
        models = self._assert_runs_match([(x[t], y[t]) for t in range(3)],
                                         {"n_estimators": 7, "max_depth": 5})
        assert all(len(_trees(model.nodes)) == 7 for model in models)
        assert max(_depth(tree) for model in models for tree in _trees(model.nodes)) > 3

    def test_block_of_one(self):
        x, y = make_blobs(seed=74, n=60, d=5, sep=0.4, std=1.3)
        (model,) = self._assert_runs_match([(x, y)])
        assert model.meta.kind == "gb" and model.meta.train_ms > 0.0

    def test_runs_share_the_call_time(self):
        x, y = self._block(75, 3)
        models = fit_block(ClassifierSpec("gb", {"n_estimators": 3}),
                           [(x[t], y[t]) for t in range(3)])
        assert len({model.meta.train_ms for model in models}) == 1

    def test_unequal_shapes_refused(self):
        x, y = self._block(76, 2)
        spec = ClassifierSpec("gb")
        with pytest.raises(DimensionMismatch):
            fit_block(spec, [(x[0], y[0]), (x[1, :-2], y[1, :-2])])
        with pytest.raises(DimensionMismatch):
            fit_block(spec, [(x[0], y[0]), (x[1, :, :-1], y[1])])

    def test_each_run_passes_the_fit_checks(self):
        x, y = self._block(77, 2)
        with pytest.raises(DegenerateData):
            fit_block(ClassifierSpec("gb"), [(x[0], y[0]), (x[1], np.zeros(40, dtype=int))])
        with pytest.raises(UsageError):
            fit_block(ClassifierSpec("gb", {"max_depth": 0}), [(x[0], y[0])])


def _reference_boost_tree(features, targets, max_depth=None):
    """One gb stage, one node at a time: breadth-first, a node shallower
    than max_depth whose targets differ splits by _loop_split over every column.
    Laid out in preorder like _reference_forest, leaf values 0; returns
    (tree, leaf_of_row, levels holding both closed and open nodes)."""
    n, d = features.shape
    root, mixed = {"rows": np.arange(n)}, 0
    level, depth = [root], 0
    while level:
        opened = [node for node in level if depth != max_depth
                  and targets[node["rows"]].min() < targets[node["rows"]].max()]
        mixed += 0 < len(opened) < len(level)
        level, depth = [], depth + 1
        for node in opened:
            split = _loop_split(features, targets, node["rows"], np.arange(d),
                                _friedman_gain, _MIN_IMPROVEMENT)
            if split is not None:
                go_left = features[node["rows"], split[0]] <= split[1]
                node["split"], node["kids"] = split, [{"rows": node["rows"][side]}
                                                      for side in (go_left, ~go_left)]
                level += node["kids"]
    arrays, leaf_of_row = ([], [], [], []), np.empty(n, dtype=np.int64)

    def visit(node):
        at = len(arrays[0])
        for column, empty in zip(arrays, (-1, 0.0, -1, -1)):
            column.append(empty)
        if "split" in node:
            arrays[0][at], arrays[1][at] = node["split"]
            arrays[2][at], arrays[3][at] = visit(node["kids"][0]), visit(node["kids"][1])
        else:
            leaf_of_row[node["rows"]] = at
        return at

    visit(root)
    tree = _Preorder(*(np.asarray(a, dtype=t) for a, t in zip(arrays, (np.int64, np.float64,
                                                                       np.int64, np.int64))),
                     np.zeros(len(arrays[0])))
    return tree, leaf_of_row, mixed


def _flat_gain(left_sum, right_sum, n_left, n_right):
    return np.zeros(np.broadcast_shapes(left_sum.shape, n_left.shape))


def _mean_leaf(targets):
    return lambda rows: float(targets[rows].mean())


def best_split(features, targets, rows, columns, gain, floor):
    """One node's split through the level search: rows (sorted) in each
    candidate column's presorted order, the candidates in `columns`."""
    layout = rows[np.argsort(features[rows][:, columns].T, axis=1, kind="mergesort")]
    vals = np.take_along_axis(features[:, columns].T, layout, axis=1)
    slot, threshold = best_splits(targets, layout, vals, np.array([rows.size]), gain, floor)
    return None if slot[0] < 0 else (int(columns[slot[0]]), float(threshold[0]))


def _grow_one(features, targets, leaf_value, gain, floor):
    """One tree on every row with every column; leaves take leaf_value(rows)."""
    d = features.shape[1]
    tree, (leaf_of_row,) = grow(features, presort(features), targets,
                                lambda tree, index: np.broadcast_to(np.arange(d), (tree.size, d)),
                                gain, floor)
    for node in np.flatnonzero(tree.feature == -1):
        tree.value[node] = leaf_value(np.flatnonzero(leaf_of_row == node))
    return tree, leaf_of_row


def _loop_split(features, targets, rows, columns, gain, floor):
    """Per-column scan, one feature at a time: the reference that
    best_split must match bit for bit."""
    best = None
    for f in columns:
        order = np.argsort(features[rows, f], kind="mergesort")
        v, t = features[rows, f][order], targets[rows][order]
        boundaries = np.flatnonzero(v[1:] > v[:-1])
        if boundaries.size == 0:
            continue
        left_sum = np.cumsum(t)[boundaries]
        n_left = (boundaries + 1).astype(np.float64)
        gains = gain(left_sum, t.sum() - left_sum, n_left, v.size - n_left)
        i = int(np.argmax(gains))
        if gains[i] > floor and (best is None or gains[i] > best[0]):
            b = boundaries[i]
            threshold = 0.5 * (v[b] + v[b + 1])
            if not v[b] <= threshold < v[b + 1]:
                threshold = v[b]
            best = (gains[i], int(f), float(threshold))
    return None if best is None else best[1:]


class TestSplitSearch:
    def test_matches_per_column_reference(self):
        rng = np.random.default_rng(62)
        for case in range(30):
            n, d = int(rng.integers(2, 80)), int(rng.integers(1, 8))
            x = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
            y = rng.integers(0, 2, n)
            residuals = y - rng.uniform(0.2, 0.8, n)
            rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
            columns = rng.permutation(d)[:int(rng.integers(1, d + 1))]
            for targets, gain, floor in ((y, _neg_gini, -np.inf),
                                         (residuals, _friedman_gain, _MIN_IMPROVEMENT)):
                expected = _loop_split(x, targets, rows, columns, gain, floor)
                assert best_split(x, targets, rows, columns, gain, floor) == expected

    def test_equal_gains_take_first_candidate_column(self):
        x = np.array([[0.0, 5.0, 0.0], [1.0, 6.0, 1.0], [2.0, 7.0, 2.0]])
        rows = np.arange(3)
        targets = np.array([0, 1, 0])
        assert best_split(x, targets, rows, np.array([2, 1, 0]), _flat_gain, -np.inf) == (2, 0.5)
        assert best_split(x, targets, rows, np.array([1, 0, 2]), _flat_gain, -np.inf) == (1, 5.5)

    def test_equal_gains_take_first_boundary(self):
        # cutting after the first or after the third row leaves the same Gini
        x = np.array([[3.0], [0.0], [2.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        assert best_split(x, y, np.arange(4), np.array([0]), _neg_gini, -np.inf) == (0, 0.5)

    def test_identical_columns_tie_to_first_drawn(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        for order in ([0, 1], [1, 0]):
            feature, threshold = best_split(x, y, np.arange(4), np.array(order), _neg_gini, -np.inf)
            assert (feature, threshold) == (order[0], 1.5)

    def test_no_boundary_means_no_split(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1, 1])
        assert best_split(x, y, np.arange(3), np.array([0, 1]), _neg_gini, -np.inf) is None

    def test_adjacent_floats_split_at_left_value(self):
        # odd last mantissa bit: the midpoint rounds up onto the right value
        v = np.nextafter(1.0, 2.0)
        hi = np.nextafter(v, np.inf)
        assert 0.5 * (v + hi) == hi
        x = np.array([[hi], [v]])
        y = np.array([1, 0])
        assert best_split(x, y, np.arange(2), np.array([0]), _neg_gini, -np.inf) == (0, v)
        tree, leaf_of_row = _grow_one(x, y, lambda rows: float(y[rows][0]), _neg_gini, -np.inf)
        assert tree.threshold[0] == v
        assert np.array_equal(leaf_values(tree, x)[0], [1.0, 0.0])
        assert leaf_of_row[0] != leaf_of_row[1]

    def test_friedman_gain_at_floor_makes_a_leaf(self):
        x = np.array([[0.0], [1.0]])
        # splitting two rows one step apart gains step**2 / 2
        flat = np.array([0.0, 1e-6])
        assert _friedman_gain(0.0, 1e-6, 1.0, 1.0) <= _MIN_IMPROVEMENT
        tree, leaf_of_row = _grow_one(x, flat, _mean_leaf(flat), _friedman_gain,
                                      _MIN_IMPROVEMENT)
        assert tree.feature.tolist() == [-1]
        assert np.array_equal(leaf_of_row, [0, 0])

        def at_floor(*sums):
            return _flat_gain(*sums) + _MIN_IMPROVEMENT

        assert best_split(x, flat, np.arange(2), np.array([0]), at_floor,
                          _MIN_IMPROVEMENT) is None
        steep = np.array([0.0, 2e-6])
        tree, leaf_of_row = _grow_one(x, steep, _mean_leaf(steep), _friedman_gain,
                                      _MIN_IMPROVEMENT)
        assert tree.feature.tolist() == [0, -1, -1]
        assert np.array_equal(tree.value[leaf_of_row], steep)

    def test_leaf_of_row_matches_prediction(self):
        x, y = make_blobs(seed=61, n=60, d=4, sep=0.4, std=1.5)
        residuals = y - y.mean()
        tree, leaf_of_row = _grow_one(x, residuals, _mean_leaf(residuals), _friedman_gain,
                                      _MIN_IMPROVEMENT)
        assert np.array_equal(tree.value[leaf_of_row], leaf_values(tree, x)[0])
        assert np.all(tree.feature[leaf_of_row] == -1)


def _boolean_indexed_sigmoid(t):
    """The earlier sigmoid: four boolean-indexed temporaries, kept as reference."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    """dnn calls sigmoid every step and gb every stage; its bytes are pinned
    to the boolean-indexed formula it replaced."""

    def test_edges_match_reference_bytes(self):
        nan = float("nan")
        t = np.array([0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, 800.0, -800.0,
                      np.inf, -np.inf, nan, -nan])
        with np.errstate(all="ignore"):
            assert sigmoid(t).tobytes() == _boolean_indexed_sigmoid(t).tobytes()

    @pytest.mark.parametrize("size", [32, 206, 100_000])
    def test_random_match_reference_bytes(self, size):
        t = np.random.default_rng(size).normal(0.0, 20.0, size=size)
        out = sigmoid(t)
        assert out.tobytes() == _boolean_indexed_sigmoid(t).tobytes()
        assert np.all((out >= 0.0) & (out <= 1.0))
