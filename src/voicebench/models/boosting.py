"""Gradient boosting for binomial deviance with depth-limited trees.

Stage k grows one regression tree on the residual y - sigmoid(F) with the
level-wise CART engine of the random forest, using the Friedman
improvement criterion n_l*n_r/(n_l+n_r) * (mean_l - mean_r)^2 over every
column. The root presort is made once and shared by all stages, since the
root rows never change. Each leaf value is a one-step Newton update
sum(residual) / sum(p*(1-p)) over the leaf's rows in row-index order.
Scores advance by learning_rate times the leaf value. No subsampling
anywhere, so training is deterministic without a seed.

A block of runs with equal training shapes trains in one call: each stage
grows every run's tree in one engine call on the stacked runs, and no sum
crosses runs, so each run gets the bytes of its own fit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import TrainMeta, check_predict_input, sigmoid
from .forest import Nodes, grow, join, leaf_values, presort

_MIN_IMPROVEMENT = 1e-12
_NEWTON_FLOOR = 1e-150


def _friedman_gain(left_sum, right_sum, n_left, n_right):
    """Friedman improvement n_l*n_r/(n_l+n_r) * (mean_l - mean_r)^2."""
    return n_left * n_right / (n_left + n_right) * (left_sum / n_left - right_sum / n_right) ** 2


@dataclass
class BoostModel:
    base_score: float
    nodes: Nodes
    learning_rate: float
    n_features: int
    meta: TrainMeta = field(default=None)

    def raw_scores(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.n_features)
        steps = self.learning_rate * leaf_values(self.nodes, features)
        # added onto the base score tree after tree: a running sum fixes the float order
        start = np.full((1, features.shape[0]), self.base_score)
        return np.add.accumulate(np.concatenate([start, steps]))[-1]

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.raw_scores(features) >= 0.0).astype(np.int64)


def train_gradient_boosting_block(features, labels, n_estimators: int = 100,
                                  learning_rate: float = 0.1,
                                  max_depth: int = 3) -> list[BoostModel]:
    """One BoostModel per run of a stack, (R, n, d) features and (R, n)
    labels, each equal to the run's fit in a block of one: every stage
    grows the R runs' trees in one engine call."""
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    runs, n, d = features.shape
    # both classes present per fit contract
    base = [float(np.log(p / (1.0 - p))) for p in y.mean(axis=1).tolist()]
    order = presort(features)

    every_column = np.arange(d)[None]

    def columns(tree, index):
        return every_column.repeat(tree.size, axis=0)

    scores = np.array(base)[:, None].repeat(n, axis=1)
    stages = []
    for _ in range(n_estimators):
        probs = sigmoid(scores)
        residuals = y - probs
        nodes, leaf_of_row = grow(features, order, residuals, columns, _friedman_gain,
                                  _MIN_IMPROVEMENT, max_depth=max_depth)
        # node after node, each leaf's rows in row-index order (C order: pairwise sums)
        leaf = leaf_of_row.ravel()
        rh = np.array((residuals, probs * (1.0 - probs))).reshape(2, -1).take(
            leaf.argsort(kind="stable"), axis=1)
        ends = np.bincount(leaf, minlength=nodes.value.size).cumsum().tolist()
        value = nodes.value
        for node, lo, hi in zip(range(len(ends)), [0] + ends, ends):
            if hi > lo:
                r, h = rh[:, lo:hi].sum(axis=1).tolist()
                value[node] = 0.0 if h < _NEWTON_FLOOR else r / h
        stages.append(nodes)
        # train rows take their leaf's Newton value without re-traversing
        scores = scores + learning_rate * value[leaf].reshape(runs, n)

    # stage after stage, run after run within a stage -> run after run
    by_run = np.arange(n_estimators * runs).reshape(n_estimators, runs).T.ravel()
    return [BoostModel(base_score=b, nodes=nodes, learning_rate=learning_rate,
                       n_features=d, meta=TrainMeta(kind="gb"))
            for b, nodes in zip(base, join(stages, by_run).cut(runs))]
