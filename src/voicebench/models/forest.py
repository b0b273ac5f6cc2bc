"""Random forest of Gini-split CART trees on bootstrap samples.

Each tree draws a bootstrap of the training rows, then at every node
samples ceil(sqrt(d)) candidate features without replacement and takes the
threshold minimizing weighted Gini impurity. Trees grow until nodes are
pure, have fewer than two rows, or no sampled feature separates the rows.
Draw order is fixed (per tree: bootstrap, then node draws in preorder), so
one seed fully determines the forest.

The CART engine (grow, best_split) is shared with gradient boosting, which
plugs in its own split gain, candidate columns and leaf values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainMeta, check_predict_input

_LEAF = -1


@dataclass
class Tree:
    """Flat array form; feature == -1 marks a leaf and value holds its vote."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict_value(self, features: np.ndarray) -> np.ndarray:
        n = features.shape[0]
        node = np.zeros(n, dtype=np.int64)
        active = self.feature[node] != _LEAF
        while np.any(active):
            rows = np.flatnonzero(active)
            cur = node[rows]
            go_left = features[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
            active[rows] = self.feature[node[rows]] != _LEAF
        return self.value[node]


def best_split(features, targets, rows, columns, gain, floor: float):
    """Best (feature, threshold) for a node's rows over every candidate
    column at once, or None when no boundary's gain exceeds floor.

    gain(left_sum, right_sum, n_left, n_right) scores each boundary of the
    (k, m) block of sorted columns from the target sums on either side. Ties
    resolve to the first candidate column, then to the first boundary.
    """
    block = features[np.ix_(rows, columns)].T
    order = np.argsort(block, axis=1, kind="mergesort")
    v = np.take_along_axis(block, order, axis=1)
    t = targets[rows][order]
    m = rows.size
    left_sum = np.cumsum(t, axis=1)[:, :-1]
    # row sums of the C-contiguous block stay numpy's pairwise sum per column
    right_sum = t.sum(axis=1)[:, None] - left_sum
    n_left = np.arange(1.0, m)
    gains = gain(left_sum, right_sum, n_left, m - n_left)
    gains = np.where(v[:, 1:] > v[:, :-1], gains, -np.inf)  # boundaries only
    best = int(np.argmax(gains))
    if not gains.flat[best] > floor:
        return None
    col, b = divmod(best, m - 1)
    lo, hi = v[col, b], v[col, b + 1]
    threshold = 0.5 * (lo + hi)
    # midpoint of adjacent floats can round onto the right value; fall back
    # to the left value so the comparison still separates the two rows
    if not lo <= threshold < hi:
        threshold = lo
    return int(columns[col]), float(threshold)


def grow(features, targets, columns, leaf_value, gain, floor: float):
    """Grow one CART tree on every row; returns (tree, leaf_of_row).

    columns(rows, depth) gives a node's candidate features, or None to make
    it a leaf worth leaf_value(rows); splits come from best_split. The
    explicit stack (deep trees overflow recursion) pops left children first,
    so nodes, and any rng draws inside columns, follow a recursive preorder.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of_row = np.empty(targets.size, dtype=np.int64)
    stack = [(np.arange(targets.size), -1, left, 0)]
    while stack:
        rows, parent, side, depth = stack.pop()
        node = len(feature)
        if parent >= 0:
            side[parent] = node
        candidates = columns(rows, depth)
        split = None if candidates is None else best_split(
            features, targets, rows, candidates, gain, floor)
        left.append(_LEAF)
        right.append(_LEAF)
        if split is None:
            feature.append(_LEAF)
            threshold.append(0.0)
            value.append(leaf_value(rows))
            leaf_of_row[rows] = node
        else:
            f, cut = split
            feature.append(f)
            threshold.append(cut)
            value.append(0.0)
            mask = features[rows, f] <= cut
            stack.append((rows[~mask], node, right, depth + 1))
            stack.append((rows[mask], node, left, depth + 1))
    tree = Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )
    return tree, leaf_of_row


def _neg_gini(left_pos, right_pos, n_left, n_right):
    """Minus the size-weighted Gini impurity of the two children."""
    p_l = left_pos / n_left
    p_r = right_pos / n_right
    gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
    gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
    return -(n_left * gini_l + n_right * gini_r) / (n_left + n_right)


def _majority(labels: np.ndarray) -> float:
    ones = int(labels.sum())
    zeros = labels.size - ones
    if ones == zeros:
        return 1.0  # exact tie resolves to the positive class
    return 1.0 if ones > zeros else 0.0


@dataclass
class ForestModel:
    trees: list
    n_features: int
    meta: TrainMeta = field(default=None)

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.n_features)
        if features.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        votes = np.zeros(features.shape[0])
        for tree in self.trees:
            votes += tree.predict_value(features)
        # vote ties resolve to the positive class
        return (2 * votes >= len(self.trees)).astype(np.int64)


def train_random_forest(
    features: np.ndarray,
    labels: np.ndarray,
    n_estimators: int = 100,
    seed: int = 0,
) -> ForestModel:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = features.shape
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    rng = np.random.default_rng(seed)

    trees = []
    for _ in range(n_estimators):
        bootstrap = rng.integers(0, n, size=n)
        y = labels[bootstrap]

        def columns(rows, depth):
            # draw only for impure nodes, keeping the rng stream in preorder
            ones = int(y[rows].sum())
            if 0 < ones < rows.size:
                return rng.choice(d, size=n_candidates, replace=False)
            return None

        tree, _ = grow(features[bootstrap], y, columns,
                       lambda rows: _majority(y[rows]), _neg_gini, -np.inf)
        trees.append(tree)
    meta = TrainMeta(kind="rf")
    return ForestModel(trees=trees, n_features=d, meta=meta)
