"""Random forest of Gini-split CART trees on bootstrap samples, and the
level-wise CART engine it shares with gradient boosting.

The engine presorts each column once per fit (mergesort: ties keep row
order) and grows a batch of trees one depth level at a time. One segmented
search (best_splits) covers every open node of the level, and children
inherit stable partitions of their parent's presorted rows.

Seed protocol 2: one rng.integers call draws every bootstrap. Trees grow
in batches of max(1, _LEVEL_ENTRIES // (n * d)); at each level one
rng.random draw ranks the columns of every impure node, in (tree,
breadth-first) order, and a node's first ceil(sqrt(d)) are its candidates.
Minimal weighted Gini impurity wins, ties going to the first candidate,
then the first boundary; a node stays a leaf once it is pure or no
candidate separates its rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import TrainMeta, check_predict_input

_LEAF = -1
# Row entries (trees x rows x columns) of a forest batch: caps a fit's
# working memory near 1 MB (10 trees on a 178 x 22 table). The draws
# follow the batches, so changing it changes every forest.
_LEVEL_ENTRIES = 40_000


@dataclass
class Tree:
    """Flat array form; feature == -1 marks a leaf and value holds its vote."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict_value(self, features: np.ndarray) -> np.ndarray:
        return leaf_values([self], features)[0]


def leaf_values(trees, features: np.ndarray) -> np.ndarray:
    """(trees, rows) value of the leaf each row reaches in each tree; all
    trees walk at once, one depth level per step. x <= threshold goes left."""
    if not trees:
        return np.zeros((0, features.shape[0]))
    base = np.cumsum([0] + [tree.feature.size for tree in trees[:-1]])
    feature, threshold, value, left, right = (
        np.concatenate([getattr(tree, name) + (b if name in ("left", "right") else 0)
                        for tree, b in zip(trees, base)])
        for name in ("feature", "threshold", "value", "left", "right"))
    leaf = feature == _LEAF
    left[leaf] = right[leaf] = np.flatnonzero(leaf)  # a row at a leaf stays there
    node = np.repeat(base[:, None], features.shape[0], axis=1)
    while not leaf[node].all():
        go_left = features[np.arange(features.shape[0]), feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return value[node]


def presort(features: np.ndarray) -> np.ndarray:
    """(d, n) rows of each column in increasing value; ties in row order."""
    order = np.argsort(features.T, axis=1, kind="mergesort")
    return order.astype(np.min_scalar_type(features.shape[0] - 1))


def _segment_sums(values, first, size):
    """Running sums and totals along axis 1 per node segment [first, first
    + size). Integer sums are exact in any order, so they run flat; a float
    segment gets a cumsum and numpy's pairwise sum of exactly its values."""
    if values.dtype.kind != "f":
        running = values.cumsum(axis=1)
        end = running[:, first + size - 1]
        totals = np.diff(end, axis=1, prepend=0)
        running -= np.repeat(end - totals, size, axis=1)
        return running, totals
    running, totals = np.empty_like(values), np.empty((values.shape[0], size.size))
    for j, (a, b) in enumerate(zip(first.tolist(), (first + size).tolist())):
        np.cumsum(values[:, a:b], axis=1, out=running[:, a:b])
        totals[:, j] = values[:, a:b].sum(axis=1)
    return running, totals


def best_splits(features, targets, rows, start, size, candidates, gain, floor: float,
                weights=None, tree=None):
    """(feature, threshold) of each node's best split; feature -1 where no
    gain(left_sum, right_sum, n_left, n_right) exceeds floor. rows (d, R)
    holds each column's presorted rows node after node; node j (2+ rows)
    sits at [start, start + size), tries candidates[j], and counts a row
    weights[tree[j], row] times (or once)."""
    n = features.shape[0]
    first = size.cumsum() - size
    nd = np.repeat(np.arange(size.size), size)
    span = np.arange(nd.size)
    # (k, width): row i holds every node's rows sorted by its i-th candidate,
    # in C order so each node's sums stay pairwise per column
    col = candidates[nd].T.copy()
    r = rows.ravel()[col * rows.shape[1] + (span + (start - first)[nd])]
    v = features.T.ravel()[col * n + r]
    del col
    if weights is None:
        left_sum, total = _segment_sums(targets[r], first, size)
        n_left, n_all = span + 1 - first[nd], size
    else:
        w = weights.ravel()[r + (tree * n)[nd]]
        left_sum, total = _segment_sums(w * targets[r], first, size)
        n_left, n_all = _segment_sums(w, first, size)
        del w
    del r
    boundary = np.zeros(v.shape, dtype=bool)
    np.greater(v[:, 1:], v[:, :-1], out=boundary[:, :-1])
    boundary[:, first + size - 1] = False
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right is 0 at node ends
        gains = gain(left_sum, np.repeat(total, size, axis=1) - left_sum,
                     n_left, np.repeat(n_all, size, axis=-1) - n_left)
    gains[~boundary] = -np.inf
    best = np.maximum.reduceat(gains, first, axis=1).max(axis=0)
    # first maximum in (candidate, boundary) order: the smallest flat index
    at = np.arange(gains.size).reshape(gains.shape)
    e = np.minimum.reduceat(np.where(gains == best[nd], at, gains.size), first, axis=1).min(axis=0)
    e = np.minimum(e, v.size - 2)
    lo, hi = v.ravel()[e], v.ravel()[e + 1]
    cut = 0.5 * (lo + hi)
    # a midpoint of adjacent floats can round onto the right value; the
    # left value then still separates the two rows
    cut = np.where((lo <= cut) & (cut < hi), cut, lo)
    split = best > floor
    feature = candidates[np.arange(size.size), e // span.size]
    return np.where(split, feature, _LEAF), np.where(split, cut, 0.0)


def grow(features, order, targets, columns, gain, floor: float, weights=None,
         max_depth=None):
    """Grow one tree per row of integer weights (one on every row without);
    returns (trees with leaf values 0, leaf_of_row: each row's leaf or -1).
    Nodes below max_depth whose targets differ are searched, with
    columns(count) giving their candidates in (tree, breadth-first) order."""
    d, n = order.shape
    if weights is None:
        rows, size, node_of = order, np.array([n]), np.zeros(n, dtype=np.int64)
    else:
        present = (weights > 0)[:, order].transpose(1, 0, 2)  # (d, trees, n)
        rows = np.extract(present, np.broadcast_to(order[:, None], present.shape)).reshape(d, -1)
        size = np.count_nonzero(present[0], axis=1)
        node_of = np.where(weights > 0, np.arange(size.size)[:, None], -1).ravel()
    n_trees = size.size
    tree = np.arange(n_trees)  # a level's nodes in (tree, breadth-first) order
    levels, base = [], 0
    while True:
        feature, threshold = np.full(tree.size, _LEAF), np.zeros(tree.size)
        if len(levels) != max_depth:
            start = size.cumsum() - size
            y = targets[rows[0]]
            open_ = np.flatnonzero(np.minimum.reduceat(y, start) < np.maximum.reduceat(y, start))
            if open_.size:
                feature[open_], threshold[open_] = best_splits(
                    features, targets, rows, start[open_], size[open_], columns(open_.size),
                    gain, floor, weights, tree[open_])
        split = feature != _LEAF
        base += tree.size
        rank = split.cumsum() - 1  # children of a level's q-th split: 2q, 2q + 1
        levels.append((tree, feature, threshold, np.where(split, base + 2 * rank, _LEAF)))
        if not split.any():
            return _preorder(levels, node_of.reshape(n_trees, n))
        seg = np.repeat(np.arange(tree.size), size)
        s0, r0 = seg[split[seg]], rows[0][split[seg]]
        child = 2 * rank[s0] + ~(features[r0, feature[s0]] <= threshold[s0])
        at = tree[s0] * n + r0
        node_of[at] = base + child
        if len(levels) != max_depth:
            # stable partition of every column by child; leaf rows sort last
            leaf_key = 2 * rank[-1] + 2
            key = np.full(n_trees * n, leaf_key, dtype=np.min_scalar_type(leaf_key))
            key[at] = child
            key = key[rows + (tree * n)[seg]].argsort(axis=1, kind="stable")
            key += rows.shape[1] * np.arange(d)[:, None]
            rows = rows.ravel()[key[:, :s0.size]]
            size = np.bincount(child, minlength=leaf_key)
            del key
        tree = np.repeat(tree[split], 2)


def _preorder(levels, leaf_of_row):
    """Per-tree arrays in preorder (node, left subtree, right subtree)."""
    tree, feature, threshold, left = (np.concatenate(a) for a in zip(*levels))
    walk, stack, links = [], list(range(leaf_of_row.shape[0] - 1, -1, -1)), left.tolist()
    while stack:
        walk.append(stack.pop())
        if links[walk[-1]] >= 0:
            stack += (links[walk[-1]] + 1, links[walk[-1]])
    at = np.empty(len(walk), dtype=np.int64)
    at[walk] = np.arange(len(walk))
    offset = at[:leaf_of_row.shape[0]]  # the first level holds the roots
    local = at - offset[tree]
    split = left != _LEAF
    parts = [a[walk] for a in (feature, threshold, np.where(split, local[left], _LEAF),
                               np.where(split, local[left + 1], _LEAF))]
    bounds = offset.tolist() + [len(walk)]
    trees = [Tree(*(a[lo:hi] for a in parts), np.zeros(hi - lo))
             for lo, hi in zip(bounds, bounds[1:])]
    return trees, np.where(leaf_of_row >= 0, local[leaf_of_row], -1)


def _neg_gini(left_pos, right_pos, n_left, n_right):
    """Minus the size-weighted Gini impurity of the two children."""
    p_l = left_pos / n_left
    p_r = right_pos / n_right
    gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
    gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
    return -(n_left * gini_l + n_right * gini_r) / (n_left + n_right)


@dataclass
class ForestModel:
    trees: list
    n_features: int
    meta: TrainMeta = field(default=None)

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.n_features)
        votes = leaf_values(self.trees, features).sum(axis=0)
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
    order = presort(features)
    bootstraps = rng.integers(0, n, size=(n_estimators, n))

    def columns(count):
        return np.argsort(rng.random((count, d)), axis=1, kind="stable")[:, :n_candidates]

    trees, step = [], max(1, _LEVEL_ENTRIES // (n * d))
    for first in range(0, n_estimators, step):
        batch = bootstraps[first:first + step]
        weights = np.bincount((batch + n * np.arange(len(batch))[:, None]).ravel(),
                              minlength=batch.size).reshape(batch.shape)
        grown, leaf_of_row = grow(features, order, labels, columns, _neg_gini, -np.inf, weights)
        for tree, leaf, w in zip(grown, leaf_of_row, weights):
            # a leaf votes for its bootstrap majority; an exact tie votes positive
            count, ones = (np.bincount(leaf[w > 0], x[w > 0], tree.value.size)
                           for x in (w, w * labels))
            tree.value[:] = (tree.feature == _LEAF) & (2 * ones >= count)
        trees += grown
    return ForestModel(trees=trees, n_features=d, meta=TrainMeta(kind="rf"))
