"""Random forest of Gini-split CART trees on bootstrap samples, and the
level-wise CART engine it shares with gradient boosting.

The engine presorts each column once per fit (mergesort: ties keep row
order) into intp row ids and the sorted values they hold, and grows a batch
of trees one depth level at a time. One segmented search (best_splits)
covers every open node of the level: it reads the layout as it stands when
every node is open and every column a candidate (gradient boosting), and
gathers each node's candidates otherwise. Children inherit stable
partitions of their parent's ids and values, carried together.

Seed protocol 2: one rng.integers call draws every bootstrap. Trees grow
in batches of max(1, _LEVEL_ENTRIES // (n * d)); at each level one
rng.random draw ranks the columns of every impure node, in (tree,
breadth-first) order, and a node's first ceil(sqrt(d)) are its candidates.
Minimal weighted Gini impurity wins, ties going to the first candidate,
then the first boundary; a node stays a leaf once it is pure or no
candidate separates its rows.

Fitted trees stay flat (Nodes): one set of node arrays, trees end to end,
each tree's nodes in the breadth-first order grow makes them. A tree's k-th
split has its children at 2k + 1 and 2k + 2 of the tree, so no child link
is stored. leaf_values walks every tree at once, so neither the engine nor
prediction takes a Python step per tree or per node.
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


_ARRAYS = ("feature", "threshold", "value")


@dataclass
class Nodes:
    """Trees end to end, each breadth-first: tree t holds nodes bounds[t] to
    bounds[t + 1], and its k-th split (counting from 0) has its children at
    2k + 1 (left) and 2k + 2 of the tree, so a tree of s splits holds
    2s + 1 nodes and cut(trees) gives each tree's own Nodes. feature == -1
    marks a leaf, and value holds its vote or score."""

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    bounds: np.ndarray

    def cut(self, count: int) -> list[Nodes]:
        """count Nodes of equal tree counts, in order, viewing these arrays."""
        step = (self.bounds.size - 1) // count
        out = []
        for first in range(0, self.bounds.size - 1, step):
            lo, hi = self.bounds[first], self.bounds[first + step]
            out.append(Nodes(*(getattr(self, name)[lo:hi] for name in _ARRAYS),
                             self.bounds[first:first + step + 1] - lo))
        return out


def join(parts, order=None) -> Nodes:
    """The trees of parts end to end, or the order-th of them (indices into
    that sequence) in turn."""
    arrays = [np.concatenate([getattr(part, name) for part in parts]) for name in _ARRAYS]
    size = np.concatenate([np.diff(part.bounds) for part in parts])
    if order is not None:
        first, size = (size.cumsum() - size)[order], size[order]
        # each node moves by its tree's shift from its first node there to here
        at = np.arange(size.sum()) + np.repeat(first - (size.cumsum() - size), size)
        arrays = [a[at] for a in arrays]
    return Nodes(*arrays, np.concatenate([[0], size.cumsum()]))


def leaf_values(nodes: Nodes, features: np.ndarray) -> np.ndarray:
    """(trees, rows) value of the leaf each row reaches in each tree; all
    trees walk at once, one depth level per step. x <= threshold goes left,
    any other x (NaN too) right."""
    split = nodes.feature != _LEAF
    first = np.repeat(nodes.bounds[:-1], np.diff(nodes.bounds))
    before = split.cumsum() - split  # splits before each node
    # a split's left child, the right one next to it; a row at a leaf stays there
    left = np.where(split, first + 2 * (before - before[first]) + 1, np.arange(split.size))
    rows = np.arange(features.shape[0])
    node = np.repeat(nodes.bounds[:-1, None], rows.size, axis=1)
    while (inner := split[node]).any():
        right = ~(features[rows, nodes.feature[node]] <= nodes.threshold[node])
        node = left[node] + (inner & right)
    return nodes.value[node]


def presort(features: np.ndarray):
    """(rows, vals), each (d, n): the rows of each column in increasing value
    (ties in row order) and the values they hold there. A stack of R runs
    (R, n, d) gives (d, R * n): run t's presort, its rows carrying ids t * n + i."""
    n, d = features.shape[-2:]
    columns = features.reshape(-1, n, d).transpose(2, 0, 1)  # (d, R, n)
    rows = np.argsort(columns, axis=2, kind="mergesort")
    vals = np.take_along_axis(columns, rows, axis=2).reshape(d, -1)
    return (rows + n * np.arange(rows.shape[1])[:, None]).reshape(d, -1), vals


def _segment_sums(values, first, size):
    """Sums along axis 1 within each node segment [first, first + size): up
    to and including each entry, and after it. Integer sums are exact in any
    order, so they run flat; a float segment gets a cumsum and numpy's
    pairwise sum of exactly its values."""
    if values.dtype.kind != "f":
        running = values.cumsum(axis=1)
        after = running[:, first + size - 1].repeat(size, axis=1) - running
        running -= (running[:, first - 1] * (first > 0)).repeat(size, axis=1)
        return running, after
    running, totals = np.empty_like(values), np.empty((values.shape[0], size.size))
    for j, (a, b) in enumerate(zip(first.tolist(), (first + size).tolist())):
        values[:, a:b].cumsum(axis=1, out=running[:, a:b])
        np.add.reduce(values[:, a:b], axis=1, out=totals[:, j])
    return running, totals.repeat(size, axis=1) - running


def best_splits(targets, rows, vals, start, size, candidates, gain, floor: float,
                weights=None):
    """(feature, threshold) of each node's best split; feature -1 where no
    gain(left_sum, right_sum, n_left, n_right) exceeds floor. rows (d, R)
    holds each column's presorted row ids node after node, and vals their
    values; node j (2+ rows) sits at [start, start + size), tries
    candidates[j], and counts a row weights.flat[id] times (or once)."""
    d, width = rows.shape
    first = size.cumsum() - size
    nd = np.arange(size.size).repeat(size)
    span = np.arange(nd.size)
    if nd.size == width and candidates.shape[1] == d and not (candidates != np.arange(d)).any():
        r, v = rows, vals  # every node open, every column in order: the layout as it stands
    else:
        # (k, width): row i holds every node's rows sorted by its i-th candidate,
        # in C order (as take returns) so each node's sums stay pairwise per column
        at = width * candidates[nd].T + (span + (start - first)[nd])
        r, v = rows.take(at), vals.take(at)
    if weights is None:
        left_sum, right_sum = _segment_sums(targets.take(r), first, size)
        n_left = np.arange(1.0, span.size + 1) - first[nd]  # the same in every column
        n_right = size[nd] - n_left
    else:
        w = weights.take(r)
        left_sum, right_sum = _segment_sums(w * targets.take(r), first, size)
        n_left, n_right = (count.astype(np.float64) for count in _segment_sums(w, first, size))
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right is 0 at node ends
        gains = gain(left_sum, right_sum, n_left, n_right)
    # only a step up in value splits, never a node's last row (nor the last entry)
    step = np.empty(v.shape, dtype=bool)
    np.greater(v.ravel()[1:], v.ravel()[:-1], out=step.ravel()[:-1])
    step[:, first + size - 1] = False
    np.putmask(gains, ~step, -np.inf)
    # first maximum in (candidate, boundary) order: the first candidate to
    # reach the node's best, then its first boundary to do so
    by_node = np.maximum.reduceat(gains, first, axis=1)
    best = np.maximum.reduce(by_node)
    c = (by_node == best).argmax(axis=0)
    hit = np.where(gains.take(c[nd] * span.size + span) == best[nd], span, span.size)
    e = c * span.size + np.minimum.reduceat(hit, first)
    lo, hi = v.take(e), v.take(e + 1, mode="clip")
    cut = 0.5 * (lo + hi)
    # a midpoint of adjacent floats can round onto the right value; the
    # left value then still separates the two rows
    cut = np.where((lo <= cut) & (cut < hi), cut, lo)
    split = best > floor
    return np.where(split, candidates[np.arange(size.size), c], _LEAF), np.where(split, cut, 0.0)


def grow(features, layout, targets, columns, gain, floor: float, weights=None,
         max_depth=None):
    """Grow one tree per row of integer weights (one on every row without)
    from a presort layout; returns (Nodes with leaf values 0, leaf_of_row:
    each row's leaf in them, or -1). Nodes below max_depth whose targets
    differ are searched, with columns(count) giving their candidates in
    (tree, breadth-first) order.

    Without weights, features may be a stack of R runs (R, n, d) with its
    presort and (R, n) targets: tree t then grows on run t alone, exactly as
    it would on its own."""
    rows, vals = layout
    n, d = features.shape[-2:]
    features = features.reshape(-1, d)
    if weights is None:
        size = np.full(rows.shape[1] // n, n)
        node_of, targets = np.arange(size.size).repeat(n), targets.reshape(-1)
    else:
        # tree t's copy of row i has id t * n + i; a forest batch's layout is
        # large, so its ids and positions take the smallest integer type
        present = (weights > 0)[:, rows].transpose(1, 0, 2)  # (d, trees, n)
        at = np.extract(present, np.broadcast_to(
            np.arange(d * n, dtype=np.min_scalar_type(d * n - 1)).reshape(d, 1, n), present.shape))
        size = np.count_nonzero(present[0], axis=1)
        rows = (rows.take(at).reshape(d, -1) + (n * np.arange(size.size)).repeat(size)).astype(
            np.min_scalar_type(weights.size - 1))
        vals = vals.take(at).reshape(d, -1)
        targets = np.tile(targets, size.size)
        node_of = np.where(weights > 0, np.arange(size.size)[:, None], -1).ravel()
    n_trees = size.size
    tree = np.arange(n_trees)  # a level's nodes in (tree, breadth-first) order
    levels, base = [], 0
    while True:
        feature, threshold = np.full(tree.size, _LEAF), np.zeros(tree.size)
        if len(levels) != max_depth:
            start = size.cumsum() - size
            y = targets.take(rows[0])
            open_ = (np.minimum.reduceat(y, start) < np.maximum.reduceat(y, start)).nonzero()[0]
            if open_.size:
                feature[open_], threshold[open_] = best_splits(
                    targets, rows, vals, start[open_], size[open_], columns(open_.size),
                    gain, floor, weights)
        split = feature != _LEAF
        base += tree.size
        kid = 2 * split.cumsum() - 2  # children of a level's q-th split: 2q, 2q + 1
        levels.append((tree, feature, threshold))
        if not split.any():
            return _by_tree(levels, node_of.reshape(n_trees, n))
        seg = np.arange(tree.size).repeat(size)
        keep = split[seg]
        s0, r0 = seg[keep], rows[0][keep]
        child = kid[s0] + ~(features[r0 % len(features), feature[s0]] <= threshold[s0])
        node_of[r0] = base + child
        if len(levels) != max_depth:
            # stable partition of every column by child; leaf rows sort last
            leaf_key = kid[-1] + 2
            key = np.full(n_trees * n, leaf_key, dtype=np.min_scalar_type(leaf_key))
            key[r0] = child
            key = key.take(rows).argsort(axis=1, kind="stable")
            key += rows.shape[1] * np.arange(d)[:, None]
            rows, vals = rows.take(key[:, :s0.size]), vals.take(key[:, :s0.size])
            size = np.bincount(child, minlength=leaf_key)
            del key
        tree = tree[split].repeat(2)


def _by_tree(levels, leaf_of_row):
    """Nodes tree after tree, each tree's breadth-first, and each row's node
    in them (or -1). levels holds each depth's (tree, feature, threshold) in
    (tree, breadth-first) order; a node's id counts level after level."""
    tree, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    walk = tree.argsort(kind="stable")
    at = np.empty_like(walk)
    at[walk] = np.arange(walk.size)
    size = np.bincount(tree, minlength=leaf_of_row.shape[0])
    nodes = Nodes(feature[walk], threshold[walk], np.zeros(walk.size), np.append(0, size.cumsum()))
    return nodes, np.where(leaf_of_row >= 0, at[leaf_of_row], -1)


def _neg_gini(left_pos, right_pos, n_left, n_right):
    """Minus the size-weighted Gini impurity of the two children."""
    p_l = left_pos / n_left
    p_r = right_pos / n_right
    gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
    gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
    return -(n_left * gini_l + n_right * gini_r) / (n_left + n_right)


@dataclass
class ForestModel:
    nodes: Nodes
    n_features: int
    meta: TrainMeta = field(default=None)

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = check_predict_input(features, self.n_features)
        votes = leaf_values(self.nodes, features).sum(axis=0)
        # vote ties resolve to the positive class
        return (2 * votes >= self.nodes.bounds.size - 1).astype(np.int64)


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

    batches, step = [], max(1, _LEVEL_ENTRIES // (n * d))
    for first in range(0, n_estimators, step):
        batch = bootstraps[first:first + step]
        weights = np.bincount((batch + n * np.arange(len(batch))[:, None]).ravel(),
                              minlength=batch.size).reshape(batch.shape)
        nodes, leaf_of_row = grow(features, order, labels, columns, _neg_gini, -np.inf, weights)
        # a leaf votes for its bootstrap majority; an exact tie votes positive
        drawn = weights > 0
        count, ones = (np.bincount(leaf_of_row[drawn], x[drawn], nodes.value.size)
                       for x in (weights, weights * labels))
        nodes.value[:] = (nodes.feature == _LEAF) & (2 * ones >= count)
        batches.append(nodes)
    return ForestModel(nodes=join(batches), n_features=d, meta=TrainMeta(kind="rf"))
