"""Random forest of Gini-split CART trees on bootstrap samples, and the
level-wise CART engine it shares with gradient boosting.

The engine presorts each column once per fit (mergesort: ties keep row
order) into intp row ids and the sorted values they hold, and grows a batch
of trees one depth level at a time. One segmented search (best_splits)
covers every open node of the level, in a layout that holds each node's
rows presorted by each of its candidate columns. Gradient boosting, whose
nodes search every column, carries that layout down: children inherit
stable partitions of their parent's ids and values. The forest carries
only each node's rows and sorts (node, presort position) keys of its open
nodes' candidate columns at each level.

Seed protocol 3: one rng.integers call draws every bootstrap. The column
draws of node b (breadth-first, from 0) of tree t are output f of
SplitMix64 seeded with output b of SplitMix64 seeded with output t of
SplitMix64 seeded with the rf seed, for each column f; the node's
ceil(sqrt(d)) columns of smallest draw, in increasing draw, are its
candidates. So no draw depends on how trees are batched, and the batch
size (_RF_ENTRIES) changes no byte. Minimal weighted Gini impurity wins,
ties going to the first candidate, then the first boundary; a node stays a
leaf once it is pure or no candidate separates its rows.

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
# Entries of a gb stack (runs x rows x columns) or a dnn stack (runs x
# parameters), and so of a harness block: caps their working memory near
# 1 MB on a 178 x 22 table.
_LEVEL_ENTRIES = 40_000
# Row entries (trees x rows x columns) of a forest batch, chosen by
# measurement: 25 trees on a 178 x 22 table, a fit's tracemalloc peak
# 1.8 MiB. No draw follows the batches, so it changes no byte.
_RF_ENTRIES = 100_000


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


def best_splits(targets, rows, vals, size, gain, floor: float, weights=None):
    """(slot, threshold) of each node's best split; slot -1 where no
    gain(left_sum, right_sum, n_left, n_right) exceeds floor. Row s of rows
    (slots, R) holds every node's row ids presorted by its s-th candidate
    column, node after node (node j holds size[j] >= 2 of them), and vals
    their values; a row counts weights.flat[id] times (or once)."""
    first = size.cumsum() - size
    nd = np.arange(size.size).repeat(size)
    span = np.arange(nd.size)
    if weights is None:
        left_sum, right_sum = _segment_sums(targets.take(rows), first, size)
        n_left = np.arange(1.0, span.size + 1) - first[nd]  # the same in every column
        n_right = size[nd] - n_left
    else:
        w = weights.take(rows)
        left_sum, right_sum = _segment_sums(w * targets.take(rows), first, size)
        n_left, n_right = (count.astype(np.float64) for count in _segment_sums(w, first, size))
    with np.errstate(divide="ignore", invalid="ignore"):  # n_right is 0 at node ends
        gains = gain(left_sum, right_sum, n_left, n_right)
    # only a step up in value splits, never a node's last row (nor the last entry)
    step = np.empty(vals.shape, dtype=bool)
    np.greater(vals.ravel()[1:], vals.ravel()[:-1], out=step.ravel()[:-1])
    step[:, first + size - 1] = False
    np.putmask(gains, ~step, -np.inf)
    # first maximum in (slot, boundary) order: the first candidate to reach
    # the node's best, then its first boundary to do so
    by_node = np.maximum.reduceat(gains, first, axis=1)
    best = np.maximum.reduce(by_node)
    c = (by_node == best).argmax(axis=0)
    hit = np.where(gains.take(c[nd] * span.size + span) == best[nd], span, span.size)
    e = c * span.size + np.minimum.reduceat(hit, first)
    lo, hi = vals.take(e), vals.take(e + 1, mode="clip")
    cut = 0.5 * (lo + hi)
    # a midpoint of adjacent floats can round onto the right value; the
    # left value then still separates the two rows
    cut = np.where((lo <= cut) & (cut < hi), cut, lo)
    split = best > floor
    return np.where(split, c, _LEAF), np.where(split, cut, 0.0)


def grow(features, layout, targets, columns, gain, floor: float, weights=None,
         max_depth=None):
    """Grow one tree per row of integer weights (one on every row without)
    from a presort layout; returns (Nodes with leaf values 0, leaf_of_row:
    each row's leaf in them, or -1). Nodes below max_depth whose targets
    differ are searched, with columns(tree, index) giving the candidates of
    those nodes: their trees and breadth-first indices within them.

    Without weights every node searches every column (columns gives them
    in order), and children inherit stable partitions of their parent's
    presorted ids and values. features may then be a stack of R runs
    (R, n, d) with its presort and (R, n) targets: tree t grows on run t
    alone, exactly as it would on its own. With weights only each node's
    set of rows is carried, and a level sorts (node, presort position) keys
    of just its open nodes' candidate columns."""
    rows, vals = layout
    n, d = features.shape[-2:]
    features = features.reshape(-1, d)
    if weights is None:
        size = np.full(rows.shape[1] // n, n)
        node_of, targets = np.arange(size.size).repeat(n), targets.reshape(-1)
        held = [rows, vals]
    else:
        # place[f, i]: row i's position in the flat presort, in column f's part
        place = np.empty((d, n), dtype=np.min_scalar_type(d * n - 1))
        np.put_along_axis(place, rows, np.arange(d * n).reshape(d, n), axis=1)
        size = np.count_nonzero(weights, axis=1)
        # tree t's copy of row i has id t * n + i, in a small type that holds n
        rows = rows.astype(np.min_scalar_type(weights.size))
        held = [np.flatnonzero(weights).astype(rows.dtype)[None]]
        targets = np.tile(targets, size.size)
        node_of = np.where(weights > 0, np.arange(size.size)[:, None], -1).ravel()
    n_trees = size.size
    tree = np.arange(n_trees)  # a level's nodes in (tree, breadth-first) order
    index = np.zeros(n_trees, dtype=np.intp)  # each one's breadth-first index in its tree
    made = np.zeros(n_trees, dtype=np.intp)  # splits each tree has made so far
    levels, base = [], 0
    while True:
        feature, threshold = np.full(tree.size, _LEAF), np.zeros(tree.size)
        if len(levels) != max_depth:
            start = size.cumsum() - size
            y = targets.take(held[0][0])
            open_ = (np.minimum.reduceat(y, start) < np.maximum.reduceat(y, start)).nonzero()[0]
            if open_.size:
                candidates, count = columns(tree[open_], index[open_]), size[open_]
                nd = np.arange(open_.size).repeat(count)
                part = held if open_.size == tree.size else [
                    a[:, np.arange(nd.size) + (start[open_] - count.cumsum() + count)[nd]]
                    for a in held]
                if weights is None:
                    r, v = part
                else:
                    ids = part[0][0]
                    i = ids % n
                    # (node, presort position) keys are unique, so sorting them
                    # gives each node its rows in every candidate's presorted order
                    node_key = (nd * (d * n)).astype(np.min_scalar_type(open_.size * d * n - 1))
                    key = place.take((candidates.T * n)[:, nd] + i) + node_key
                    key.sort(axis=1)
                    key -= node_key
                    r, v = rows.take(key) + (ids - i), vals.take(key)
                slot, threshold[open_] = best_splits(targets, r, v, count, gain, floor, weights)
                feature[open_] = np.where(slot == _LEAF, _LEAF,
                                          candidates[np.arange(open_.size), slot])
        split = feature != _LEAF
        base += tree.size
        kid = 2 * split.cumsum() - 2  # children of a level's q-th split: 2q, 2q + 1
        levels.append((tree, feature, threshold))
        if not split.any():
            return _by_tree(levels, node_of.reshape(n_trees, n))
        seg = np.arange(tree.size).repeat(size)
        keep = split[seg]
        s0, r0 = seg[keep], held[0][0][keep]
        child = kid[s0] + ~(features[r0 % len(features), feature[s0]] <= threshold[s0])
        node_of[r0] = base + child
        if len(levels) != max_depth:
            # stable partition of what is held by child; leaf rows sort last
            leaf_key = kid[-1] + 2
            key = np.full(n_trees * n, leaf_key, dtype=np.min_scalar_type(leaf_key))
            key[r0] = child
            key = key.take(held[0]).argsort(axis=1, kind="stable")[:, :s0.size]
            key += held[0].shape[1] * np.arange(len(held[0]))[:, None]
            held = [a.take(key) for a in held]
            size = np.bincount(child, minlength=leaf_key)
            del key
        # a tree's q-th split has its children at 2q + 1 and 2q + 2 of the tree
        tree = tree[split]
        count = np.bincount(tree, minlength=n_trees)
        q = (made - count.cumsum() + count)[tree] + np.arange(tree.size)
        made += count
        index = (2 * q[:, None] + (1, 2)).ravel()
        tree = tree.repeat(2)


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


def _splitmix(state, counter):
    """Output counter (from 0) of SplitMix64 seeded with state, elementwise on
    uint64 arrays, wrapping modulo 2 ** 64."""
    z = state + (counter.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _neg_gini(left_pos, right_pos, n_left, n_right):
    """Minus the size-weighted Gini impurity of the two children,
    -(n_l * gini_l + n_r * gini_r) / (n_l + n_r) with gini = 1 - p**2 - (1 - p)**2,
    worked in place: a forest batch's level arrays are large."""
    mass = []
    for pos, count in ((left_pos, n_left), (right_pos, n_right)):
        p = pos / count
        q = 1.0 - p
        np.subtract(1.0, np.square(p, out=p), out=p)
        p -= np.square(q, out=q)
        p *= count
        mass.append(p)
    left, right = mass
    left += right
    return np.divide(np.negative(left, out=left), n_left + n_right, out=left)


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
    # each tree's SplitMix64 seed; its nodes' draws come from its outputs
    streams = _splitmix(np.uint64(int(seed) % 2 ** 64), np.arange(n_estimators))

    def columns(tree, index):  # tree counts from the batch's first
        draws = _splitmix(_splitmix(streams[first + tree], index)[:, None], np.arange(d))
        return np.argsort(draws, axis=1, kind="stable")[:, :n_candidates]

    batches, step = [], max(1, _RF_ENTRIES // (n * d))
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
