"""CART trees grown without pruning, for surrogate explainers and forest bases.

Splits are binary and axis-aligned: numeric features test `value <= threshold`
(thresholds at midpoints between consecutive distinct sorted values),
categorical features test `value == category` one-vs-rest. The true branch is
the left child. There is no pruning and no knob: a node stops growing only
when it is pure (all its labels are equal), holds one row, or has no
two-sided split (all its rows are identical). Zero-gain splits are accepted
-- XOR-shaped nodes have no positive-gain split, yet must be grown through --
so a tree reaches zero training error whenever no two rows share a feature
vector with different labels.

The task decides the criterion: Gini impurity for classes, MSE for regression.
Tie-breaking is deterministic: best gain wins; ties go to the lowest feature
index, then the lowest threshold / category index. Rows with equal values keep
their order in the node, and that order fixes how the MSE sums round.

One grower builds every tree: a frontier of open nodes, from one tree or
many, searched a step at a time with array calls over all their rows (see
_Frontier). A tree that draws a feature subset per split (a forest tree)
puts its next preorder node into each step, so its rng draws come in the
order a one-node-at-a-time grower makes them; a tree that draws none (an
explainer tree) puts in all its open nodes and grows level by level. When
growth ends each leaf's rows are a slice of the grower's row buffer, so it
also reports the leaf every sample row reached, with no second routing.

A tree has one form, the struct-of-arrays layout of scikit-learn's `tree_`:
a NodeTable, whose columns are the ones a saved forest stores, plus one
leaf-statistics array beside it. The table keeps nothing another value
decides: its nodes are in preorder, so a split's left child is the node
after it (the root is node 0), and the schema's feature kind gives a split's
test. A forest is the same table with many roots: each tree's preorder nodes
follow the previous tree's, and child ids index the whole table. The grower
numbers the nodes in preorder once growth ends, and a loaded forest is built
from its columns. A tree stores nothing its table decides: tree_stats derives
its depth and leaf count where they are read.

Prediction walks a RoutePlan, which route_plan derives from the table and
the schema and which is never saved: each node becomes one `<=` test on a
widened row, and a leaf is its own child. A forest derives its plan once,
when it is built (oracle.ForestModel); apply and predict_batch derive one per
call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tabular import CLASSIFICATION, REGRESSION, Schema, validate_instance

GINI = "gini"
MSE = "mse"

NUMERIC_LE = "numeric_le"
CATEGORY_EQ = "category_eq"


class NodeTable(NamedTuple):
    """Struct-of-arrays node table for one tree or a forest of them: the
    columns of a saved forest (see oracle._forest_table).

    Node i is a leaf when feat[i] < 0, and then pred[i] is its prediction.
    Otherwise it tests row[feat[i]] against val[i], `<=` when the schema's
    feature feat[i] is numeric and `==` when it is categorical, and sends the
    row to node i + 1 when the test holds, else to right[i]. Each tree's
    nodes are in preorder: its root comes first and a split's left child is
    the node right after it.
    """

    feat: np.ndarray
    val: np.ndarray
    right: np.ndarray
    pred: np.ndarray


@dataclass(eq=False)
class ExplainerTree:
    """A grown tree: its node table plus per-node leaf statistics.

    leaf_stats[i] holds, for a leaf i, the training rows that reached it: the
    class counts for classification (shape (nodes, n_classes)) or the row
    count for regression (shape (nodes,)). It is zero at internal nodes and
    sits beside the table. A forest is one such tree with many roots (see
    oracle.ForestModel).
    """

    table: NodeTable
    leaf_stats: np.ndarray
    schema: Schema
    task: str


def _gini(counts: np.ndarray, n) -> np.ndarray:
    p = counts / np.maximum(n, 1)
    return 1.0 - (p * p).sum(axis=-1)


# (row, feature) pairs searched in one grower step; bounds the arrays of a step
GROW_CHUNK_PAIRS = 1 << 14


class _Frontier:
    """Grows CART trees on rows of X, many trees and many nodes per step.

    A step searches a batch of open nodes at once. Each (node, candidate
    feature) pair takes a copy of the node's rows, and one stable argsort of
    the int keys (pair, value key) orders every pair by value, ties in the
    node's row order; a numeric value's key is its rank, a category is its
    own key. Each run of equal keys is a candidate: on a numeric feature the
    rows up to and including the run go left, on a categorical one the run
    alone. Class counts come from one cumulative count over all runs and are
    exact. The MSE sums run per pair (numeric) or per run (categorical) along
    the rows of a zero-padded array, in the order of the per-node search
    they replaced, so every gain rounds as it did. Node sums, variances and
    leaf means take numpy's var and mean reductions once per run of
    equal-size nodes, on a (nodes, size) block of labels: a sum along each
    row of a C-contiguous block is pairwise, so each rounds as on its node.
    """

    def __init__(self, X, y, schema: Schema, task: str, n_classes: int):
        self.y, self.schema, self.task, self.K = y, schema, task, n_classes
        self.n, self.p = X.shape
        self.numeric = schema.numeric_mask()
        keys = X.astype(np.int64)  # a category is its own key
        for f in self.numeric.nonzero()[0]:
            keys[:, f] = np.unique(X[:, f], return_inverse=True)[1].reshape(-1)
        self.B = int(keys.max(initial=0)) + 1
        self.Xf, self.Vf = X.T.ravel(), keys.T.ravel()  # (row, feature) at f * n + row

    def grow(self, samples, draws) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
        """Grow tree t on rows samples[t] of X, searching every feature at
        each split when draws[t] is None, or `width` features drawn by an rng
        seeded `seed` when draws[t] is (seed, width); return one table with
        each tree's nodes in preorder after the tree before it, the trees'
        root ids, and the leaf id each sample row reached (one per entry of
        the concatenated samples).

        A tree that draws features adds only its next preorder stack pop to a
        step, so its rng draws come in preorder, one per split search; a
        tree that draws none adds all its open nodes and grows level by level.
        """
        if any(len(rows) == 0 for rows in samples):
            raise ValueError("cannot fit a tree on zero rows")
        self.draws = [None if d is None else (np.random.default_rng(d[0]), d[1]) for d in draws]
        width = [self.p if d is None else d[1] for d in draws]
        # each node's rows are a slice of one buffer of sample positions
        # (entries of the concatenated samples); a split reorders its slice
        self.ids = np.concatenate(samples)  # the row of X at each sample position
        self.rows = np.arange(len(self.ids))
        ends = np.cumsum([len(rows) for rows in samples]).tolist()
        self.stacks = [[(t, t, ends[t] - len(rows), ends[t])]  # (tree, id, lo, hi)
                       for t, rows in enumerate(samples)]
        # one column per node id: feature, value, prediction, parent, then the
        # leaf stats; ints are exact in float64, and the ids a step allocates
        # (its splits' children) start at blocks[step]
        self.cols = np.zeros((4 + (self.K or 1), 4 * len(samples)))
        self.n_ids, self.blocks = len(samples), [len(samples)]
        while True:
            batch = []
            for t, stack in enumerate(self.stacks):
                if self.draws[t] is None:
                    batch += stack
                    stack.clear()
                elif stack:
                    batch.append(stack.pop())
            if not batch:
                return self._preorder(len(samples))
            # largest first: the MSE sums pad every node's rows to the first's
            # length, counted so, and _step takes runs of equal sizes, one-row last
            batch.sort(key=lambda node: node[2] - node[3])
            start, pairs = 0, 0
            for i, (t, _, lo, hi) in enumerate(batch):
                padded = batch[start][3] - batch[start][2] if self.task == REGRESSION else hi - lo
                pairs += padded * width[t]
                if pairs > GROW_CHUNK_PAIRS and i > start:
                    self._step(batch[start:i])
                    start, pairs = i, (hi - lo) * width[t]
            self._step(batch[start:])

    def _step(self, batch) -> None:
        tree, ids, lo, hi = np.array(batch).T
        m, K, y = len(batch), self.K, self.y
        sizes = hi - lo
        starts = sizes.cumsum() - sizes
        at = (lo - starts).repeat(sizes) + np.arange(int(sizes.sum()))  # buffer place of each row
        P = self.rows[at]  # sample positions
        R = self.ids[P]  # their rows of X
        seg = np.arange(m).repeat(sizes)
        alive = sizes >= 2  # a one-row node is a leaf: no sums, no search
        imp, sums = np.zeros(m), np.zeros((2, m))
        if self.task == CLASSIFICATION:
            counts = np.bincount(seg * K + y[R], minlength=m * K).reshape(m, K)
            imp = _gini(counts, sizes[:, None])
            pure = imp <= 0.0
        else:
            # pure when all its labels are equal: equal floats can have a nonzero variance
            counts, y_rows = sizes, y[R]
            pure = np.minimum.reduceat(y_rows, starts) == np.maximum.reduceat(y_rows, starts)
            mean = y_rows[starts] + 0.0  # a one-row node's, as numpy's sum adds it to +0.0
            # a batch comes largest first, so each run of equal sizes is one block of y_rows
            runs = np.flatnonzero(np.diff(sizes, prepend=0, append=0)).tolist()
            for a, b in zip(runs, runs[1:]):  # one row per node: numpy's var and mean
                L = int(sizes[a])
                if L < 2:  # the one-row nodes come last, and no search reads their sums
                    break
                Y = y_rows[starts[a]:starts[a] + (b - a) * L].reshape(b - a, L)
                s1 = Y.sum(axis=1)
                mean[a:b] = s1 / L
                dev = Y - mean[a:b, None]
                imp[a:b], sums[:, a:b] = (dev * dev).sum(axis=1) / L, (s1, (Y * Y).sum(axis=1))
        search = (alive & ~pure).nonzero()[0]
        split, f, v, n_left = self._search(search, tree, R, sizes, starts, imp, counts, sums)
        leaf = np.ones(m, bool)
        leaf[split] = False
        feat, val = np.full(m, -1), np.zeros(m)
        feat[split], val[split] = f, v
        if self.task == CLASSIFICATION:
            pred, stats = counts.argmax(axis=1), counts * leaf[:, None]
        else:  # an internal node's pred is +0.0, where mean * leaf could give -0.0
            pred, stats = np.where(leaf, mean, 0.0), (sizes * leaf)[:, None]
        cols = self.cols
        cols[0, ids], cols[1, ids], cols[2, ids], cols[4:, ids] = feat, val, pred * leaf, stats.T
        if not len(split):
            return
        first, self.n_ids = self.n_ids, self.n_ids + 2 * len(split)
        if self.n_ids > cols.shape[1]:
            self.cols = cols = np.concatenate([cols, np.zeros_like(cols)], axis=1)
        cols[3, first:self.n_ids] = ids[split].repeat(2)  # split i's children are first + 2i, + 1
        self.blocks.append(first)
        f_row = np.maximum(feat, 0)[seg]
        x, t = self.Xf[f_row * self.n + R], val[seg]
        go_left = np.where(self.numeric[f_row], x <= t, x == t)
        moving = (~leaf[seg]).nonzero()[0]
        order = np.argsort(2 * seg[moving] + ~go_left[moving], kind="stable")
        self.rows[at[moving]] = P[moving[order]]  # left rows, then right rows
        mid = lo[split] + n_left
        for i, (j, s) in enumerate(zip(split.tolist(), mid.tolist())):
            t, c = int(tree[j]), first + 2 * i
            self.stacks[t] += [(t, c + 1, s, int(hi[j])), (t, c, int(lo[j]), s)]

    def _search(self, search, tree, R, sizes, starts, imp, counts, sums):
        """Best split of each node in search: (batch positions of the nodes
        that split, their features, values and left row counts)."""
        p, n, B = self.p, self.n, self.B
        cand = np.ones((len(search), p), bool)
        for i, j in enumerate(search.tolist()):
            draw = self.draws[tree[j]]
            if draw is not None:
                cand[i] = False
                cand[i, draw[0].choice(p, size=draw[1], replace=False)] = True
        pi, pf = np.nonzero(cand)  # (node, feature) pairs, node-major, features ascending
        if not len(pi):  # no node to search, or a schema without features
            return [np.empty(0, np.int64)] * 4
        pn = search[pi]
        psize = sizes[pn]
        pend = psize.cumsum()
        pstart, T = pend - psize, int(pend[-1])
        rid = R[np.arange(T) + (starts[pn] - pstart).repeat(psize)]
        col = (pf * n).repeat(psize) + rid
        keys = (np.arange(len(pn)) * B).repeat(psize) + self.Vf[col]
        o = np.argsort(keys, kind="stable")
        keys = keys[o]
        ys = self.y[rid[o]]
        new_run = keys[1:] != keys[:-1]
        brk = new_run.nonzero()[0]
        gend = np.concatenate((brk, [T - 1]))  # the last position of each run of equal keys
        gstart = np.concatenate(([0], brk + 1))
        gp = keys[gend] // B
        num = self.numeric[pf[gp]]
        base = np.where(num, pstart[gp], gstart)  # the first row that goes left with the run
        nl = gend + 1 - base
        ok = (nl < psize[gp]).nonzero()[0]  # some row goes right
        if not len(ok):
            return [np.empty(0, np.int64)] * 4
        gend, base, nl, gp, num = gend[ok], base[ok], nl[ok], gp[ok], num[ok]
        node, nn = pn[gp], psize[gp]
        nr = nn - nl
        if self.task == CLASSIFICATION:
            C = np.zeros((T + 1, self.K), np.int64)
            np.cumsum(ys[:, None] == np.arange(self.K), axis=0, out=C[1:])
            lc = C[gend + 1] - C[base]
            gains = imp[node] - (nl * _gini(lc, nl[:, None])
                                 + nr * _gini(counts[node] - lc, nr[:, None])) / nn
        else:
            run, pair = np.concatenate(([0], new_run.cumsum())), keys // B
            pos = np.arange(T) - np.where(self.numeric[pf[pair]], pstart[pair], gstart[run])
            sid = np.cumsum(pos == 0) - 1  # each pair (numeric) or run (categorical) a row
            M = np.zeros((int(sid[-1]) + 1, int(pos.max()) + 1))
            M[sid, pos] = ys
            S1, S2 = M.cumsum(axis=1), (M * M).cumsum(axis=1)
            gs, last = sid[gend], np.where(num, nn - 1, 0)
            l1, l2 = S1[gs, nl - 1], S2[gs, nl - 1]
            t1 = np.where(num, S1[gs, last], sums[0, node])
            t2 = np.where(num, S2[gs, last], sums[1, node])
            il = np.maximum(l2 / nl - (l1 / nl) ** 2, 0.0)
            ir = np.maximum((t2 - l2) / nr - ((t1 - l1) / nr) ** 2, 0.0)
            gains = imp[node] - (nl * il + nr * ir) / nn
        # the first maximum per node: lowest feature, then lowest threshold or category
        head = np.concatenate(([True], node[1:] != node[:-1]))
        top = np.maximum.reduceat(gains, head.nonzero()[0])[head.cumsum() - 1]
        hit = (gains == top).nonzero()[0]
        best = hit[np.concatenate(([True], node[hit[1:]] != node[hit[:-1]]))]
        e = gend[best]
        a, b = self.Xf[col[o[e]]], self.Xf[col[o[np.minimum(e + 1, T - 1)]]]
        mid = (a + b) / 2.0
        # adjacent floats: fall back to the left value
        val = np.where(num[best] & (a <= mid) & (mid < b), mid, a)
        return node[best], pf[gp[best]], val, nl[best]

    def _preorder(self, n_trees: int) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
        """The recorded nodes in preorder, the trees' root places and the
        leaf place of each sample position. A split puts its left rows before
        its right rows, so the leaves' slices of the buffer come in preorder."""
        at, right, roots = self._places(n_trees)
        cols, self.cols = self.cols, None
        feat, val, pred = cols[0, at].astype(np.int64), cols[1, at], cols[2, at]
        stats = cols[4:, at].T.astype(np.int64, order="C")
        del cols, at  # a forest's columns are large: free them before the table is built
        tree = ExplainerTree(NodeTable(feat, val, np.where(feat >= 0, right, 0), pred),
                             stats if self.task == CLASSIFICATION else stats[:, 0],
                             self.schema, self.task)
        leaf = (feat < 0).nonzero()[0]
        leaves = np.empty_like(self.rows)
        leaves[self.rows] = leaf.repeat(stats[leaf].sum(axis=1))
        return tree, roots, leaves

    def _places(self, n_trees: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The id at each preorder place, the place of the right child a split
        at that place has, and the trees' root places. Ids are allocated in
        steps, each step's after its splits' ids, so subtree sizes add up over
        the steps in reverse and places follow over the steps in order."""
        N = self.n_ids
        parent = self.cols[3, :N].astype(np.int64)
        steps = list(zip(self.blocks, self.blocks[1:] + [N]))
        size = np.ones(N, np.int64)
        for a, b in reversed(steps):
            size[parent[a:b:2]] += size[a:b:2] + size[a + 1:b:2]
        pos = np.zeros(N, np.int64)
        pos[:n_trees] = np.cumsum(size[:n_trees]) - size[:n_trees]  # tree roots
        for a, b in steps:
            pos[a:b:2] = pos[parent[a:b:2]] + 1
            pos[a + 1:b:2] = pos[a:b:2] + size[a:b:2]
        at = np.empty(N, np.int64)
        at[pos] = np.arange(N)
        after = np.minimum(np.arange(1, N + 1), N - 1)  # where a split's left child is
        return at, after + size[at[after]], pos[:n_trees].copy()


def grow_trees(X, y, schema: Schema, task: str, samples,
               draws) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
    """Grow tree t on rows samples[t] of X (row indices) with feature draws
    draws[t] -- None for an explainer tree, (seed, width) for a forest tree --
    all in one frontier (see _Frontier.grow); returns the table, the root ids
    and, for each entry of np.concatenate(samples), the id of the leaf that
    row reached in its tree."""
    X = np.asarray(X, dtype=float)
    if task == CLASSIFICATION:
        y = np.asarray(y).astype(np.int64)
        if schema.target is not None and schema.target.classes is not None:
            n_classes = len(schema.target.classes)
        else:
            n_classes = int(y.max(initial=-1)) + 1  # grow() rejects zero rows
    else:
        y, n_classes = np.asarray(y).astype(float), 0
        # a node's square sum adds a squared label per row: it stays finite
        # while |label| <= sqrt(max / rows), past that a gain may be NaN
        rows = max(map(len, samples), default=1)
        big = float(y[np.abs(y).argmax()]) if len(y) else 0.0
        if not abs(big) <= np.sqrt(np.finfo(float).max / max(rows, 1)):
            raise ValueError(f"regression label {big!r} is too large: its square sums "
                             f"over {rows} rows overflow")
    return _Frontier(X, y, schema, task, n_classes).grow(samples, draws)


def fit_tree(rows: np.ndarray, labels: np.ndarray, schema: Schema,
             task: str | None = None) -> ExplainerTree:
    """Grow a CART tree; task defaults to the label dtype (ints = classification)."""
    y = np.asarray(labels)
    if len(rows) != len(y):
        raise ValueError(f"{len(rows)} rows but {len(y)} labels")
    if task is None:
        task = CLASSIFICATION if np.issubdtype(y.dtype, np.integer) else REGRESSION
    return grow_trees(rows, y, schema, task, [np.arange(len(y))], [None])[0]


def split_trees(tree: ExplainerTree, roots) -> list[ExplainerTree]:
    """Each tree of a table with many roots (as grow_trees returns it) as an
    ExplainerTree of its own: its node range, ids counted from its root. The
    arrays view the table's."""
    t, bounds = tree.table, list(roots) + [len(tree.table.feat)]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        feat = t.feat[a:b]
        out.append(ExplainerTree(NodeTable(feat, t.val[a:b],
                                           np.where(feat >= 0, t.right[a:b] - a, 0), t.pred[a:b]),
                                 tree.leaf_stats[a:b], tree.schema, tree.task))
    return out


# (row, root) pairs routed at once; bounds the index arrays of one pass
ROUTE_CHUNK_PAIRS = 1 << 15
# steps every live pair takes between two drops of the pairs at a leaf
ROUTE_STEPS = 8


class RoutePlan(NamedTuple):
    """A node table as one `<=` test per node, for routing (see route_plan).

    Node i sends a widened row to child[2 * i + (wide[col[i]] <= thr[i])].
    The widened row holds the row's first n_row columns, then one column per
    (cat_feat[j], cat_val[j]) pair: -1.0 where the row has that category,
    else 0.0. A leaf tests column 0 against +inf, and both its children are
    itself.
    """

    col: np.ndarray
    thr: np.ndarray
    child: np.ndarray
    n_row: int
    cat_feat: np.ndarray
    cat_val: np.ndarray


def route_plan(tree: ExplainerTree) -> RoutePlan:
    """The routing plan of a tree's node table, a split's kind read from the
    schema. A numeric split tests its feature's column against its
    threshold, and a categorical split tests its (feature, category) column
    against -0.5, so a NaN or a category no split tests goes right, as the
    table's own tests send it."""
    table = tree.table
    feat, ids = table.feat, np.arange(len(table.feat))
    split = feat >= 0
    num = np.append(tree.schema.numeric_mask(), False)[feat]  # a leaf's -1 reads the False
    cat = split & ~num
    pairs, pair_of = np.unique(np.stack((feat[cat], table.val[cat])), axis=1,
                               return_inverse=True)
    n_row = int(feat[num].max(initial=-1)) + 1
    col = np.where(num, feat, 0)
    col[cat] = n_row + pair_of.reshape(-1)
    thr = np.where(num, table.val, np.inf)
    thr[cat] = -0.5
    child = np.stack((np.where(split, table.right, ids), np.where(split, ids + 1, ids)), 1)
    return RoutePlan(col, thr, child.ravel(), n_row, pairs[0].astype(np.int64), pairs[1])


def _widen(plan: RoutePlan, rows: np.ndarray) -> np.ndarray:
    """The rows as the plan's widened rows; at least one column, for the
    leaves to read."""
    q, m = plan.n_row, len(plan.cat_feat)
    wide = np.zeros((len(rows), max(1, q + m)))
    wide[:, :q] = rows[:, :q]
    wide[:, q:q + m] -= rows[:, plan.cat_feat] == plan.cat_val
    return wide


def route(plan: RoutePlan, roots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Leaf node ids of every row from every root, shape (len(roots), n_rows).

    The rows are widened once (see RoutePlan), and all (root, row) pairs
    descend together, a step being three node gathers and one row gather. A
    leaf keeps the pairs that reach it, so the live pairs take ROUTE_STEPS
    steps between drops of those at a leaf. Rows go in chunks of at most
    ROUTE_CHUNK_PAIRS pairs.
    """
    wide = _widen(plan, np.asarray(rows, dtype=float))
    (n, width), flat = wide.shape, wide.ravel()
    col, thr, child = plan.col, plan.thr, plan.child
    out = np.empty(len(roots) * n, dtype=np.int64)  # tree-major: pair k * n + i is row i at root k
    step = max(1, ROUTE_CHUNK_PAIRS // len(roots))
    for a in range(0, n, step):
        i = np.arange(a, min(a + step, n))
        pair = (np.arange(len(roots))[:, None] * n + i).ravel()
        base, node = np.tile(i * width, len(roots)), np.repeat(roots, len(i))
        while len(pair):
            for _ in range(ROUTE_STEPS):
                last = node
                node = child.take(2 * node + (flat.take(base + col.take(node)) <= thr.take(node)))
            done = node == last  # a split's children differ from it
            out[pair[done]] = node[done]
            pair, base, node = pair[~done], base[~done], node[~done]
    return out.reshape(len(roots), n)


def apply(tree: ExplainerTree, rows: np.ndarray) -> np.ndarray:
    """Leaf node id of each row."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return route(route_plan(tree), np.zeros(1, dtype=np.int64), rows)[0]


def predict_batch(tree: ExplainerTree, rows: np.ndarray) -> np.ndarray:
    """Predictions for many rows at once (iterative array routing)."""
    preds = tree.table.pred[apply(tree, rows)]
    return preds.astype(np.int64) if tree.task == CLASSIFICATION else preds


def predict_tree(tree: ExplainerTree, inst: np.ndarray):
    """Route one conforming instance to its leaf prediction."""
    validate_instance(tree.schema, np.asarray(inst, dtype=float))
    out = predict_batch(tree, np.asarray(inst, dtype=float))[0]
    return int(out) if tree.task == CLASSIFICATION else float(out)


def decision_path(tree: ExplainerTree, inst: np.ndarray) -> list[tuple[int, str, float, bool]]:
    """Root-to-leaf tests for inst as (feature, kind, value, branch_taken_true)."""
    inst = np.asarray(inst, dtype=float)
    validate_instance(tree.schema, inst)
    t, numeric = tree.table, tree.schema.numeric_mask()
    path = []
    node = 0
    while t.feat[node] >= 0:
        feature, value = int(t.feat[node]), float(t.val[node])
        v = inst[feature]
        taken = bool(v <= value if numeric[feature] else v == value)
        path.append((feature, NUMERIC_LE if numeric[feature] else CATEGORY_EQ, value, taken))
        node = node + 1 if taken else t.right[node]
    return path


def tree_stats(tree: ExplainerTree) -> dict:
    """Depth, leaf count and node count of a one-root tree, read off its
    table: the depth is the number of levels below the root, walked one level
    at a time."""
    feat, right = tree.table.feat, tree.table.right
    level, depth = np.zeros(1, np.int64), -1
    while len(level):
        inner = level[feat[level] >= 0]
        level, depth = np.concatenate((inner + 1, right[inner])), depth + 1
    leaves = int((feat < 0).sum())
    return {
        "depth": depth,
        "leaf_count": leaves,
        "node_count": 2 * leaves - 1,
    }


def tree_to_dict(tree: ExplainerTree) -> dict:
    """Nested JSON form of a one-root tree (split_trees gives a forest's trees
    one by one): each split holds its left and right subtrees."""
    t, numeric = tree.table, tree.schema.numeric_mask().tolist()
    feat, val, right = t.feat.tolist(), t.val.tolist(), t.right.tolist()
    pred, stats = t.pred.tolist(), tree.leaf_stats.tolist()
    docs: list = [None] * len(feat)
    for i in range(len(feat) - 1, -1, -1):  # children come after their parent
        if feat[i] >= 0:
            if numeric[feat[i]]:
                test = {"kind": NUMERIC_LE, "threshold": val[i]}
            else:
                test = {"kind": CATEGORY_EQ, "category": int(val[i])}
            docs[i] = {"feature": feat[i], "test": test,
                       "left": docs[i + 1], "right": docs[right[i]]}
        elif tree.task == CLASSIFICATION:
            docs[i] = {"leaf": {"prediction": tree.schema.decode_label(pred[i]),
                                "counts": stats[i]}}
        else:
            docs[i] = {"leaf": {"prediction": pred[i],
                                "stats": {"n": stats[i], "mean": pred[i]}}}
    return docs[0]


def json_text(doc, indent=None) -> str:
    """json.dumps of a document that holds trees.

    The encoder nests one level per tree level and stops at the interpreter's
    recursion limit; a tree too deep for it raises ValueError.
    """
    try:
        return json.dumps(doc, indent=indent)
    except RecursionError:
        raise ValueError("tree too deep to nest as JSON") from None
