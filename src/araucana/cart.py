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

The schema's target states the criterion: Gini impurity over its K classes
(labels 0..K-1), or MSE for regression; a schema without a target is refused.
Tie-breaking is deterministic: best gain wins; ties go to the lowest feature
index, then the lowest threshold / category index. Rows with equal values keep
their order in the node, and that order fixes how the MSE sums round.

One grower builds every tree: a frontier of open nodes, from one tree or
many, searched a step at a time with array calls over all their rows (see
_Frontier). A step orders the rows of all its candidate features with one
sort of packed int keys, and counts classes class-major, one cumulative
count per class; it adds the classes' Gini terms in the order numpy's row
sums add them, so every gain, and so every tree, is the one the per-node
search found. A tree that draws a feature subset per split (a forest tree)
puts its next preorder node into each step, so its draws come in the order
a one-node-at-a-time grower makes them; a tree that draws none (an
explainer tree) puts in all its open nodes and grows level by level. Given
one kept sample position, such a tree searches only the node that holds it
and grows that row's root-to-leaf path alone, the other child of each split
on it kept as a leaf (fidelity.evaluate_fidelity reads no more than the
query's leaf). A node's split depends on its own rows only, so the path's
nodes, its leaf and the leaf's rows are the whole tree's. A
forest tree seeded s draws the subsets numpy's
Generator(PCG64(s)).choice(p, size=width, replace=False) returns, call after
call: Floyd's sampling with Lemire's bounded integers on the tree's 32-bit
PCG64 stream, then the draws of numpy's shuffle of the subset, all replayed
from the tree's raw words for every tree of a step at once (see _Draws). When
growth ends each leaf's rows are a slice of the grower's row buffer, so it
also reports the leaf every sample row reached, with no second routing.

A tree has one form, the struct-of-arrays layout of scikit-learn's `tree_`:
a NodeTable, whose columns are the ones model.json and explanation.json
store (oracle.forest_columns), plus one leaf-statistics array beside it.
The table keeps nothing another value decides: its nodes are in preorder,
so a split's left child is the node after it (the root is node 0), and the
schema's feature kind gives a split's test. A forest is the same table
with many roots: each tree's preorder nodes follow the previous tree's, and
child ids index the whole table. The grower numbers the nodes in preorder
once growth ends, from the slice of its row buffer each node held (see
_Frontier._preorder), and a loaded forest is built from its columns. A tree
stores nothing its table decides: tree_stats derives its depth and leaf
count where they are read.

Prediction walks a RoutePlan, which route_plan derives from the table, the
schema and the root ids, and which is never saved: each node becomes one
`<=` test on a widened row, and a leaf is its own child. The plan numbers
the nodes level by level from the roots, so a split's right and left
children are adjacent and each level is one contiguous run of ids; a step
reads one node's first child and adds the test's outcome. A forest derives
its plan from its roots once, when it is built (oracle.ForestModel). route
returns table leaf ids, one row per plan root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tabular import CLASSIFICATION, REGRESSION, Schema, SchemaError, check_rows, work_step

GINI = "gini"
MSE = "mse"

NUMERIC_LE = "numeric_le"
CATEGORY_EQ = "category_eq"


class NodeTable(NamedTuple):
    """Struct-of-arrays node table for one tree or a forest of them: the
    columns model.json and explanation.json store (see oracle.forest_columns).

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
    schema: Schema  # with a target: grow_trees refuses a schema without one

    @property
    def task(self) -> str:
        return self.schema.target.kind


def _gini(counts: np.ndarray, n) -> np.ndarray:
    """Gini impurity of groups of n >= 1 rows from their class-major counts:
    counts[k] holds class k's count in each group. The squared shares add in
    the order numpy's sum adds a row of a C-contiguous (groups, classes)
    block, as the per-node search summed them: class by class below 8
    classes; from 8 up numpy's sum is pairwise, so such a block is summed."""
    p = counts / n
    sq = p * p
    if len(sq) >= 8:
        return 1.0 - np.ascontiguousarray(sq.T).sum(axis=-1)
    total = sq[0]
    for share in sq[1:]:
        total = total + share
    return 1.0 - total


def _check_packable(bound: int, size: int) -> None:
    """Refuse size int keys below bound whose packed values key * size +
    position would not fit in int64."""
    if bound * size >= 2 ** 63:
        raise ValueError(f"{size} keys below {bound} do not pack into int64 "
                         f"({bound} * {size} >= 2**63): grow on fewer rows or features")


def _packed_sort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of int keys in [0, bound) and the keys in that order.
    One sort of the values key * T + position (T = len(keys)) gives both: the
    values are unique, so the order is the same under any sort algorithm, and
    ties keep their positions' order."""
    T = len(keys)
    _check_packable(bound, T)
    packed = keys * T
    packed += np.arange(T)
    packed.sort()
    ordered = packed // T
    packed -= ordered * T  # the positions
    return packed, ordered


class _Draws:
    """The feature draws of forest trees, replayed from each tree's PCG64
    stream, for all the trees of a grower step in one array pass.

    A tree drawn (seed, width) searches at each split the features numpy's
    Generator(PCG64(seed)).choice(p, size=width, replace=False) returns, in
    the order of successive calls; the replay draws the same stream with no
    Generator. The stream is 32-bit: each raw 64-bit word gives its low half,
    then its high half. bounded(j), a uniform integer in [0, j], takes no
    draw when j is 0; else it takes a draw u, m = u * (j + 1), again while m
    mod 2**32 < (2**32 - (j + 1)) mod (j + 1) (Lemire's rejection), and
    returns m >> 32. A split's set is Floyd's: for j = p - width .. p - 1,
    v = bounded(j) joins it, or j does when v is in it already; then numpy
    shuffles the set with bounded(i) for i = width - 1 .. 1, values the set
    does not need but draws that advance the stream. numpy takes a large
    sample of a large population (p > 10000 and width > p // 50) by a
    partial shuffle instead, so such widths are refused.

    A step gathers each tree's draws as if none rejects (a chance near 1e-9
    per draw at p = 6); a tree whose draws reject takes the same algorithm one
    value at a time. Each tree reads its raw words from a block of fixed
    size, refilled from its stream when a step's draws would pass its end.
    """

    def __init__(self, draws, p: int):
        trees = [t for t, d in enumerate(draws) if d is not None]
        self.p, self.gens = p, [np.random.PCG64(draws[t][0]) for t in trees]
        self.slot = np.full(len(draws), -1)  # each drawing tree's row of the blocks
        self.slot[trees] = np.arange(len(trees))
        self.width = np.array([-1 if d is None else d[1] for d in draws], np.int64)
        # per width: each draw's bound (Floyd's j, then the shuffle's i), its
        # place among the step's draws, Lemire's span and threshold, the draw count
        self.plans = {}
        for w in sorted({draws[t][1] for t in trees}):
            if not 0 <= w <= p or (p > 10000 and w > p // 50):
                raise ValueError(f"cannot draw {w} of {p} features: the draws replay Floyd's "
                                 f"algorithm, which numpy runs for 0 <= width <= p, and for "
                                 f"width <= p // 50 once p > 10000")
            bound = np.concatenate((np.arange(p - w, p), np.arange(w - 1, 0, -1)))
            takes, span = bound > 0, bound.astype(np.uint64) + 1
            self.plans[w] = (bound, takes.cumsum() - takes, span,
                             ((2 ** 32 - span) % span).astype(np.uint32), int(takes.sum()))
        need = max((plan[-1] for plan in self.plans.values()), default=0)
        # words per block: about 32 steps' draws, all blocks within the work
        # budget, and room for one step's draws past a half-read word
        size = max(need + 1, min(16 * need, work_step(8 * len(trees))))
        self.words = np.zeros((len(trees), size), "<u8")
        self.halves = self.words.view("<u4")  # the 32-bit stream: low half, then high
        self.pos = np.full(len(trees), 2 * size)  # each tree's next half: all read

    def candidates(self, trees) -> np.ndarray:
        """The features each entry of trees searches at its next split, as a
        (len(trees), p) mask: every feature for a tree that draws none. A
        tree that draws is in trees at most once."""
        cand = np.ones((len(trees), self.p), bool)
        width = self.width[trees]
        for w in self.plans:
            at = (width == w).nonzero()[0]
            if len(at):
                cand[at] = self._take(self.slot[trees[at]], w)
        return cand

    def _take(self, rows, w: int) -> np.ndarray:
        """The next draw of each of rows, all of width w, in one gather."""
        bound, offset, span, floor, need = self.plans[w]
        end = self.halves.shape[1]
        for r in rows[self.pos[rows] + need >= end].tolist():
            self._refill(r)
        start = rows * end + self.pos[rows]
        m = self.halves.ravel().take(start[:, None] + offset) * span
        slow = (m.astype(np.uint32) < floor).any(axis=1)  # m mod 2**32 below the threshold
        self.pos[rows] += need * ~slow  # a tree whose draws reject reads them again
        cand = np.zeros((len(rows), self.p), bool)
        flat, base = cand.ravel(), np.arange(len(rows))[:, None] * self.p
        m >>= np.uint64(32)
        v, j = m.view(np.int64)[:, :w] + base, bound[:w] + base
        for k in range(w):  # Floyd's loop, every tree at once
            flat[np.where(flat[v[:, k]], j[:, k], v[:, k])] = True
        for a in slow.nonzero()[0].tolist():
            cand[a] = self._one(int(rows[a]), w)
        return cand

    def _one(self, r: int, w: int) -> np.ndarray:
        """Row r's next draw of width w, one value at a time."""
        cand = np.zeros(self.p, bool)
        for k, j in enumerate(self.plans[w][0].tolist()):
            v = 0  # bounded(0) takes no draw
            while j:
                if self.pos[r] == self.halves.shape[1]:
                    self._refill(r)
                m = int(self.halves[r, self.pos[r]]) * (j + 1)
                self.pos[r] += 1
                if m % 2 ** 32 >= (2 ** 32 - (j + 1)) % (j + 1):
                    v = m >> 32
                    break
            if k < w:  # Floyd's loop; the shuffle's values are not needed
                cand[j if cand[v] else v] = True
        return cand

    def _refill(self, r: int) -> None:
        """Keep row r's unread words at the front of its block and fill the
        rest from its stream."""
        used, size = int(self.pos[r]) // 2, self.words.shape[1]
        self.words[r, :size - used] = self.words[r, used:]
        self.words[r, size - used:] = self.gens[r].random_raw(used)
        self.pos[r] -= 2 * used


class _Frontier:
    """Grows CART trees on rows of X, many trees and many nodes per step.

    A step searches a batch of open nodes at once. Each (node, candidate
    feature) pair takes a copy of the node's rows, and one sort of the packed
    int keys (pair, value key, position) orders every pair by value, ties in
    the node's row order (see _packed_sort); a numeric value's key is its
    rank, a category is its own key. Each run of equal keys is a candidate:
    on a numeric feature the rows up to and including the run go left, on a
    categorical one the run alone. Class counts are class-major: one
    cumulative count per class along all the step's sorted rows, from which
    each candidate's left counts are exact differences, and _gini adds the
    classes' squared shares as the per-node search's row sums did. The MSE
    sums run per pair (numeric) or per run (categorical) along the rows of a
    zero-padded array, in the order of the per-node search they replaced,
    so every gain rounds as it did. Node sums, variances and
    leaf means take numpy's var and mean reductions once per run of
    equal-size nodes, on a (nodes, size) block of labels: a sum along each
    row of a C-contiguous block is pairwise, so each rounds as on its node.
    """

    def __init__(self, X, y, schema: Schema, n_classes: int):
        self.y, self.schema, self.task, self.K = y, schema, schema.target.kind, n_classes
        self.n, self.p = X.shape
        self.numeric = schema.numeric_mask()
        keys = np.zeros(X.shape, np.int64)
        keys[:, ~self.numeric] = X[:, ~self.numeric]  # a category is its own key
        for f in self.numeric.nonzero()[0]:
            keys[:, f] = np.unique(X[:, f], return_inverse=True)[1].reshape(-1)
        self.B = int(keys.max(initial=0)) + 1
        self.Xf, self.Vf = X.T.ravel(), keys.T.ravel()  # (row, feature) at f * n + row

    def grow(self, samples, draws, keep=None) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
        """Grow tree t on rows samples[t] of X, searching every feature at
        each split when draws[t] is None, or `width` features drawn from the
        PCG64 stream seeded `seed` when draws[t] is (seed, width) (see
        _Draws); return one table with each tree's nodes in preorder after
        the tree before it, the trees' root ids, and the leaf id each sample
        row reached (one per entry of the concatenated samples).

        A tree that draws features adds only its next preorder stack pop to a
        step, so its draws come in preorder, one per split search, as a
        one-node-at-a-time grower makes them; a tree that draws none adds all
        its open nodes and grows level by level. With keep, tree t searches
        only the nodes holding sample position keep[t]: it grows that row's
        root-to-leaf path, whose nodes and leaf are the whole tree's, and
        every node off the path is a leaf.
        """
        if any(len(rows) == 0 for rows in samples):
            raise ValueError("cannot fit a tree on zero rows")
        self.draws = _Draws(draws, self.p)
        width = [self.p if d is None else d[1] for d in draws]
        # each node's rows are a slice of one buffer of sample positions
        # (entries of the concatenated samples); a split reorders its slice
        self.ids = np.concatenate(samples)  # the row of X at each sample position
        self.rows = np.arange(len(self.ids))
        ends = np.cumsum([len(rows) for rows in samples]).tolist()
        self.keep = None if keep is None else np.asarray(keep, dtype=np.int64)
        if self.keep is not None:  # a drawing tree's draws follow every search it makes
            lo = np.subtract(ends, [len(rows) for rows in samples])
            if any(draws) or self.keep.shape != lo.shape or not (
                    (lo <= self.keep) & (self.keep < ends)).all():
                raise ValueError("keep names one sample position of each tree's own sample, "
                                 "and every tree must draw no features")
        self.stacks = [[(t, t, ends[t] - len(rows), ends[t])]  # (tree, id, lo, hi)
                       for t, rows in enumerate(samples)]
        # one record per node id, grown by doubling: its feature, its value
        # (a split's threshold or category, a leaf's prediction), its slice
        # [lo, hi) of the buffer and its leaf stats, each int in the
        # narrowest type that holds it; a split's children take the next two
        # ids, above its own
        self.cols = np.zeros(4 * len(samples), [
            ("feat", np.min_scalar_type(-max(self.p, 1))), ("value", float),
            ("lo", np.min_scalar_type(len(self.ids))), ("hi", np.min_scalar_type(len(self.ids))),
            ("stats", np.min_scalar_type(max(map(len, samples))), (self.K or 1,))])
        self.n_ids = len(samples)
        while True:
            batch = []
            for t, stack in enumerate(self.stacks):
                if draws[t] is None:
                    batch += stack
                    stack.clear()
                elif stack:
                    batch.append(stack.pop())
            if not batch:
                return self._preorder(len(samples))
            # largest first: the MSE sums pad every node's rows to the first's
            # length, counted so, and _step takes runs of equal sizes, one-row last
            batch.sort(key=lambda node: node[2] - node[3])
            start, pairs, cap = 0, 0, work_step(128)  # about 128 B per (row, feature) pair
            for i, (t, _, lo, hi) in enumerate(batch):
                padded = batch[start][3] - batch[start][2] if self.task == REGRESSION else hi - lo
                pairs += padded * width[t]
                if pairs > cap and i > start:
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
        if self.keep is not None:  # so is a node off its tree's kept path
            held = np.zeros(m, bool)
            held[seg[P == self.keep[tree[seg]]]] = True
            alive &= held
        imp, sums = np.zeros(m), np.zeros((2, m))
        if self.task == CLASSIFICATION:  # (classes, nodes)
            counts = np.bincount(y[R] * m + seg, minlength=K * m).reshape(K, m)
            imp = _gini(counts, sizes)
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
            pred, stats = counts.argmax(axis=0), counts * leaf
        else:  # an internal node's pred is +0.0, where mean * leaf could give -0.0
            pred, stats = np.where(leaf, mean, 0.0), sizes * leaf
        cols = self.cols
        cols["feat"][ids], cols["value"][ids] = feat, np.where(leaf, pred, val)
        cols["lo"][ids], cols["hi"][ids] = lo, hi
        cols["stats"][ids] = stats.T.reshape(m, -1)
        if not len(split):
            return
        first, self.n_ids = self.n_ids, self.n_ids + 2 * len(split)
        if self.n_ids > len(cols):  # double (np.concatenate copies records slowly)
            grown = np.zeros(2 * len(cols), cols.dtype)
            grown[:len(cols)] = cols
            self.cols = cols = grown
        f_row = np.maximum(feat, 0)[seg]
        x, t = self.Xf[f_row * self.n + R], val[seg]
        go_left = np.where(self.numeric[f_row], x <= t, x == t)
        moving = (~leaf[seg]).nonzero()[0]
        order = _packed_sort(2 * seg[moving] + ~go_left[moving], 2 * m)[0]
        self.rows[at[moving]] = P[moving[order]]  # left rows, then right rows
        mid = lo[split] + n_left
        for i, (j, s) in enumerate(zip(split.tolist(), mid.tolist())):
            t, c = int(tree[j]), first + 2 * i
            self.stacks[t] += [(t, c + 1, s, int(hi[j])), (t, c, int(lo[j]), s)]

    def _search(self, search, tree, R, sizes, starts, imp, counts, sums):
        """Best split of each node in search: (batch positions of the nodes
        that split, their features, values and left row counts)."""
        n, B = self.n, self.B
        # (node, feature) pairs, node-major, features ascending
        pi, pf = np.nonzero(self.draws.candidates(tree[search]))
        if not len(pi):  # no node to search, or a schema without features
            return [np.empty(0, np.int64)] * 4
        pn = search[pi]
        psize = sizes[pn]
        pend = psize.cumsum()
        pstart, T = pend - psize, int(pend[-1])
        rid = R[np.arange(T) + (starts[pn] - pstart).repeat(psize)]
        col = (pf * n).repeat(psize) + rid
        keys = (np.arange(len(pn)) * B).repeat(psize) + self.Vf[col]
        o, keys = _packed_sort(keys, len(pn) * B)
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
        if self.task == CLASSIFICATION:  # (classes, candidates)
            C = np.zeros((self.K, T + 1), np.int64)
            np.cumsum(ys == np.arange(self.K)[:, None], axis=1, out=C[:, 1:])
            lc = C.take(gend + 1, axis=1) - C.take(base, axis=1)
            gains = imp[node] - (nl * _gini(lc, nl)
                                 + nr * _gini(counts.take(node, axis=1) - lc, nr)) / nn
        else:
            run, pair = np.concatenate(([0], new_run.cumsum())), keys // B
            pos = np.arange(T) - np.where(self.numeric[pf[pair]], pstart[pair], gstart[run])
            sid = np.cumsum(pos == 0) - 1  # each pair (numeric) or run (categorical) a row
            W = int(pos.max()) + 1
            M = np.zeros((int(sid[-1]) + 1, W))
            M.ravel()[sid * W + pos] = ys
            S1, S2 = M.cumsum(axis=1).ravel(), (M * M).cumsum(axis=1).ravel()
            gs, last = sid[gend] * W, np.where(num, nn - 1, 0)
            l1, l2 = S1.take(gs + nl - 1), S2.take(gs + nl - 1)
            t1 = np.where(num, S1.take(gs + last), sums[0, node])
            t2 = np.where(num, S2.take(gs + last), sums[1, node])
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
        with np.errstate(over="ignore"):  # a sum past the float maximum falls back below
            mid = (a + b) / 2.0
        # adjacent floats or an overflowed sum: fall back to the left value
        val = np.where(num[best] & (a <= mid) & (mid < b), mid, a)
        return node[best], pf[gp[best]], val, nl[best]

    def _preorder(self, n_trees: int) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
        """The recorded nodes in preorder, the trees' root places and the
        leaf place of each sample position, read off the nodes' slices of the
        row buffer. A split puts its left rows before its right rows. A left
        child starts where its parent starts and has the higher id, so places
        follow lo, ties by id, and the leaves' slices come in preorder. A
        right child ends where its parent ends, and the left subtree between
        them ends earlier, so a split's right child is the next place that
        ends where it does."""
        self.ids = self.Xf = self.Vf = None  # growth is over: free its buffers first
        cols, self.cols = self.cols[:self.n_ids], None
        at = np.argsort(cols["lo"], kind="stable")
        chain = np.argsort(cols["hi"][at], kind="stable")
        right = np.zeros(len(at), np.int64)
        right[chain[:-1]] = chain[1:]
        feat, value = cols["feat"][at].astype(np.int64), cols["value"][at]
        stats, roots = cols["stats"][at].astype(np.int64), (at < n_trees).nonzero()[0]
        del cols, at, chain  # a forest's columns are large: free them before the table is built
        split = feat >= 0
        table = NodeTable(feat, np.where(split, value, 0.0), np.where(split, right, 0),
                          np.where(split, 0.0, value))
        tree = ExplainerTree(table, stats if self.task == CLASSIFICATION else stats[:, 0],
                             self.schema)
        leaf = (feat < 0).nonzero()[0]
        leaves = np.empty_like(self.rows)
        leaves[self.rows] = leaf.repeat(stats[leaf].sum(axis=1))
        return tree, roots, leaves


def grow_trees(X, y, schema: Schema, samples, draws,
               keep=None) -> tuple[ExplainerTree, np.ndarray, np.ndarray]:
    """Grow tree t on rows samples[t] of X (row indices) with feature draws
    draws[t] -- None for an explainer tree, (seed, width) for a forest tree --
    all in one frontier (see _Frontier.grow); returns the table, the root ids
    and, for each entry of np.concatenate(samples), the id of the leaf that
    row reached in its tree. The schema's target states the task and the
    classes: a schema without one raises SchemaError. With keep, one entry
    of np.concatenate(samples) per tree, from its own sample, each explainer
    tree grows only that entry's root-to-leaf path (see _Frontier.grow).

    A forest tree searches, at each split, the width features its next
    Floyd's sample from its PCG64(seed) stream names: the set
    Generator(PCG64(seed)).choice(p, size=width, replace=False) would return
    (see _Draws). A width outside 0..p, or above p // 50 when p > 10000
    (where numpy samples by a partial shuffle instead), raises ValueError."""
    if schema.target is None:
        raise SchemaError("growing a tree needs a schema whose target states the task")
    X = np.asarray(X, dtype=float)
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    if schema.target.kind == CLASSIFICATION:
        y, n_classes = np.asarray(y).astype(np.int64), len(schema.target.classes)
        # a label outside 0..K-1 would count in no class of the class-major counts
        if y.min(initial=0) < 0 or y.max(initial=-1) >= n_classes:
            label = y[(y < 0) | (y >= n_classes)][0]
            raise ValueError(f"class label {label} is outside 0..{n_classes - 1} "
                             f"for {n_classes} classes")
    else:
        y, n_classes = np.asarray(y).astype(float), 0
        # a node's square sum adds a squared label per row: it stays finite
        # while |label| <= sqrt(max / rows), past that a gain may be NaN
        rows = max(map(len, samples), default=1)
        big = float(y[np.abs(y).argmax()]) if len(y) else 0.0
        if not abs(big) <= np.sqrt(np.finfo(float).max / max(rows, 1)):
            raise ValueError(f"regression label {big!r} is too large: its square sums "
                             f"over {rows} rows overflow")
    return _Frontier(X, y, schema, n_classes).grow(samples, draws, keep)


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
                                 tree.leaf_stats[a:b], tree.schema))
    return out


# steps between two drops of the pairs at a leaf (a schedule, not a memory size)
ROUTE_STEPS = 16


class RoutePlan(NamedTuple):
    """A node table as one `<=` test per node, numbered level by level for
    routing (see route_plan).

    Plan node i sends a widened row to first[i] + (wide[col[i]] <= thr[i]):
    a split's right child is first[i] and its left child first[i] + 1. The
    first n_roots plan nodes are route_plan's roots in their order, and each
    next level, one contiguous run of ids, holds the (right, left) children
    of the previous level's splits; ids[i] is the table id of plan node i.
    The widened row holds the row's first n_row columns, then one column per
    (cat_feat[j], cat_val[j]) pair: -1.0 where the row has that category,
    else 0.0, then one column of 0.0. A leaf tests that last column against
    +inf, and its first is its own id - 1, so it is its own child.
    """

    col: np.ndarray
    thr: np.ndarray
    first: np.ndarray
    ids: np.ndarray
    n_roots: int
    n_row: int
    cat_feat: np.ndarray
    cat_val: np.ndarray


def _levels(table: NodeTable, roots) -> list[np.ndarray]:
    """The nodes under the roots level by level, ending in an empty level:
    level 0 is the roots in the order given, and each next level holds the
    (right, left) children of the previous level's splits."""
    level = np.asarray(roots, dtype=np.int64)
    if ((level < 0) | (level >= len(table.feat))).any():
        raise ValueError(f"root ids must lie in 0..{len(table.feat) - 1}, not {level.tolist()}")
    levels = [level]
    while len(level):
        inner = level[table.feat[level] >= 0]
        level = np.stack((table.right[inner], inner + 1), 1).ravel()
        levels.append(level)
    return levels


def route_plan(tree: ExplainerTree, roots) -> RoutePlan:
    """The routing plan of the trees of a node table under the given root
    ids, a split's kind read from the schema. A numeric split tests its
    feature's column against its threshold, and a categorical split tests
    its (feature, category) column against -0.5, so a NaN or a category no
    split tests goes right, as the table's own tests send it; a leaf reads no
    column of the row, so a NaN never moves a pair off it."""
    # the children of level k's splits, in plan order, make level k + 1, so
    # the j-th split in plan order has its right child at n_roots + 2j
    levels = _levels(tree.table, roots)
    ids, n_roots = np.concatenate(levels), len(levels[0])
    del levels  # ids holds them: 2 MB at 253,036 nodes
    col, thr = tree.table.feat[ids], tree.table.val[ids]  # plan order, rewritten in place
    split = col >= 0
    num = np.append(tree.schema.numeric_mask(), False)[col]  # a leaf's -1 reads the False
    cat = split & ~num
    pairs, pair_of = np.unique(np.stack((col[cat], thr[cat])), axis=1, return_inverse=True)
    n_row = int(col[num].max(initial=-1)) + 1
    col[~num] = n_row + len(pairs[0])  # a leaf reads the last column
    col[cat] = n_row + pair_of.reshape(-1)
    thr[~num] = np.inf
    thr[cat] = -0.5
    first = np.arange(-1, len(ids) - 1)
    first[split] = n_roots + 2 * np.arange(int(split.sum()))
    return RoutePlan(col, thr, first, ids, n_roots, n_row, pairs[0].astype(np.int64), pairs[1])


def _widen(plan: RoutePlan, rows: np.ndarray) -> np.ndarray:
    """The rows as the plan's widened rows, ending in the leaves' 0.0 column."""
    q, m = plan.n_row, len(plan.cat_feat)
    wide = np.zeros((len(rows), q + m + 1))
    wide[:, :q] = rows[:, :q]
    wide[:, q:q + m] -= rows[:, plan.cat_feat] == plan.cat_val
    return wide


def route(plan: RoutePlan, rows: np.ndarray) -> np.ndarray:
    """Table leaf ids of every row from every root of the plan, shape
    (plan.n_roots, n_rows), one row per root in the plan's order.

    The rows are widened once (see RoutePlan), and all (root, row) pairs
    descend together through plan ids, a step being three node gathers and
    one row gather. A leaf keeps the pairs that reach it, so the live pairs
    take ROUTE_STEPS steps between drops of those at a leaf, whose plan ids
    map back to table ids through plan.ids. All pairs go at once: a caller
    bounds the memory by the rows it passes (as ForestModel.predict_batch
    does).
    """
    wide = _widen(plan, np.asarray(rows, dtype=float))
    (n, width), flat = wide.shape, wide.ravel()
    col, thr, first = plan.col, plan.thr, plan.first
    out = np.empty(plan.n_roots * n, dtype=np.int64)  # pair k * n + i is row i at root k
    pair = np.arange(len(out))
    base, node = np.tile(np.arange(n) * width, plan.n_roots), np.arange(plan.n_roots).repeat(n)
    while len(pair):
        for _ in range(ROUTE_STEPS):
            last = node
            node = first.take(node) + (flat.take(base + col.take(node)) <= thr.take(node))
        done = node == last  # a split's children come after it
        out[pair[done]] = plan.ids.take(node[done])
        pair, base, node = pair[~done], base[~done], node[~done]
    return out.reshape(plan.n_roots, n)


def decision_path(tree: ExplainerTree, inst: np.ndarray) -> list[tuple[int, str, float, bool]]:
    """Root-to-leaf tests for inst as (feature, kind, value, branch_taken_true)."""
    inst = np.asarray(inst, dtype=float)
    check_rows(tree.schema, inst[None])
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
    table: the depth is the number of levels below the root (see _levels)."""
    leaves = int((tree.table.feat < 0).sum())
    return {
        "depth": len(_levels(tree.table, [0])) - 2,
        "leaf_count": leaves,
        "node_count": 2 * leaves - 1,
    }
