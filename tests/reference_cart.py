"""The per-node CART grower that the frontier grower in araucana.cart
replaced, and a per-row walk that cart.route is checked against.

The grower searches one node at a time, in preorder, with its own numpy calls
per candidate feature. It exists only as the reference that the frontier
grower's tests compare against: same splits, same thresholds, same node ids,
same leaf statistics, same rng draws, and, counted as it grows, the depth
and leaf count that cart.tree_stats derives from a table.
"""

from array import array

import numpy as np

from araucana.cart import CATEGORY_EQ, NUMERIC_LE, ExplainerTree, NodeTable
from araucana.tabular import CLASSIFICATION, Schema


class _Preorder:
    """Node columns appended in preorder, one tree after another; a split's
    right child is linked to it when that child is added. A node's stats are
    its class counts, or (row count,) for regression. It counts, as nodes are
    added, the deepest node's depth and the leaves."""

    def __init__(self, schema: Schema):
        self.schema, self.task = schema, schema.target.kind
        self.n_classes = len(schema.target.classes) if self.task == CLASSIFICATION else 0
        self.feat, self.right, self.stats = array("q"), array("q"), array("q")
        self.val, self.pred = array("d"), array("d")
        self.no_stats = [0] * self.n_classes if self.task == CLASSIFICATION else [0]
        self.depth = self.leaves = 0

    def add(self, depth: int, right_of: int, feature: int = -1, value: float = 0.0,
            pred: float = 0.0, stats=None) -> int:
        """Append one node and return its id; right_of is the split whose
        right child it is, or -1. A node without a feature is a leaf."""
        node = len(self.feat)
        if right_of >= 0:
            self.right[right_of] = node
        self.depth = max(self.depth, depth)
        self.leaves += feature < 0
        self.feat.append(feature)
        self.val.append(value)
        self.right.append(0)
        self.pred.append(pred)
        self.stats.extend(self.no_stats if stats is None else stats)
        return node

    def tree(self) -> ExplainerTree:
        """The nodes as an ExplainerTree; its arrays view the columns, which
        can take no more nodes after this."""
        stats = np.frombuffer(self.stats, dtype=np.int64)
        if self.task == CLASSIFICATION:
            stats = stats.reshape(len(self.feat), self.n_classes)
        table = NodeTable(np.frombuffer(self.feat, dtype=np.int64), np.frombuffer(self.val),
                          np.frombuffer(self.right, dtype=np.int64), np.frombuffer(self.pred))
        return ExplainerTree(table, stats, self.schema)


def reference_route(tree, roots, rows) -> np.ndarray:
    """Leaf ids of every row from every root of a tree's table, shape
    (len(roots), len(rows)): one Python walk per (root, row) over the table's
    own tests, `<=` on a feature the schema calls numeric and `==` on a
    categorical one, to the next node on a test that holds and to the right
    child otherwise."""
    numeric = tree.schema.numeric_mask().tolist()
    table = tree.table
    feat, val, right = table.feat.tolist(), table.val.tolist(), table.right.tolist()
    rows = np.asarray(rows, dtype=float).tolist()
    out = np.empty((len(roots), len(rows)), dtype=np.int64)
    for k, root in enumerate(roots):
        for i, row in enumerate(rows):
            node = int(root)
            while feat[node] >= 0:
                v, t = row[feat[node]], val[node]
                node = node + 1 if (v <= t if numeric[feat[node]] else v == t) else right[node]
            out[k, i] = node
    return out


def _gini(counts, n) -> np.ndarray:
    """Gini impurity of each row of counts, shape (rows, classes): the
    squared shares summed by numpy along the last axis of a C-contiguous
    block, the order the frontier grower's per-class adds follow."""
    p = counts / np.maximum(n, 1)
    return 1.0 - (p * p).sum(axis=-1)


class _Grower:
    """Grows one tree on rows of X (given as indices) into a _Preorder, after
    the nodes already in it; draw is None (search every feature) or (seed,
    width) (search width features drawn per split), as in cart.grow_trees."""

    def __init__(self, X, y, draw, nodes: _Preorder):
        self.X = X
        self.y = y
        self.nodes = nodes
        self.schema, self.task, self.n_classes = nodes.schema, nodes.task, nodes.n_classes
        self.numeric = self.schema.numeric_mask()
        self.rng = None if draw is None else np.random.default_rng(draw[0])
        self.width = None if draw is None else draw[1]

    def candidate_features(self):
        p = self.schema.n_features
        if self.rng is None:
            return range(p)
        return np.sort(self.rng.choice(p, size=self.width, replace=False))

    def node_impurity(self, y_node):
        if self.task == CLASSIFICATION:
            counts = np.bincount(y_node, minlength=self.n_classes)
            return float(_gini(counts, len(y_node))), counts
        v = y_node.var() if len(y_node) else 0.0
        return float(v), None

    def best_split(self, idx, parent_imp):
        """Best (gain, feature, kind, value) over candidate features, or None."""
        n = len(idx)
        y_node = self.y[idx]
        best = None  # (gain, feature, kind, value)
        for f in self.candidate_features():
            vals = self.X[idx, f]
            if self.numeric[f]:
                found = self._best_numeric(vals, y_node, n, parent_imp)
            else:
                found = self._best_categorical(vals, y_node, n, parent_imp)
            if found is None:
                continue
            gain, kind, value = found
            if best is None or gain > best[0]:
                best = (gain, f, kind, value)
        return best

    def _best_numeric(self, vals, y_node, n, parent_imp):
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cuts = np.flatnonzero(sv[:-1] < sv[1:])  # split after position i
        if len(cuts) == 0:
            return None
        sy = y_node[order]
        nl = (cuts + 1).astype(float)
        nr = n - nl
        if self.task == CLASSIFICATION:
            onehot = np.zeros((n, self.n_classes))
            onehot[np.arange(n), sy] = 1.0
            cum = onehot.cumsum(axis=0)
            lc = cum[cuts]
            rc = cum[-1] - lc
            il = _gini(lc, nl[:, None])
            ir = _gini(rc, nr[:, None])
        else:
            s1 = sy.cumsum()
            s2 = (sy * sy).cumsum()
            l1, l2 = s1[cuts], s2[cuts]
            r1, r2 = s1[-1] - l1, s2[-1] - l2
            il = np.maximum(l2 / nl - (l1 / nl) ** 2, 0.0)
            ir = np.maximum(r2 / nr - (r1 / nr) ** 2, 0.0)
        gains = parent_imp - (nl * il + nr * ir) / n
        k = int(np.argmax(gains))  # first max -> lowest threshold
        a, b = sv[cuts[k]], sv[cuts[k] + 1]
        mid = (a + b) / 2.0
        if not (a <= mid < b):  # adjacent floats: fall back to the left value
            mid = a
        return float(gains[k]), NUMERIC_LE, mid

    def _best_categorical(self, vals, y_node, n, parent_imp):
        cats, inverse = np.unique(vals.astype(np.int64), return_inverse=True)
        if len(cats) < 2:
            return None
        if self.task == CLASSIFICATION:
            # counts[c, k] = rows with category c and class k
            counts = np.zeros((len(cats), self.n_classes))
            np.add.at(counts, (inverse, y_node), 1.0)
            total = counts.sum(axis=0)
            nl = counts.sum(axis=1)
            nr = n - nl
            il = _gini(counts, nl[:, None])
            ir = _gini(total - counts, nr[:, None])
        else:
            s1 = np.bincount(inverse, weights=y_node, minlength=len(cats))
            s2 = np.bincount(inverse, weights=y_node * y_node, minlength=len(cats))
            nl = np.bincount(inverse, minlength=len(cats)).astype(float)
            nr = n - nl
            t1, t2 = y_node.sum(), (y_node * y_node).sum()
            nr_safe = np.maximum(nr, 1)
            il = np.maximum(s2 / nl - (s1 / nl) ** 2, 0.0)
            ir = np.maximum((t2 - s2) / nr_safe - ((t1 - s1) / nr_safe) ** 2, 0.0)
        gains = parent_imp - (nl * il + nr * np.where(nr > 0, ir, 0.0)) / n
        gains = np.where(nr > 0, gains, -np.inf)  # category covering the node splits nothing
        k = int(np.argmax(gains))  # cats ascending -> lowest category index
        if not np.isfinite(gains[k]):
            return None
        return float(gains[k]), CATEGORY_EQ, float(cats[k])

    def grow(self, root_idx) -> np.ndarray:
        """Grow the tree on rows root_idx of X; return the leaf id each entry
        of root_idx reached."""
        if len(root_idx) == 0:
            raise ValueError("cannot fit a tree on zero rows")
        nodes = self.nodes
        leaves = np.empty(len(root_idx), dtype=np.int64)
        # (places in root_idx, depth, split whose right child this is)
        stack = [(np.arange(len(root_idx)), 0, -1)]
        while stack:
            at, depth, right_of = stack.pop()
            idx = root_idx[at]
            y_node = self.y[idx]
            imp, counts = self.node_impurity(y_node)
            n = len(idx)

            # equal floats can have a nonzero variance
            pure = imp <= 0.0 if self.task == CLASSIFICATION else y_node.min() == y_node.max()
            split = None if n < 2 or pure else self.best_split(idx, imp)
            if split is None:
                if self.task == CLASSIFICATION:
                    leaves[at] = nodes.add(depth, right_of, pred=int(np.argmax(counts)),
                                           stats=counts)
                else:
                    leaves[at] = nodes.add(depth, right_of, pred=float(y_node.mean()), stats=(n,))
                continue

            _, f, kind, value = split
            node = nodes.add(depth, right_of, int(f), float(value))
            col = self.X[idx, f]
            mask = col <= value if kind == NUMERIC_LE else col == value
            stack.append((at[~mask], depth + 1, node))
            stack.append((at[mask], depth + 1, -1))
        return leaves


def reference_grow(X, y, schema, samples, draws):
    """Each (rows, draw) tree grown on its own by the per-node grower, one
    after another into one table, under the task and classes of the schema's
    target; returns (tree, root ids, the leaf id of each entry of the
    concatenated samples)."""
    nodes, roots, leaves = _grow_nodes(X, y, schema, samples, draws)
    return nodes.tree(), roots, leaves


def _grow_nodes(X, y, schema, samples, draws):
    X = np.asarray(X, dtype=float)
    nodes = _Preorder(schema)
    y = np.asarray(y).astype(np.int64 if nodes.task == CLASSIFICATION else float)
    roots, leaves = [], []
    for rows, draw in zip(samples, draws):
        roots.append(len(nodes.feat))
        leaves.append(_Grower(X, y, draw, nodes).grow(np.asarray(rows)))
    return nodes, np.array(roots), np.concatenate(leaves)


def reference_grow_tree(rows, labels, schema, draw=None):
    """One tree on every row, grown by the per-node grower; draw as in
    cart.grow_trees."""
    return reference_grow(rows, labels, schema, [np.arange(len(labels))], [draw])[0]


def reference_tree_stats(rows, labels, schema, draw=None) -> dict:
    """cart.tree_stats of one tree as the per-node grower counts them while it
    grows: the depth of its deepest node, its leaves and all its nodes."""
    nodes = _grow_nodes(rows, labels, schema, [np.arange(len(labels))], [draw])[0]
    return {"depth": nodes.depth, "leaf_count": nodes.leaves, "node_count": len(nodes.feat)}
