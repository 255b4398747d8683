"""The per-node CART grower that the frontier grower in araucana.cart replaced.

It searches one node at a time, in preorder, with its own numpy calls per
candidate feature. It exists only as the reference that the frontier grower's
tests compare against: same splits, same thresholds, same node ids, same leaf
statistics, same rng draws.
"""

import numpy as np

from araucana.cart import CATEGORY_EQ, NUMERIC_LE, _gini, _Preorder
from araucana.tabular import CLASSIFICATION, REGRESSION


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

            split = None if n < 2 or imp <= 0.0 else self.best_split(idx, imp)
            if split is None:
                if self.task == CLASSIFICATION:
                    leaves[at] = nodes.add(depth, right_of, pred=int(np.argmax(counts)),
                                           stats=counts)
                else:
                    leaves[at] = nodes.add(depth, right_of, pred=float(y_node.mean()), stats=(n,))
                continue

            _, f, kind, value = split
            node = nodes.add(depth, right_of, int(f), kind, float(value))
            col = self.X[idx, f]
            mask = col <= value if kind == NUMERIC_LE else col == value
            stack.append((at[~mask], depth + 1, node))
            stack.append((at[mask], depth + 1, -1))
        return leaves


def reference_grow(X, y, schema, task, samples, draws):
    """Each (rows, draw) tree grown on its own by the per-node grower, one
    after another into one table; returns (tree, root ids, the leaf id of
    each entry of the concatenated samples)."""
    X = np.asarray(X, dtype=float)
    if task == CLASSIFICATION:
        y = np.asarray(y).astype(np.int64)
        if schema.target is not None and schema.target.classes is not None:
            n_classes = len(schema.target.classes)
        else:
            n_classes = int(y.max(initial=-1)) + 1
    else:
        y, n_classes = np.asarray(y).astype(float), 0
    nodes = _Preorder(schema, task, n_classes)
    roots, leaves = [], []
    for rows, draw in zip(samples, draws):
        roots.append(len(nodes.feat))
        leaves.append(_Grower(X, y, draw, nodes).grow(np.asarray(rows)))
    return nodes.tree(), np.array(roots), np.concatenate(leaves)


def reference_fit_tree(rows, labels, schema, task=None, draw=None):
    """cart.fit_tree on the per-node grower; draw as in cart.grow_trees."""
    y = np.asarray(labels)
    if task is None:
        task = CLASSIFICATION if np.issubdtype(y.dtype, np.integer) else REGRESSION
    return reference_grow(rows, y, schema, task, [np.arange(len(y))], [draw])[0]
