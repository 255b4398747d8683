"""CART trees grown without pruning, for surrogate explainers and forest bases.

Splits are binary and axis-aligned: numeric features test `value <= threshold`
(thresholds at midpoints between consecutive distinct sorted values),
categorical features test `value == category` one-vs-rest. The true branch is
the left child. Growth stops only at purity, min_samples_split, max_depth, or
when no two-sided split exists (all remaining rows identical). Zero-gain
splits are accepted -- XOR-shaped nodes have no positive-gain split, yet must
be grown through -- so the default configuration reaches zero training error
whenever no two rows share a feature vector with different labels.

Tie-breaking is deterministic: best gain wins; ties go to the lowest feature
index, then the lowest threshold / category index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tabular import CLASSIFICATION, REGRESSION, Schema, validate_instance

GINI = "gini"
ENTROPY = "entropy"
MSE = "mse"

NUMERIC_LE = "numeric_le"
CATEGORY_EQ = "category_eq"


@dataclass(frozen=True)
class CartConfig:
    criterion: str = GINI
    min_samples_split: int = 2
    max_depth: int | None = None
    seed: int = 0
    feature_subsample: int | None = None

    def __post_init__(self):
        if self.criterion not in (GINI, ENTROPY, MSE):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


class TreeNode:
    """Internal node (feature test + children) or leaf (prediction + stats)."""

    __slots__ = ("feature", "kind", "value", "left", "right", "prediction", "counts", "stats")

    def __init__(self):
        self.feature = None
        self.kind = None
        self.value = None
        self.left = None
        self.right = None
        self.prediction = None
        self.counts = None
        self.stats = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class NodeTable(NamedTuple):
    """Struct-of-arrays node table for one tree or many packed together.

    Node i is a leaf when feat[i] < 0, and then pred[i] is its prediction.
    Otherwise it tests row[feat[i]] <= val[i] (is_le[i]) or row[feat[i]] ==
    val[i] and sends the row to left[i] when the test holds, else right[i].
    """

    feat: np.ndarray
    is_le: np.ndarray
    val: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pred: np.ndarray


@dataclass(eq=False)
class ExplainerTree:
    root: TreeNode
    schema: Schema
    task: str
    n_classes: int
    depth: int
    leaf_count: int

    def __post_init__(self):
        self.table = self._flatten()

    def _flatten(self) -> NodeTable:
        """Array form of the tree for vectorized routing; the root is node 0."""
        nodes: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        ids = {id(n): i for i, n in enumerate(nodes)}
        m = len(nodes)
        t = NodeTable(np.full(m, -1, dtype=np.int64), np.zeros(m, dtype=bool), np.zeros(m),
                      np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64), np.zeros(m))
        for i, n in enumerate(nodes):
            if n.is_leaf:
                t.pred[i] = n.prediction
            else:
                t.feat[i] = n.feature
                t.is_le[i] = n.kind == NUMERIC_LE
                t.val[i] = n.value
                t.left[i] = ids[id(n.left)]
                t.right[i] = ids[id(n.right)]
        return t


def _gini(counts: np.ndarray, n) -> np.ndarray:
    p = counts / np.maximum(n, 1)
    return 1.0 - (p * p).sum(axis=-1)


def _entropy(counts: np.ndarray, n) -> np.ndarray:
    p = counts / np.maximum(n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(p > 0, p * np.log2(p, where=p > 0), 0.0)
    return -term.sum(axis=-1)


def _class_impurity(counts, n, criterion):
    return _entropy(counts, n) if criterion == ENTROPY else _gini(counts, n)


class _Grower:
    def __init__(self, X, y, schema: Schema, cfg: CartConfig, task, n_classes):
        self.X = X
        self.y = y
        self.schema = schema
        self.cfg = cfg
        self.task = task
        self.n_classes = n_classes
        self.numeric = schema.numeric_mask()
        self.rng = (
            np.random.default_rng(cfg.seed)
            if cfg.feature_subsample is not None and cfg.feature_subsample < schema.n_features
            else None
        )
        self.depth = 0
        self.leaves = 0

    def candidate_features(self):
        p = self.schema.n_features
        if self.rng is None:
            return range(p)
        sub = self.rng.choice(p, size=self.cfg.feature_subsample, replace=False)
        return np.sort(sub)

    def node_impurity(self, y_node):
        if self.task == CLASSIFICATION:
            counts = np.bincount(y_node, minlength=self.n_classes)
            return float(_class_impurity(counts, len(y_node), self.cfg.criterion)), counts
        v = y_node.var() if len(y_node) else 0.0
        return float(v), None

    def best_split(self, idx, parent_imp):
        """Best (gain, feature, kind, value) over candidate features, or None.

        Candidates always leave both sides non-empty, so accepting the best
        one -- even at zero gain -- strictly shrinks the children and the
        recursion terminates. None only when every candidate feature is
        constant over the node.
        """
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
            il = _class_impurity(lc, nl[:, None], self.cfg.criterion)
            ir = _class_impurity(rc, nr[:, None], self.cfg.criterion)
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
        best = None
        if self.task == CLASSIFICATION:
            # counts[c, k] = rows with category c and class k
            counts = np.zeros((len(cats), self.n_classes))
            np.add.at(counts, (inverse, y_node), 1.0)
            total = counts.sum(axis=0)
            nl = counts.sum(axis=1)
            nr = n - nl
            il = _class_impurity(counts, nl[:, None], self.cfg.criterion)
            ir = _class_impurity(total - counts, nr[:, None], self.cfg.criterion)
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

    def grow(self, root_idx) -> TreeNode:
        # explicit preorder stack: unpruned trees on conflicted data can grow
        # deeper than the interpreter recursion limit
        root = TreeNode()
        stack = [(root, root_idx, 0)]
        while stack:
            node, idx, depth = stack.pop()
            self.depth = max(self.depth, depth)
            y_node = self.y[idx]
            imp, counts = self.node_impurity(y_node)
            n = len(idx)

            stop = (
                n < self.cfg.min_samples_split
                or imp <= 0.0
                or (self.cfg.max_depth is not None and depth >= self.cfg.max_depth)
            )
            split = None if stop else self.best_split(idx, imp)
            if split is None:
                self.leaves += 1
                if self.task == CLASSIFICATION:
                    node.prediction = int(np.argmax(counts))
                    node.counts = counts.astype(np.int64)
                else:
                    m = float(y_node.mean())
                    node.prediction = m
                    node.stats = {"n": int(n), "mean": m}
                continue

            _, f, kind, value = split
            node.feature = int(f)
            node.kind = kind
            node.value = float(value)
            col = self.X[idx, f]
            mask = col <= value if kind == NUMERIC_LE else col == value
            node.left = TreeNode()
            node.right = TreeNode()
            stack.append((node.right, idx[~mask], depth + 1))
            stack.append((node.left, idx[mask], depth + 1))
        return root


def fit_tree(rows: np.ndarray, labels: np.ndarray, schema: Schema, cfg: CartConfig,
             task: str | None = None) -> ExplainerTree:
    """Grow a CART tree; task defaults to the label dtype (ints = classification)."""
    X = np.asarray(rows, dtype=float)
    y = np.asarray(labels)
    if len(X) == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    if task is None:
        task = CLASSIFICATION if np.issubdtype(y.dtype, np.integer) else REGRESSION
    if task == CLASSIFICATION:
        y = y.astype(np.int64)
        if schema.target is not None and schema.target.classes is not None:
            n_classes = len(schema.target.classes)
        else:
            n_classes = int(y.max()) + 1
    else:
        y = y.astype(float)
        n_classes = 0
        if cfg.criterion in (GINI, ENTROPY):
            cfg = CartConfig(MSE, cfg.min_samples_split, cfg.max_depth, cfg.seed,
                             cfg.feature_subsample)

    grower = _Grower(X, y, schema, cfg, task, n_classes)
    root = grower.grow(np.arange(len(X)))
    return ExplainerTree(root, schema, task, n_classes, grower.depth, grower.leaves)


# (row, root) pairs routed at once; bounds the index arrays of one pass
ROUTE_CHUNK_PAIRS = 1 << 15


def pack_tables(tables) -> tuple[NodeTable, np.ndarray]:
    """Concatenate node tables into one, children shifted by each table's offset.

    Returns the packed table and the root offsets, one per input table.
    """
    sizes = np.array([len(t.feat) for t in tables], dtype=np.int64)
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    shift = np.repeat(roots, sizes)
    packed = NodeTable(*(np.concatenate(col) for col in zip(*tables)))
    return packed._replace(left=packed.left + shift, right=packed.right + shift), roots


def route(table: NodeTable, roots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Leaf predictions of every row from every root, shape (len(roots), n_rows).

    All (root, row) pairs descend together: each pass gathers the test of
    every pair still at an internal node, steps it to a child and drops the
    pairs that reached a leaf. Rows go in chunks of at most ROUTE_CHUNK_PAIRS
    pairs.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    out = np.empty((len(roots), len(rows)))
    step = max(1, ROUTE_CHUNK_PAIRS // len(roots))
    for a in range(0, len(rows), step):
        out[:, a:a + step] = _route_chunk(table, roots, rows[a:a + step])
    return out


def _route_chunk(t: NodeTable, roots, rows) -> np.ndarray:
    n, p = rows.shape
    flat_rows = rows.ravel()
    node = np.repeat(roots, n)  # tree-major: pair k * n + i is row i at root k
    pair = np.flatnonzero(t.feat[node] >= 0)
    cur = node[pair]
    base = (pair % n) * p  # offset of each pair's row in flat_rows
    while len(pair):
        v = flat_rows[base + t.feat[cur]]
        thr = t.val[cur]
        nxt = np.where(np.where(t.is_le[cur], v <= thr, v == thr), t.left[cur], t.right[cur])
        inner = t.feat[nxt] >= 0
        node[pair] = nxt
        pair, cur, base = pair[inner], nxt[inner], base[inner]
    return t.pred[node].reshape(len(roots), n)


def predict_batch(tree: ExplainerTree, rows: np.ndarray) -> np.ndarray:
    """Predictions for many rows at once (iterative array routing)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    preds = route(tree.table, np.zeros(1, dtype=np.int64), rows)[0]
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
    path = []
    node = tree.root
    while not node.is_leaf:
        v = inst[node.feature]
        taken = v <= node.value if node.kind == NUMERIC_LE else v == node.value
        path.append((node.feature, node.kind, node.value, bool(taken)))
        node = node.left if taken else node.right
    return path


def tree_stats(tree: ExplainerTree) -> dict:
    return {
        "depth": tree.depth,
        "leaf_count": tree.leaf_count,
        "node_count": 2 * tree.leaf_count - 1,
    }


def _node_to_dict(node: TreeNode, schema: Schema, task: str) -> dict:
    if node.is_leaf:
        if task == CLASSIFICATION:
            leaf = {
                "prediction": schema.decode_label(node.prediction),
                "counts": [int(c) for c in node.counts],
            }
        else:
            leaf = {"prediction": node.prediction, "stats": dict(node.stats)}
        return {"leaf": leaf}
    if node.kind == NUMERIC_LE:
        test = {"kind": NUMERIC_LE, "threshold": node.value}
    else:
        test = {"kind": CATEGORY_EQ, "category": int(node.value)}
    return {
        "feature": node.feature,
        "test": test,
        "left": _node_to_dict(node.left, schema, task),
        "right": _node_to_dict(node.right, schema, task),
    }


def tree_to_dict(tree: ExplainerTree) -> dict:
    return _node_to_dict(tree.root, tree.schema, tree.task)


def _node_from_dict(d: dict, schema: Schema, task: str, depth, counter) -> TreeNode:
    node = TreeNode()
    if "leaf" in d:
        leaf = d["leaf"]
        counter["leaves"] += 1
        counter["depth"] = max(counter["depth"], depth)
        if task == CLASSIFICATION:
            node.prediction = int(schema.encode_label(leaf["prediction"]))
            node.counts = np.asarray(leaf["counts"], dtype=np.int64)
        else:
            node.prediction = float(leaf["prediction"])
            node.stats = dict(leaf["stats"])
        return node
    node.feature = int(d["feature"])
    test = d["test"]
    node.kind = test["kind"]
    node.value = float(test["threshold"] if node.kind == NUMERIC_LE else test["category"])
    node.left = _node_from_dict(d["left"], schema, task, depth + 1, counter)
    node.right = _node_from_dict(d["right"], schema, task, depth + 1, counter)
    return node


def tree_from_dict(d: dict, schema: Schema, task: str) -> ExplainerTree:
    counter = {"leaves": 0, "depth": 0}
    root = _node_from_dict(d, schema, task, 0, counter)
    n_classes = len(schema.target.classes) if (
        task == CLASSIFICATION and schema.target is not None
    ) else 0
    return ExplainerTree(root, schema, task, n_classes, counter["depth"], counter["leaves"])
