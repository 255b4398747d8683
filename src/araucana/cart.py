"""CART trees grown without pruning, for surrogate explainers and forest bases.

Splits are binary and axis-aligned: numeric features test `value <= threshold`
(thresholds at midpoints between consecutive distinct sorted values),
categorical features test `value == category` one-vs-rest. The true branch is
the left child. Growth stops only at purity, min_samples_split, max_depth, or
when no two-sided split exists (all remaining rows identical). Zero-gain
splits are accepted -- XOR-shaped nodes have no positive-gain split, yet must
be grown through -- so the default configuration reaches zero training error
whenever no two rows share a feature vector with different labels.

The task decides the criterion: Gini impurity for classes, MSE for regression.
Tie-breaking is deterministic: best gain wins; ties go to the lowest feature
index, then the lowest threshold / category index.

A tree has one form, the struct-of-arrays layout of scikit-learn's `tree_`:
a NodeTable whose nodes are in preorder (the root is node 0, a split's left
child follows it) plus one leaf-statistics array beside it. A forest is the
same table with many roots: each tree's preorder nodes follow the previous
tree's, and child ids index the whole table. The grower and tree_from_dict
append nodes in that order with an explicit stack; routing, decision paths
and tree_to_dict read the arrays.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tabular import CLASSIFICATION, REGRESSION, Schema, validate_instance

GINI = "gini"
MSE = "mse"

NUMERIC_LE = "numeric_le"
CATEGORY_EQ = "category_eq"


@dataclass(frozen=True)
class CartConfig:
    min_samples_split: int = 2
    max_depth: int | None = None
    seed: int = 0
    feature_subsample: int | None = None

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


class NodeTable(NamedTuple):
    """Struct-of-arrays node table for one tree or a forest of them.

    Node i is a leaf when feat[i] < 0, and then pred[i] is its prediction.
    Otherwise it tests row[feat[i]] <= val[i] (is_le[i]) or row[feat[i]] ==
    val[i] and sends the row to left[i] when the test holds, else right[i].
    Each tree's nodes are in preorder: its root comes first and a split's
    left child is the node right after it.
    """

    feat: np.ndarray
    is_le: np.ndarray
    val: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pred: np.ndarray


@dataclass(eq=False)
class ExplainerTree:
    """A grown tree: its node table plus per-node leaf statistics.

    leaf_stats[i] holds, for a leaf i, the training rows that reached it: the
    class counts for classification (shape (nodes, n_classes)) or the row
    count for regression (shape (nodes,)). It is zero at internal nodes and
    sits beside the table. A forest is one such tree with many roots (see
    oracle.ForestModel), its depth and leaf_count taken over all its trees.
    """

    table: NodeTable
    leaf_stats: np.ndarray
    schema: Schema
    task: str
    depth: int
    leaf_count: int


class _Preorder:
    """Node columns appended in preorder, one tree after another; a split's
    right child is linked to it when that child is added. The columns are
    typed arrays, so a forest's nodes cost bytes rather than Python objects.
    A node's stats are its class counts, or (row count,) for regression."""

    def __init__(self, schema: Schema, task: str, n_classes: int | None = None):
        self.schema, self.task = schema, task
        if n_classes is None:  # the schema's class count
            has_classes = task == CLASSIFICATION and schema.target is not None
            n_classes = len(schema.target.classes) if has_classes else 0
        self.n_classes = n_classes
        self.feat, self.right, self.stats = array("q"), array("q"), array("q")
        self.is_le, self.val, self.pred = array("b"), array("d"), array("d")
        self.no_stats = [0] * n_classes if task == CLASSIFICATION else [0]
        self.depth = 0

    def add(self, depth: int, right_of: int, feature: int = -1, kind: str = CATEGORY_EQ,
            value: float = 0.0, pred: float = 0.0, stats=None) -> int:
        """Append one node and return its id; right_of is the split whose
        right child it is, or -1. A node without a feature is a leaf."""
        node = len(self.feat)
        if right_of >= 0:
            self.right[right_of] = node
        self.depth = max(self.depth, depth)
        self.feat.append(feature)
        self.is_le.append(kind == NUMERIC_LE)
        self.val.append(value)
        self.right.append(0)
        self.pred.append(pred)
        self.stats.extend(self.no_stats if stats is None else stats)
        return node

    def read(self, d: dict) -> int:
        """Append the nested JSON tree d (see tree_to_dict); return its root id."""
        root, add, classes = len(self.feat), self.add, self.task == CLASSIFICATION
        stack = [(d, 0, -1)]  # (subtree, depth, split whose right child this is)
        while stack:
            sub, depth, right_of = stack.pop()
            if "leaf" in sub:
                leaf = sub["leaf"]
                if not classes:
                    add(depth, right_of, pred=float(leaf["prediction"]),
                        stats=(int(leaf["stats"]["n"]),))
                elif len(leaf["counts"]) != self.n_classes:
                    raise ValueError(f"leaf counts {leaf['counts']} for {self.n_classes} classes")
                else:
                    add(depth, right_of, pred=self.schema.encode_label(leaf["prediction"]),
                        stats=leaf["counts"])
                continue
            test = sub["test"]
            kind = test["kind"]
            value = float(test["threshold"] if kind == NUMERIC_LE else test["category"])
            node = add(depth, right_of, int(sub["feature"]), kind, value)
            stack.append((sub["right"], depth + 1, node))
            stack.append((sub["left"], depth + 1, -1))
        return root

    def tree(self) -> ExplainerTree:
        """The nodes as an ExplainerTree; its arrays view the columns, which
        can take no more nodes after this."""
        feat = np.frombuffer(self.feat, dtype=np.int64)
        split = feat >= 0
        left = np.where(split, np.arange(len(feat)) + 1, 0)
        table = NodeTable(feat, np.frombuffer(self.is_le, dtype=bool), np.frombuffer(self.val),
                          left, np.frombuffer(self.right, dtype=np.int64),
                          np.frombuffer(self.pred))
        stats = np.frombuffer(self.stats, dtype=np.int64)
        if self.task == CLASSIFICATION:
            stats = stats.reshape(len(feat), self.n_classes)
        return ExplainerTree(table, stats, self.schema, self.task, self.depth,
                             int(len(feat) - split.sum()))


def _gini(counts: np.ndarray, n) -> np.ndarray:
    p = counts / np.maximum(n, 1)
    return 1.0 - (p * p).sum(axis=-1)


class _Grower:
    """Grows one tree on rows of X (given as indices) into a _Preorder, after
    the nodes already in it."""

    def __init__(self, X, y, cfg: CartConfig, nodes: _Preorder):
        self.X = X
        self.y = y
        self.cfg = cfg
        self.nodes = nodes
        self.schema, self.task, self.n_classes = nodes.schema, nodes.task, nodes.n_classes
        self.numeric = self.schema.numeric_mask()
        self.rng = (
            np.random.default_rng(cfg.seed)
            if cfg.feature_subsample is not None and cfg.feature_subsample < self.schema.n_features
            else None
        )

    def candidate_features(self):
        p = self.schema.n_features
        if self.rng is None:
            return range(p)
        sub = self.rng.choice(p, size=self.cfg.feature_subsample, replace=False)
        return np.sort(sub)

    def node_impurity(self, y_node):
        if self.task == CLASSIFICATION:
            counts = np.bincount(y_node, minlength=self.n_classes)
            return float(_gini(counts, len(y_node))), counts
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
        best = None
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

    def grow(self, root_idx) -> None:
        # explicit preorder stack: unpruned trees on conflicted data can grow
        # deeper than the interpreter recursion limit
        if len(root_idx) == 0:
            raise ValueError("cannot fit a tree on zero rows")
        nodes = self.nodes
        stack = [(root_idx, 0, -1)]  # (rows, depth, split whose right child this is)
        while stack:
            idx, depth, right_of = stack.pop()
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
                if self.task == CLASSIFICATION:
                    nodes.add(depth, right_of, pred=int(np.argmax(counts)), stats=counts)
                else:
                    nodes.add(depth, right_of, pred=float(y_node.mean()), stats=(n,))
                continue

            _, f, kind, value = split
            node = nodes.add(depth, right_of, int(f), kind, float(value))
            col = self.X[idx, f]
            mask = col <= value if kind == NUMERIC_LE else col == value
            stack.append((idx[~mask], depth + 1, node))
            stack.append((idx[mask], depth + 1, -1))


def fit_tree(rows: np.ndarray, labels: np.ndarray, schema: Schema, cfg: CartConfig,
             task: str | None = None) -> ExplainerTree:
    """Grow a CART tree; task defaults to the label dtype (ints = classification)."""
    X = np.asarray(rows, dtype=float)
    y = np.asarray(labels)
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    if task is None:
        task = CLASSIFICATION if np.issubdtype(y.dtype, np.integer) else REGRESSION
    if task == CLASSIFICATION:
        y = y.astype(np.int64)
        if schema.target is not None and schema.target.classes is not None:
            n_classes = len(schema.target.classes)
        else:
            n_classes = int(y.max(initial=-1)) + 1  # grow() rejects zero rows
    else:
        y = y.astype(float)
        n_classes = 0
    nodes = _Preorder(schema, task, n_classes)
    _Grower(X, y, cfg, nodes).grow(np.arange(len(X)))
    return nodes.tree()


# (row, root) pairs routed at once; bounds the index arrays of one pass
ROUTE_CHUNK_PAIRS = 1 << 15


def route(table: NodeTable, roots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Leaf node ids of every row from every root, shape (len(roots), n_rows).

    All (root, row) pairs descend together: each pass gathers the test of
    every pair still at an internal node, steps it to a child and drops the
    pairs that reached a leaf. Rows go in chunks of at most ROUTE_CHUNK_PAIRS
    pairs.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    out = np.empty((len(roots), len(rows)), dtype=np.int64)
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
    return node.reshape(len(roots), n)


def apply(tree: ExplainerTree, rows: np.ndarray) -> np.ndarray:
    """Leaf node id of each row."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    return route(tree.table, np.zeros(1, dtype=np.int64), rows)[0]


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
    t = tree.table
    path = []
    node = 0
    while t.feat[node] >= 0:
        feature, value = int(t.feat[node]), float(t.val[node])
        v = inst[feature]
        taken = bool(v <= value if t.is_le[node] else v == value)
        path.append((feature, NUMERIC_LE if t.is_le[node] else CATEGORY_EQ, value, taken))
        node = t.left[node] if taken else t.right[node]
    return path


def tree_stats(tree: ExplainerTree) -> dict:
    return {
        "depth": tree.depth,
        "leaf_count": tree.leaf_count,
        "node_count": 2 * tree.leaf_count - 1,
    }


def tree_to_dict(tree: ExplainerTree, start: int = 0, stop: int | None = None) -> dict:
    """Nested JSON form of the tree in nodes start..stop of the table (all of
    it by default): each split holds its left and right subtrees."""
    t, part = tree.table, slice(start, stop)
    feat, is_le, val = t.feat[part].tolist(), t.is_le[part].tolist(), t.val[part].tolist()
    left, right = (t.left[part] - start).tolist(), (t.right[part] - start).tolist()
    pred, stats = t.pred[part].tolist(), tree.leaf_stats[part].tolist()
    docs: list = [None] * len(feat)
    for i in range(len(feat) - 1, -1, -1):  # children come after their parent
        if feat[i] >= 0:
            if is_le[i]:
                test = {"kind": NUMERIC_LE, "threshold": val[i]}
            else:
                test = {"kind": CATEGORY_EQ, "category": int(val[i])}
            docs[i] = {"feature": feat[i], "test": test,
                       "left": docs[left[i]], "right": docs[right[i]]}
        elif tree.task == CLASSIFICATION:
            docs[i] = {"leaf": {"prediction": tree.schema.decode_label(pred[i]),
                                "counts": stats[i]}}
        else:
            docs[i] = {"leaf": {"prediction": pred[i],
                                "stats": {"n": stats[i], "mean": pred[i]}}}
    return docs[0]


def tree_from_dict(d: dict, schema: Schema, task: str) -> ExplainerTree:
    nodes = _Preorder(schema, task)
    nodes.read(d)
    return nodes.tree()


def json_text(doc, indent=None) -> str:
    """json.dumps of a document that holds trees.

    The encoder nests one level per tree level and stops at the interpreter's
    recursion limit; a tree too deep for it raises ValueError.
    """
    try:
        return json.dumps(doc, indent=indent)
    except RecursionError:
        raise ValueError("tree too deep to nest as JSON") from None
