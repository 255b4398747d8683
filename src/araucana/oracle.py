"""The black-box prediction contract and its backends.

An oracle is a deterministic batch map from instances to labels. Three
backends: built-in reference models (random forest, k-NN), an external
subprocess speaking line-delimited JSON, and a precomputed prediction column
(original dataset rows only).

Subprocess wire protocol (one JSON object per line, both directions):
  request  {"instances": [[v, ...], ...]}   numerics as numbers, categoricals
                                            as category strings
  reply    {"predictions": [p, ...]}        class names as strings (or class
                                            indices as integers); finite
                                            numbers for regression
The child is spawned once and persists across batches. A batch goes out in
requests of at most SUBPROCESS_REQUEST_ROWS instances, one after another, and
the replies are joined in order; each request has its own timeout (default
30 seconds), which covers writing it and reading its reply. The child is not
waited for when it starts, so the first request's timeout also covers the
child's start-up.
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from . import cart, gower
from .gower import DistanceMetric
from .tabular import CLASSIFICATION, REGRESSION, Dataset, Schema, first_refused


class OracleError(RuntimeError):
    """The black box failed: process death, protocol violation, bad labels."""


class PredictionOracle:
    """Base interface: schema, task, and a deterministic predict_batch."""

    def __init__(self, schema: Schema, task: str):
        self.schema = schema
        self.task = task

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        pass


def ensure_same_schema(a: Schema, b: Schema, what: str = "model") -> None:
    if a.to_dict() != b.to_dict():
        raise OracleError(f"{what} schema does not match the dataset schema")


# ---------------------------------------------------------------- built-in


@dataclass(frozen=True)
class ForestConfig:
    """A random forest: n_trees unpruned CART trees, each grown on n rows
    drawn with replacement from the n training rows, each split searching
    ceil(sqrt(n_features)) features drawn at random; every draw derives
    from seed."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


class ForestModel:
    """Bagged unpruned CART trees; majority vote / mean.

    All trees live in one node table with its leaf statistics (`nodes`, a
    cart.ExplainerTree with many roots). Tree k is the preorder run of nodes
    from roots[k] up to the next root, and child ids index the whole table,
    so training, loading, saving and routing need no per-tree copies. The
    seeds and feature draws that grew the trees are not kept, as prediction
    reads none of them. Prediction routes every tree at once through `plan`,
    which is derived from the table once, when the model is built (trained
    or loaded), and is never saved; the leaf ids come back tree-major, one
    row per tree, and their predictions are the votes.
    """

    def __init__(self, nodes: cart.ExplainerTree, roots):
        self.nodes = nodes
        self.roots = np.asarray(roots, dtype=np.int64)
        self.schema, self.task = nodes.schema, nodes.task
        self.plan = cart.route_plan(nodes)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        votes = self.nodes.table.pred[cart.route(self.plan, self.roots, rows)]
        if self.task == REGRESSION:
            return votes.mean(axis=0)
        return _majority_vote(votes.T.astype(np.int64), len(self.schema.target.classes))


def _majority_vote(votes: np.ndarray, n_classes: int) -> np.ndarray:
    """The class most of each row's votes name, ties to the lowest class;
    votes holds class indices, one row per prediction."""
    cells = np.arange(len(votes))[:, None] * n_classes + votes
    counts = np.bincount(cells.ravel(), minlength=len(votes) * n_classes)
    return counts.reshape(len(votes), n_classes).argmax(axis=1)


def train_forest(data: Dataset, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Each tree grows on n rows drawn with replacement from the n rows of
    data and searches min(ceil(sqrt(p)), p) features drawn per split; a tree
    with no more features than that searches them all, drawing none. The trees grow together in one
    frontier (cart.grow_trees) into one node table: each step searches the
    next preorder node of every tree, so every tree makes its feature draws
    in the order it would make them grown alone."""
    if data.y is None:
        raise ValueError("training a forest requires a dataset with targets")
    p, n = data.schema.n_features, len(data)
    sub = min(max(1, math.ceil(math.sqrt(p))), p)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.n_trees)
    # row ids, not copies of the rows, in one block the allocator can give back
    # whole: per-tree arrays raised forest_imbalanced's peak RSS by 3.4 MB
    samples = np.empty((cfg.n_trees, n), dtype=np.int64)
    for t, s in enumerate(seeds[::2]):
        samples[t] = np.random.default_rng(int(s)).integers(0, n, size=n)
    draws = [(int(s), sub) if sub < p else None for s in seeds[1::2]]
    nodes, roots, _ = cart.grow_trees(data.X, data.y, data.schema, data.task, samples, draws)
    return ForestModel(nodes, roots)


class KnnModel:
    """k nearest neighbors under a mixed-type metric; majority vote / mean. A
    batch is labelled through bounded distance blocks (gower.nearest_rows),
    not row by row; distance ties go to the lower training row and vote ties
    to the lower class."""

    def __init__(self, X, y, schema: Schema, task: str, k: int, metric: DistanceMetric):
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(X) == 0:
            raise ValueError("k-NN needs at least one training row")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        self.schema = schema
        self.task = task
        self.k = k
        self.metric = metric

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        near = gower.nearest_rows(self.metric, rows, self.X, self.k)[0]
        if self.task == REGRESSION:
            return self.y[near].mean(axis=1)
        return _majority_vote(self.y[near].astype(np.int64), len(self.schema.target.classes))


def train_knn(data: Dataset, k: int = 5, metric: DistanceMetric | None = None) -> KnnModel:
    if data.y is None:
        raise ValueError("training k-NN requires a dataset with targets")
    if metric is None:
        metric = DistanceMetric(data.schema)
    return KnnModel(data.X, data.y, data.schema, data.task, k, metric)


class BuiltinOracle(PredictionOracle):
    def __init__(self, model):
        super().__init__(model.schema, model.task)
        self.model = model

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.model.predict_batch(rows)


# ---------------------------------------------------------------- subprocess


# instances in one request to a subprocess oracle: bounds the size of a request
# line and of its reply whatever the batch. Above the 1,010 rows that labelling
# ten queries' 100-row neighborhoods can take in one request.
SUBPROCESS_REQUEST_ROWS = 4096


class SubprocessOracle(PredictionOracle):
    """Black box behind a command line, speaking line-delimited JSON."""

    def __init__(self, command: str, schema: Schema, task: str, timeout: float = 30.0):
        super().__init__(schema, task)
        self.command = command
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._buf = b""

    def _ensure_child(self):
        if self._proc is not None and self._proc.poll() is None:
            return
        if self._proc is not None:
            raise OracleError(
                f"oracle subprocess exited with code {self._proc.returncode}"
            )
        argv = shlex.split(self.command)
        if not argv:
            raise OracleError("empty oracle command")
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except OSError as exc:
            raise OracleError(f"cannot start oracle command {self.command!r}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _wait(self, fd, deadline, write=False) -> None:
        """Block until fd is ready or raise the per-request timeout."""
        remain = deadline - time.monotonic()
        waits = ([], [fd]) if write else ([fd], [])
        if remain <= 0 or not any(select.select(*waits, [], remain)):
            raise OracleError(f"oracle timed out after {self.timeout}s")

    def _write_all(self, data: bytes, deadline) -> None:
        """Write the whole request through the non-blocking stdin pipe."""
        fd = self._proc.stdin.fileno()
        view = memoryview(data)
        while view:
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            except OSError as exc:  # BrokenPipeError included
                raise OracleError(f"oracle subprocess is gone: {exc}") from exc
            if view:
                self._wait(fd, deadline, write=True)

    def _read_line(self, deadline) -> bytes:
        """One newline-terminated reply, read before the deadline."""
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buf:
            self._wait(fd, deadline)
            chunk = os.read(fd, 65536)
            if not chunk:
                code = self._proc.poll()
                raise OracleError(
                    "oracle subprocess closed its output mid-run"
                    + (f" (exit code {code})" if code is not None else "")
                )
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if len(rows) <= SUBPROCESS_REQUEST_ROWS:
            return self._request(rows)
        return np.concatenate([self._request(rows[a:a + SUBPROCESS_REQUEST_ROWS])
                               for a in range(0, len(rows), SUBPROCESS_REQUEST_ROWS)])

    def _request(self, rows: np.ndarray) -> np.ndarray:
        """Labels of rows from one request and its reply."""
        self._ensure_child()
        payload = {"instances": [self.schema.decode_row(r) for r in rows]}
        deadline = time.monotonic() + self.timeout  # covers the write and the reply
        self._write_all((json.dumps(payload) + "\n").encode("utf-8"), deadline)
        line = self._read_line(deadline)
        try:
            reply = json.loads(line)
            preds = reply["predictions"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise OracleError(f"malformed oracle reply {line[:200]!r}: {exc}") from exc
        if not isinstance(preds, list) or len(preds) != len(rows):
            raise OracleError(
                f"oracle replied {len(preds) if isinstance(preds, list) else 'non-list'} "
                f"predictions for {len(rows)} instances"
            )
        return self._decode_predictions(preds)

    def _decode_predictions(self, preds) -> np.ndarray:
        """Labels of a JSON reply. JSON true and false are not numbers here,
        a regression label is a JSON number (not a string that spells one),
        and a float names a class only when it is a finite whole number."""
        if any(isinstance(v, bool) for v in preds):
            raise OracleError("boolean prediction: expected a class name, index or number")
        if self.task == REGRESSION:
            for v in preds:
                if not isinstance(v, (int, float)):
                    raise OracleError(f"non-numeric regression prediction {v!r}")
            try:
                out = np.asarray(preds, dtype=float)
            except OverflowError as exc:  # an integer beyond float range
                raise OracleError(f"non-finite regression prediction: {exc}") from exc
            if not np.isfinite(out).all():
                raise OracleError("non-finite regression prediction")
            return out
        classes = self.schema.target.classes
        out = np.empty(len(preds), dtype=np.int64)
        for i, v in enumerate(preds):
            if isinstance(v, str):
                if v not in classes:
                    raise OracleError(f"unknown class {v!r} (known: {list(classes)})")
                out[i] = classes.index(v)
            elif isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
                j = int(v)
                if not 0 <= j < len(classes):
                    raise OracleError(f"class index {j} out of range 0..{len(classes) - 1}")
                out[i] = j
            else:
                raise OracleError(f"prediction {v!r} is neither a class name nor an index")
        return out

    def close(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            try:
                self._proc.stdin.close()
                self._proc.wait(timeout=2)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()


# --------------------------------------------------------------- precomputed


class PrecomputedOracle(PredictionOracle):
    """Looks up predictions recorded for the original dataset rows.

    Cannot label anything else: SMOTE-generated points have no recorded
    prediction, so runs using this backend must disable oversampling.
    """

    def __init__(self, data: Dataset, predictions: np.ndarray, task: str):
        super().__init__(data.schema, task)
        predictions = np.asarray(predictions)
        if len(predictions) != len(data):
            raise ValueError(f"{len(predictions)} predictions for {len(data)} rows")
        self._index: dict[bytes, int] = {}
        for i in range(len(data) - 1, -1, -1):  # first occurrence wins
            self._index[data.X[i].tobytes()] = i
        self.predictions = (
            predictions.astype(np.int64) if task == CLASSIFICATION else predictions.astype(float)
        )

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        out = []
        for x in rows:
            i = self._index.get(x.tobytes())
            if i is None:
                raise OracleError(
                    "precomputed oracle cannot label synthetic instances "
                    "or any other row outside its dataset"
                )
            out.append(self.predictions[i])
        dtype = np.int64 if self.task == CLASSIFICATION else float
        return np.asarray(out, dtype=dtype)


# -------------------------------------------------------------- persistence


# model.json format: 3 writes a forest as its node table's columns alone.
# Format 2 also wrote the trees' seeds and feature-draw width, and format 1
# (no "format" key) nested every tree; both are refused
MODEL_FORMAT = 3


def save_model(model, path) -> None:
    """Write a built-in model as one line of JSON: a k-NN model as its rows
    and labels, a forest as its node table's columns and nothing more (see
    _forest_table)."""
    if not isinstance(model, (ForestModel, KnnModel)):
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "type": "forest" if isinstance(model, ForestModel) else "knn",
           "task": model.task, "schema": model.schema.to_dict()}
    if isinstance(model, ForestModel):
        t, stats = model.nodes.table, model.nodes.leaf_stats
        leaf = t.feat < 0
        classes = model.task == CLASSIFICATION
        doc.update(roots=model.roots.tolist(),
                   feature=t.feat.tolist(), value=t.val.tolist(), right=t.right.tolist(),
                   prediction=t.pred[leaf].astype(np.int64 if classes else float).tolist())
        doc["counts" if classes else "n"] = stats[leaf].ravel().tolist()
    else:
        doc.update(k=model.k, metric=model.metric.kind,
                   rows=[model.schema.decode_row(r) for r in model.X],
                   labels=[model.schema.decode_label(v) for v in model.y])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_model(path):
    """Read a model that save_model wrote. A file of another format raises
    OracleError, and so does a malformed one, naming what is wrong with it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        version = doc.get("format", 1)
        if version != MODEL_FORMAT:
            raise OracleError(f"{path} is model format {version!r}, but this version reads "
                              f"only format {MODEL_FORMAT}: retrain it with `araucana train`")
        kind = doc["type"]
        schema = Schema.from_dict(doc["schema"])
        task = doc["task"]
        if schema.target is None or task != schema.target.kind:
            raise ValueError(f"task {task!r} does not match the schema's target")
        if kind == "forest":
            return ForestModel(*_forest_table(doc, schema, task))
        if kind == "knn":
            X = np.array([schema.encode_row(r) for r in doc["rows"]])
            y = np.array([schema.encode_label(v) for v in doc["labels"]])
            if len(y) != len(X) or type(doc["k"]) is not int:
                raise ValueError(f"{len(y)} labels for {len(X)} rows, or k is not an integer")
            return KnnModel(X, y, schema, task, doc["k"], DistanceMetric(schema, doc["metric"]))
        raise KeyError(f"unknown model type {kind!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise OracleError(f"malformed model file {path}: {exc}") from exc


def _column(doc, key, kinds="iu") -> np.ndarray:
    """doc[key] as a flat array: integers, or finite numbers when kinds is "iuf"."""
    col = np.asarray(doc[key])
    if col.ndim != 1 or len(col) and (col.dtype.kind not in kinds or not np.isfinite(col).all()):
        raise ValueError(f"{key!r} is not a list of {'numbers' if 'f' in kinds else 'integers'}")
    return col.astype(float if "f" in kinds else np.int64)


def _forest_table(doc, schema: Schema, task: str):
    """The node table and root ids of a forest file's columns, which are the
    table's own columns (cart.NodeTable). Node i is a leaf when feature[i] is
    -1; otherwise it tests feature[i] against value[i], <= when the schema
    says the feature is numeric and == when it is categorical, and sends a row
    to i + 1 when the test holds, else to right[i]. Per leaf, in node order,
    come its prediction (the class index, or the regression value) and its
    class counts (K per leaf) or row count n. The columns are checked before
    the table is built: a categorical split's value is one of its feature's
    category indices, every split's children lie after it in its tree, and
    every node but a root is the child of one split, so the nodes form trees
    and routing moves forward and stops."""
    K = len(schema.target.classes) if task == CLASSIFICATION else 0
    roots, feat, right = _column(doc, "roots"), _column(doc, "feature"), _column(doc, "right")
    val, pred = _column(doc, "value", "iuf"), _column(doc, "prediction", "iu" if K else "iuf")
    counts = _column(doc, "counts" if K else "n")
    N, split = len(feat), (feat >= 0).nonzero()[0]
    n_leaves = N - len(split)
    if not len(roots) or roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= N:
        raise ValueError("roots must start at 0 and increase below the node count")
    if len(val) != N or len(right) != N:
        raise ValueError(f"{N} features, {len(val)} values and {len(right)} right children")
    if len(pred) != n_leaves or len(counts) != n_leaves * (K or 1):
        raise ValueError(f"{len(pred)} predictions and {len(counts)} counts for {n_leaves} leaves")
    if ((feat < -1) | (feat >= schema.n_features)).any():
        raise ValueError(f"a feature outside -1..{schema.n_features - 1}")
    if K and ((pred < 0) | (pred >= K)).any():
        raise ValueError(f"a class index outside 0..{K - 1}")
    if first_refused(val[split], *(b[feat[split]] for b in schema.value_bounds)) is not None:
        raise ValueError("a categorical split's value is not a category index of its feature")
    end = np.append(roots[1:], N)[np.searchsorted(roots, split, side="right") - 1]
    if ((right[split] <= split + 1) | (right[split] >= end)).any():
        raise ValueError("a split's right child is not after its left child in its tree")
    parents = np.bincount(np.concatenate((split + 1, right[split])), minlength=N)
    if parents.max(initial=0) > 1 or parents[roots].any() or parents.sum() != N - len(roots):
        raise ValueError("a node is the child of no split or of two")
    leaf = feat < 0
    preds, stats = np.zeros(N), np.zeros((N, K) if K else N, np.int64)
    preds[leaf], stats[leaf] = pred, counts.reshape(n_leaves, K) if K else counts
    return cart.ExplainerTree(cart.NodeTable(feat, val, right, preds), stats, schema, task), roots
