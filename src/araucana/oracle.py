"""The black-box prediction contract and its backends.

An oracle is a deterministic batch map from instances to labels. Its schema's
target, which no oracle is built without, alone states its task and classes.
Three backends: built-in reference models (random forest, k-NN), an external
subprocess speaking line-delimited JSON, and a precomputed prediction column
(original dataset rows only).

Subprocess wire protocol (one JSON object per line, both directions):
  request  {"instances": [[v, ...], ...]}   numerics as their shortest round-
                                            trip decimal (float repr), which
                                            reads back as the exact float;
                                            categoricals as category strings
  reply    {"predictions": [p, ...]}        class names as strings (or class
                                            indices as integers); finite
                                            numbers for regression
The child is spawned once and persists across batches. A batch goes out in
requests of at most SUBPROCESS_REQUEST_ROWS instances, one after another, and
the replies are joined in order; each request has its own timeout (default
30 seconds), which covers writing it and reading its reply. The child is not
waited for when it starts, so the first request's timeout also covers the
child's start-up. The child speaks only when asked: output between requests,
more than one line per reply, or a reply line longer than a generous bound
from the request's size is an error. The first error stops the child, and
every later batch raises it again, so no request reads a reply meant for
another.
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import subprocess
import time
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import cart, gower
from .tabular import (CLASSIFICATION, REGRESSION, Dataset, Schema, SchemaError, TargetSpec,
                      encode_column, first_refused, work_step)


class OracleError(RuntimeError):
    """The black box failed: process death, protocol violation, bad labels."""


def oracle_target(schema: Schema) -> TargetSpec:
    """The target of an oracle's schema, which states the oracle's task and
    classes; a schema without one raises SchemaError."""
    if schema.target is None:
        raise SchemaError("an oracle needs a schema whose target states the task")
    return schema.target


class PredictionOracle:
    """Base interface: a schema with a target, and a deterministic predict_batch."""

    def __init__(self, schema: Schema):
        oracle_target(schema)
        self.schema = schema

    @property
    def task(self) -> str:
        return self.schema.target.kind

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- built-in


@dataclass(frozen=True)
class ForestConfig:
    """A random forest: n_trees unpruned CART trees, each grown on n rows
    drawn with replacement from the n training rows, each split searching
    ceil(sqrt(n_features)) features drawn at random; every draw derives
    from seed. SeedSequence(seed) gives each tree two seeds, one for its
    bootstrap rows and one for its PCG64 stream of feature draws: a split's
    subset is Floyd's sample with Lemire's bounded integers on that stream,
    followed by the draws of numpy's shuffle of it, so the set
    Generator(PCG64(s)).choice(p, size=w, replace=False) returns (see
    cart._Draws)."""

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
    which is derived from the table and `roots` once, when the model is
    built (trained or loaded), and is never saved: it numbers the nodes
    level by level from the roots (cart.RoutePlan), while the table stays in
    preorder. The table's leaf ids come back tree-major, one row per tree,
    and their predictions are the votes (a chunk of rows at a time).
    """

    def __init__(self, nodes: cart.ExplainerTree, roots):
        self.nodes = nodes
        self.roots = np.asarray(roots, dtype=np.int64)
        self.schema, self.task = nodes.schema, nodes.task
        self.plan = cart.route_plan(nodes, self.roots)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        # cart.route peaks at about 61 B per (tree, row) pair (tracemalloc, 2,000
        # rows, 100 trees): its int64 output, four int64 arrays per live pair
        # (index, row offset, node, last node) and one step's or drop's temporaries
        step = work_step(64 * len(self.roots))
        return np.concatenate([self._vote(rows[a:a + step])
                               for a in range(0, max(len(rows), 1), step)])

    def _vote(self, rows: np.ndarray) -> np.ndarray:
        votes = self.nodes.table.pred[cart.route(self.plan, rows)]
        if self.task == REGRESSION:
            return votes.mean(axis=0)
        return gower.majority_vote(votes.T.astype(np.int64), len(self.schema.target.classes))


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
    nodes, roots, _ = cart.grow_trees(data.X, data.y, data.schema, samples, draws)
    return ForestModel(nodes, roots)


class KnnModel:
    """k nearest neighbors under Gower distance; majority vote / mean. The
    task is the schema's target's. The training rows are grouped by their
    categorical codes once, when the model is built (trained or loaded), and
    never saved (`groups`, gower.category_groups); groups is None when no
    group holds k rows, since a group search then answers no query. A batch
    is labelled through bounded distance blocks, each query searched in its
    own group when the 1/p bound allows it and among all rows otherwise
    (gower.nearest_rows_grouped), not row by row; distance ties go to the
    lower training row and vote ties to the lower class."""

    def __init__(self, X, y, k: int, schema: Schema):
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(X) == 0:
            raise ValueError("k-NN needs at least one training row")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        self.schema, self.task = schema, schema.target.kind
        self.k = k
        self.groups = gower.category_groups(schema, self.X)
        if self.groups is not None and np.unique(self.groups[0], return_counts=True)[1].max() < k:
            self.groups = None

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        near = gower.nearest_rows_grouped(self.schema, rows, self.X, self.k, self.groups)[0]
        if self.task == REGRESSION:
            return self.y[near].mean(axis=1)
        return gower.majority_vote(self.y[near].astype(np.int64), len(self.schema.target.classes))


def train_knn(data: Dataset, k: int = 5) -> KnnModel:
    if data.y is None:
        raise ValueError("training k-NN requires a dataset with targets")
    return KnnModel(data.X, data.y, k, data.schema)


class BuiltinOracle(PredictionOracle):
    def __init__(self, model):
        super().__init__(model.schema)
        self.model = model

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.model.predict_batch(rows)


# ---------------------------------------------------------------- subprocess


# instances in one request to a subprocess oracle, a protocol limit and not a
# memory size: bounds a request line and its reply whatever the batch. Above
# the 1,010 rows that labelling ten queries' 100-row neighborhoods can take.
SUBPROCESS_REQUEST_ROWS = 4096


class SubprocessOracle(PredictionOracle):
    """Black box behind a command line, speaking line-delimited JSON."""

    def __init__(self, command: str, schema: Schema, task: str, timeout: float = 30.0):
        super().__init__(schema)
        if task != self.task:
            raise ValueError(f"task {task!r} contradicts the schema's {self.task} target")
        self.command = command
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._failure: str | None = None  # the first OracleError, after which the child is gone
        # a JSON string escapes a character in at most 12 bytes (a surrogate pair)
        self._reply_bytes_per_row = 128 + 12 * (
            max(map(len, schema.target.classes)) if task == CLASSIFICATION else 0)

    def _ensure_child(self):
        if self._proc is not None and self._proc.poll() is None:
            return
        if self._proc is not None:
            raise OracleError(
                f"oracle subprocess exited with code {self._proc.returncode}"
            )
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:
            raise OracleError(f"cannot parse oracle command {self.command!r}: {exc}") from exc
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

    def _closed(self) -> OracleError:
        code = self._proc.poll()
        return OracleError("oracle subprocess closed its output mid-run"
                           + (f" (exit code {code})" if code is not None else ""))

    def _check_quiet(self) -> None:
        """Refuse output, or an end of output, that no request asked for."""
        fd = self._proc.stdout.fileno()
        if select.select([fd], [], [], 0)[0]:
            extra = os.read(fd, 200)
            if not extra:
                raise self._closed()
            raise OracleError(f"oracle subprocess wrote {extra!r} between requests")

    def _read_line(self, deadline, limit: int) -> bytes:
        """One newline-terminated reply of at most limit bytes, read before
        the deadline, with nothing after it. Each chunk is searched once."""
        fd = self._proc.stdout.fileno()
        chunks, size = [], 0
        while True:
            self._wait(fd, deadline)
            chunk = os.read(fd, 65536)
            if not chunk:
                raise self._closed()
            end = chunk.find(b"\n")
            size += len(chunk) if end < 0 else end
            if size > limit:
                raise OracleError(f"oracle reply line is longer than {limit} bytes")
            if end >= 0:
                if end + 1 < len(chunk):
                    raise OracleError("oracle subprocess wrote more than one line in reply")
                chunks.append(chunk[:end])
                return b"".join(chunks)
            chunks.append(chunk)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        if self._failure is not None:
            raise OracleError(f"oracle subprocess was stopped after an error: {self._failure}")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        try:
            return np.concatenate([self._request(rows[a:a + SUBPROCESS_REQUEST_ROWS])
                                  for a in range(0, max(len(rows), 1), SUBPROCESS_REQUEST_ROWS)])
        except OracleError as exc:  # a reply may still come: no later request may read it
            self._failure = str(exc)
            self._kill()
            raise

    def _request(self, rows: np.ndarray) -> np.ndarray:
        """Labels of rows from one request and its reply."""
        self._ensure_child()
        payload = {"instances": self.schema.decode_rows(rows)}
        deadline = time.monotonic() + self.timeout  # covers the write and the reply
        self._check_quiet()
        self._write_all((json.dumps(payload) + "\n").encode("utf-8"), deadline)
        line = self._read_line(deadline, 65536 + len(rows) * self._reply_bytes_per_row)
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
        and a float names a class only when it is a finite whole number. A
        reply of class names alone, or of numbers alone for regression, is read
        in one pass; any other value by value, and a refused one raises."""
        if self.task == CLASSIFICATION:
            index = self.schema.target._index
            with suppress(KeyError, TypeError):  # a class index, or no class name at all
                return np.array([index[v] for v in preds], dtype=np.int64)
        elif set(map(type, preds)) <= {int, float}:
            try:
                out = np.asarray(preds, dtype=float)
            except OverflowError as exc:  # an integer beyond float range
                raise OracleError(f"non-finite regression prediction: {exc}") from exc
            if not np.isfinite(out).all():
                raise OracleError("non-finite regression prediction")
            return out
        if any(isinstance(v, bool) for v in preds):
            raise OracleError("boolean prediction: expected a class name, index or number")
        if self.task == REGRESSION:
            bad = next(v for v in preds if not isinstance(v, (int, float)))
            raise OracleError(f"non-numeric regression prediction {bad!r}")
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
        """End the child's input and give it 2 s to exit, then kill it; both
        pipes are closed whatever state the child is in."""
        if self._proc is not None:
            with suppress(OSError, subprocess.TimeoutExpired):
                self._proc.stdin.close()
                self._proc.wait(timeout=2)
            self._kill()

    def _kill(self) -> None:
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            for pipe in (self._proc.stdin, self._proc.stdout):
                with suppress(OSError):
                    pipe.close()


# --------------------------------------------------------------- precomputed


class PrecomputedOracle(PredictionOracle):
    """Looks up predictions recorded for the original dataset rows, under the
    task of the data's target.

    Cannot label anything else: SMOTE-generated points have no recorded
    prediction, so runs using this backend must disable oversampling.
    """

    def __init__(self, data: Dataset, predictions: np.ndarray):
        super().__init__(data.schema)
        predictions = np.asarray(predictions)
        if len(predictions) != len(data):
            raise ValueError(f"{len(predictions)} predictions for {len(data)} rows")
        # a row's first occurrence wins
        self._index = {data.X[i].tobytes(): i for i in range(len(data) - 1, -1, -1)}
        self.predictions = predictions.astype(np.int64 if self.task == CLASSIFICATION else float)

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        found = [self._index.get(x.tobytes()) for x in rows]
        if None in found:
            raise OracleError(
                "precomputed oracle cannot label synthetic instances "
                "or any other row outside its dataset"
            )
        return self.predictions[np.array(found, dtype=np.intp)]


# -------------------------------------------------------------- persistence


# model.json format: 3 writes a forest as its node table's columns alone.
# Format 2 also wrote the trees' seeds and feature-draw width, and format 1
# (no "format" key) nested every tree; both are refused
MODEL_FORMAT = 3


def save_model(model, path) -> None:
    """Write a built-in model as one line of JSON: a k-NN model as its rows
    and labels, a forest as its node table's columns and nothing more (see
    forest_columns)."""
    if not isinstance(model, (ForestModel, KnnModel)):
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "type": "forest" if isinstance(model, ForestModel) else "knn",
           "task": model.task, "schema": model.schema.to_dict()}
    if isinstance(model, ForestModel):
        doc.update(forest_columns(model.nodes, model.roots))
    else:
        doc.update(k=model.k, metric=gower.GOWER,
                   rows=model.schema.decode_rows(model.X),
                   labels=[model.schema.decode_label(v) for v in model.y])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # no text + "\n": a forest's text is megabytes
        fh.write("\n")


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
            return ForestModel(*_forest_table(doc, schema))
        if kind == "knn":
            # encoding a column reads cell j of each row, which a short row
            # lacks and past which a long row's extra values would go unread
            rows, n = doc["rows"], schema.n_features
            bad = [r for r, row in enumerate(rows) if type(row) is not list or len(row) != n]
            if bad:
                raise ValueError(f"stored row {bad[0]} is not a list of {n} values")
            X = np.empty((len(rows), n))
            for j, f in enumerate(schema.features):
                X[:, j] = encode_column(f.encode, rows, j, "stored rows", f.name)
            y = np.array([schema.target.encode(v) for v in doc["labels"]])
            if len(y) != len(X) or type(doc["k"]) is not int:
                raise ValueError(f"{len(y)} labels for {len(X)} rows, or k is not an integer")
            if doc["metric"] != gower.GOWER:
                raise ValueError(f"unknown metric {doc['metric']!r} (k-NN uses {gower.GOWER!r})")
            return KnnModel(X, y, doc["k"], schema)
        raise KeyError(f"unknown model type {kind!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise OracleError(f"malformed model file {path}: {exc}") from exc


def forest_columns(nodes: cart.ExplainerTree, roots) -> dict:
    """The columns of a node table with the given root ids, as _forest_table
    reads them: roots, feature, value and right per node, then per leaf its
    prediction (the class index, or the regression value) and its class
    counts or row count n."""
    t, leaf = nodes.table, nodes.table.feat < 0
    classes = nodes.task == CLASSIFICATION
    doc = dict(roots=np.asarray(roots).tolist(),
               feature=t.feat.tolist(), value=t.val.tolist(), right=t.right.tolist(),
               prediction=t.pred[leaf].astype(np.int64 if classes else float).tolist())
    doc["counts" if classes else "n"] = nodes.leaf_stats[leaf].ravel().tolist()
    return doc


def _column(doc, key, kinds="iu") -> np.ndarray:
    """doc[key] as a flat array: integers, or finite numbers when kinds is "iuf"."""
    col = np.asarray(doc[key])
    if col.ndim != 1 or len(col) and (col.dtype.kind not in kinds or not np.isfinite(col).all()):
        raise ValueError(f"{key!r} is not a list of {'numbers' if 'f' in kinds else 'integers'}")
    return col.astype(float if "f" in kinds else np.int64)


def _forest_table(doc, schema: Schema):
    """The node table and root ids of the columns forest_columns writes (a
    forest file's, or an explanation's one-root tree), which are the table's
    own columns (cart.NodeTable), under a schema whose target states the
    task and the K classes. Node i is a leaf when feature[i] is
    -1; otherwise it tests feature[i] against value[i], <= when the schema
    says the feature is numeric and == when it is categorical, and sends a row
    to i + 1 when the test holds, else to right[i]. Per leaf, in node order,
    come its prediction (the class index, or the regression value) and its
    class counts (K per leaf) or row count n. The columns are checked before
    the table is built: a categorical split's value is one of its feature's
    category indices, every split's children lie after it in its tree, and
    every node but a root is the child of one split, so the nodes form trees
    and routing moves forward and stops."""
    K = len(schema.target.classes) if schema.target.kind == CLASSIFICATION else 0
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
    if (counts < 0).any():
        raise ValueError(f"a leaf's {'counts' if K else 'n'} is negative")
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
    return cart.ExplainerTree(cart.NodeTable(feat, val, right, preds), stats, schema), roots
