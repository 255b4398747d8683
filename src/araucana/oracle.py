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
The child is spawned once and persists across batches; the per-batch timeout
(default 30 seconds) covers writing the request and reading the reply.
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
from .tabular import CLASSIFICATION, REGRESSION, Dataset, Schema


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
    so training, loading, saving and routing need no per-tree copies.
    Prediction routes every tree at once; the leaf ids come back tree-major,
    one row per tree, and their predictions are the votes.
    """

    def __init__(self, nodes: cart.ExplainerTree, roots, tree_seeds, feature_subsample):
        self.nodes = nodes
        self.roots = np.asarray(roots, dtype=np.int64)
        self.schema, self.task = nodes.schema, nodes.task
        self.n_trees = len(self.roots)
        self.tree_seeds = list(tree_seeds)
        self.feature_subsample = feature_subsample

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        votes = self.nodes.table.pred[cart.route(self.nodes.table, self.roots, rows)]
        if self.task == REGRESSION:
            return votes.mean(axis=0)
        n_classes = len(self.schema.target.classes)
        counts = np.stack([(votes == c).sum(axis=0) for c in range(n_classes)])
        return counts.argmax(axis=0).astype(np.int64)  # vote ties: lowest class index


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
    nodes, roots = cart.grow_trees(data.X, data.y, data.schema, data.task, samples, draws)
    return ForestModel(nodes, roots, seeds[::2], sub)


# distances in one block of the k-NN oracle (2 MB of float64), which bounds its
# memory for any batch. Four times gower.DISTANCE_CHUNK_CELLS, so a block
# outweighs the chunk and partition temporaries inside it: at equal sizes the
# allocator gave back and re-faulted about 4 MB of heap on every 101-row call
# (1,000 minor faults, +2.5 ms).
KNN_BLOCK_DISTANCES = 2**18


class KnnModel:
    """k nearest neighbors under a mixed-type metric; majority vote / mean. A
    batch is labelled through chunked distance blocks, not row by row;
    distance ties go to the lower training row and vote ties to the lower
    class."""

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
        near = np.empty((len(rows), min(self.k, len(self.X))), dtype=np.intp)
        step = max(1, KNN_BLOCK_DISTANCES // len(self.X))
        for a in range(0, len(rows), step):
            near[a:a + step] = gower.nearest(
                gower.distances_many(self.metric, rows[a:a + step], self.X), self.k)
        if self.task == REGRESSION:
            return self.y[near].mean(axis=1)
        n_classes = len(self.schema.target.classes)
        cells = np.arange(len(rows))[:, None] * n_classes + self.y[near].astype(np.int64)
        votes = np.bincount(cells.ravel(), minlength=len(rows) * n_classes)
        return votes.reshape(len(rows), n_classes).argmax(axis=1)  # ties: lower class


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
        """Block until fd is ready or raise the per-batch timeout."""
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
        and a float names a class only when it is a finite whole number."""
        if any(isinstance(v, bool) for v in preds):
            raise OracleError("boolean prediction: expected a class name, index or number")
        if self.task == REGRESSION:
            try:
                out = np.asarray([float(v) for v in preds])
            except (TypeError, ValueError) as exc:
                raise OracleError(f"non-numeric regression prediction: {exc}") from exc
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


def save_model(model, path) -> None:
    if isinstance(model, ForestModel):
        bounds = model.roots.tolist() + [None]  # tree k is nodes bounds[k]..bounds[k + 1]
        doc = {
            "type": "forest",
            "task": model.task,
            "schema": model.schema.to_dict(),
            "feature_subsample": model.feature_subsample,
            "bootstrap": True,  # every forest bootstraps; load_model does not read it
            "tree_seeds": [int(s) for s in model.tree_seeds],
            "trees": [cart.tree_to_dict(model.nodes, a, b) for a, b in zip(bounds, bounds[1:])],
        }
    elif isinstance(model, KnnModel):
        doc = {
            "type": "knn",
            "task": model.task,
            "schema": model.schema.to_dict(),
            "k": model.k,
            "metric": model.metric.kind,
            "rows": [model.schema.decode_row(r) for r in model.X],
            "labels": [model.schema.decode_label(v) for v in model.y],
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    text = cart.json_text(doc) + "\n"  # before opening: a too-deep tree leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = doc["type"]
        schema = Schema.from_dict(doc["schema"])
        task = doc["task"]
        if kind == "forest":
            nodes = cart._Preorder(schema, task)
            roots = [nodes.read(d) for d in doc["trees"]]
            if not roots:
                raise ValueError("a forest needs at least one tree")
            return ForestModel(nodes.tree(), roots, doc["tree_seeds"], doc["feature_subsample"])
        if kind == "knn":
            X = np.array([schema.encode_row(r) for r in doc["rows"]])
            y = np.array([schema.encode_label(v) for v in doc["labels"]])
            metric = DistanceMetric(schema, doc["metric"])
            return KnnModel(X, y, schema, task, doc["k"], metric)
        raise KeyError(f"unknown model type {kind!r}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise OracleError(f"malformed model file {path}: {exc}") from exc
