"""Mixed-type distances for neighborhood selection.

Gower: the mean over features of per-feature dissimilarities; numeric features
contribute the absolute difference normalized by the schema range (values
clamped into the range first, constant features contribute 0), categorical
features contribute 0/1 mismatch. Always in [0, 1].

EuclideanNormalized: Euclidean distance over range-normalized numerics with
one-hot categoricals, divided by sqrt(feature count). One-hot entries are
scaled by 1/sqrt(2) so a categorical mismatch adds exactly 1 to the squared
sum, which keeps the result in [0, 1].

`distances_many` takes many queries at once in chunks (`distance` is its case
of one query and one row); `nearest` is the one k-nearest rule, ties to the
lower row index, of the k-NN oracle, neighborhood selection and SMOTE-NC, and
`nearest_rows` applies it to many queries in distance blocks; `majority_vote`
is the one vote over those neighbours, ties to the lowest value. Every chunk
and block is sized from the one budget `tabular.WORK_BYTES`.
"""

from __future__ import annotations

import numpy as np

from .tabular import Schema, check_rows, work_step

GOWER = "gower"
EUCLIDEAN = "euclidean"

# a pass nested in a distance block takes this share of the budget, so the block outweighs it:
# at equal sizes the allocator re-faulted 4 MB of heap per 101-row k-NN call (+2.5 ms)
NESTED_SHARE = 4


class DistanceMetric:
    """A distance function bound to a schema; kind is 'gower' or 'euclidean'."""

    def __init__(self, schema: Schema, kind: str = GOWER):
        if kind not in (GOWER, EUCLIDEAN):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.schema = schema
        self.kind = kind
        # a constant feature's clamped values are equal, so it contributes 0
        self._numeric, self._lo, self._hi, self._span = schema.numeric_layout


def _clamped_numeric(metric: DistanceMetric, X: np.ndarray) -> np.ndarray:
    return np.clip(X[..., metric._numeric], metric._lo, metric._hi)


def distances_many(metric: DistanceMetric, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(X), len(rows)) distances from each query row of X to each row of rows.

    Queries go in chunks of a nested share of the budget's (query, row,
    feature) cells, at least one query each, with in-place arithmetic summed
    over the feature axis, so each distance equals a one-query call's bit for bit.
    """
    X = np.asarray(X, dtype=float)
    rows = np.asarray(rows, dtype=float)
    p = max(metric.schema.n_features, 1)  # rows without features are all at distance 0
    cat = ~metric._numeric
    xn, rn = _clamped_numeric(metric, X), _clamped_numeric(metric, rows)
    xc, rc = X[:, cat], rows[:, cat]
    out = np.empty((len(X), len(rows)))
    step = work_step(NESTED_SHARE * 8 * rows.size)
    for a in range(0, len(X), step):
        diff = rn - xn[a:a + step, None]
        np.abs(diff, out=diff)
        diff /= metric._span
        if metric.kind == EUCLIDEAN:
            diff *= diff  # squared terms of the normalized encoding
        d = diff.sum(axis=-1)
        d += (rc != xc[a:a + step, None]).sum(axis=-1)
        out[a:a + step] = d / p if metric.kind == GOWER else np.sqrt(d) / np.sqrt(p)
    return out


def nearest(d: np.ndarray, k: int) -> np.ndarray:
    """`argsort(d, kind="stable")[..., :k]`: the k nearest, ties to the lower
    index. A partition finds each row's k-th distance, and only the candidates
    at or below it are sorted."""
    n = d.shape[-1]
    if k >= n:
        return np.argsort(d, axis=-1, kind="stable")
    flat = d.reshape(-1, n)
    kth = np.empty((len(flat), 1))
    step = work_step(NESTED_SHARE * 8 * n)
    for a in range(0, len(flat), step):
        kth[a:a + step] = np.partition(flat[a:a + step], k - 1, axis=1)[:, k - 1:k]
    r, c = np.nonzero(flat <= kth)  # row-major: candidates in index order
    order = np.lexsort((flat[r, c], r))  # stable: equal distances keep index order
    starts = np.searchsorted(r, np.arange(len(flat)))  # each row's first candidate
    return c[order[(starts[:, None] + np.arange(k)).ravel()]].reshape(d.shape[:-1] + (k,))


def majority_vote(votes: np.ndarray, n_values: int) -> np.ndarray:
    """The value most of each row's votes name, ties to the lowest; votes
    holds integer values below n_values, one row per majority."""
    cells = np.arange(len(votes))[:, None] * n_values + votes
    counts = np.bincount(cells.ravel(), minlength=len(votes) * n_values)
    return counts.reshape(len(votes), n_values).argmax(axis=1)


def nearest_rows(metric: DistanceMetric, X: np.ndarray, rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k rows nearest each query row of X (`nearest`) and their distances,
    from blocks of tabular.WORK_BYTES / 8 distances, at least one query each."""
    X = np.asarray(X, dtype=float)
    near = np.empty((len(X), min(k, len(rows))), dtype=np.intp)
    dist = np.empty(near.shape)
    step = work_step(8 * len(rows))
    for a in range(0, len(X), step):
        d = distances_many(metric, X[a:a + step], rows)
        near[a:a + step] = nearest(d, k)
        dist[a:a + step] = np.take_along_axis(d, near[a:a + step], axis=1)
        del d  # one block at a time: the next is computed after this one is freed
    return near, dist


def distance(metric: DistanceMetric, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two conforming instances (validated)."""
    a, b = np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float)[None]
    check_rows(metric.schema, a)
    check_rows(metric.schema, b)
    return float(distances_many(metric, a, b)[0, 0])
