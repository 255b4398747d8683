"""Mixed-type distances for neighborhood selection.

Gower: the mean over features of per-feature dissimilarities; numeric features
contribute the absolute difference normalized by the schema range (values
clamped into the range first, constant features contribute 0), categorical
features contribute 0/1 mismatch. Always in [0, 1].

EuclideanNormalized: Euclidean distance over range-normalized numerics with
one-hot categoricals, divided by sqrt(feature count). One-hot entries are
scaled by 1/sqrt(2) so a categorical mismatch adds exactly 1 to the squared
sum, which keeps the result in [0, 1].

`distances_many` takes many queries at once in fixed-size chunks (`distances_to`
is its one-query case); `nearest` is the one k-nearest rule, ties to the lower
row index, of the k-NN oracle, neighborhood selection and SMOTE-NC, and
`nearest_rows` applies it to many queries in distance blocks of bounded size.
"""

from __future__ import annotations

import numpy as np

from .tabular import Schema, validate_instance

GOWER = "gower"
EUCLIDEAN = "euclidean"

# (query, row, feature) cells in one chunk of distances_many, and distances in
# one partition of nearest: about 0.5 MB per float64 temporary, whatever the
# number of queries or rows
DISTANCE_CHUNK_CELLS = 2**16

# distances in one block of nearest_rows (2 MB of float64), which bounds its
# memory for any number of queries. Four times DISTANCE_CHUNK_CELLS, so a block
# outweighs the chunk and partition temporaries inside it: at equal sizes the
# allocator gave back and re-faulted about 4 MB of heap on every 101-row k-NN
# call (1,000 minor faults, +2.5 ms).
NEAREST_BLOCK_DISTANCES = 2**18


class DistanceMetric:
    """A distance function bound to a schema; kind is 'gower' or 'euclidean'."""

    def __init__(self, schema: Schema, kind: str = GOWER):
        if kind not in (GOWER, EUCLIDEAN):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.schema = schema
        self.kind = kind
        self._numeric = schema.numeric_mask()
        lo, hi = schema.numeric_bounds()
        self._lo = lo[self._numeric]
        self._hi = hi[self._numeric]
        span = self._hi - self._lo
        self._span = np.where(span > 0, span, 1.0)  # constant features divide by 1
        self._live = span > 0  # constant numeric features contribute 0


def _clamped_numeric(metric: DistanceMetric, X: np.ndarray) -> np.ndarray:
    return np.clip(X[..., metric._numeric], metric._lo, metric._hi)


def distances_to(metric: DistanceMetric, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distances from x to every row, order preserved.

    Rows are trusted (dataset-internal); x is validated by callers at pipeline
    entry points. Vectorized over rows.
    """
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        return np.empty(0)
    return distances_many(metric, np.reshape(x, (1, -1)), np.atleast_2d(rows))[0]


def distances_many(metric: DistanceMetric, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(X), len(rows)) distances from each query row of X to each row of rows.

    Queries go in chunks of about DISTANCE_CHUNK_CELLS (query, row, feature)
    cells, at least one query each, with in-place arithmetic summed over the
    feature axis, so each distance equals that of a one-query call bit for bit.
    """
    X = np.asarray(X, dtype=float)
    rows = np.asarray(rows, dtype=float)
    p = max(metric.schema.n_features, 1)  # rows without features are all at distance 0
    cat = ~metric._numeric
    xn, rn = _clamped_numeric(metric, X), _clamped_numeric(metric, rows)
    xc, rc = X[:, cat], rows[:, cat]
    out = np.empty((len(X), len(rows)))
    step = max(1, DISTANCE_CHUNK_CELLS // max(1, rows.size))
    for a in range(0, len(X), step):
        diff = rn - xn[a:a + step, None]
        np.abs(diff, out=diff)
        diff /= metric._span
        diff *= metric._live
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
    step = max(1, DISTANCE_CHUNK_CELLS // n)
    for a in range(0, len(flat), step):
        kth[a:a + step] = np.partition(flat[a:a + step], k - 1, axis=1)[:, k - 1:k]
    r, c = np.nonzero(flat <= kth)  # row-major: candidates in index order
    order = np.lexsort((flat[r, c], r))  # stable: equal distances keep index order
    starts = np.searchsorted(r, np.arange(len(flat)))  # each row's first candidate
    return c[order[(starts[:, None] + np.arange(k)).ravel()]].reshape(d.shape[:-1] + (k,))


def nearest_rows(metric: DistanceMetric, X: np.ndarray, rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k rows nearest each query row of X (`nearest`) and their distances,
    from blocks of about NEAREST_BLOCK_DISTANCES distances, at least one
    query each."""
    X = np.asarray(X, dtype=float)
    near = np.empty((len(X), min(k, len(rows))), dtype=np.intp)
    dist = np.empty(near.shape)
    step = max(1, NEAREST_BLOCK_DISTANCES // max(1, len(rows)))
    for a in range(0, len(X), step):
        d = distances_many(metric, X[a:a + step], rows)
        near[a:a + step] = nearest(d, k)
        dist[a:a + step] = np.take_along_axis(d, near[a:a + step], axis=1)
        del d  # one block at a time: the next is computed after this one is freed
    return near, dist


def distance(metric: DistanceMetric, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two conforming instances (validated)."""
    validate_instance(metric.schema, a)
    validate_instance(metric.schema, b)
    return float(distances_to(metric, np.asarray(a, dtype=float),
                              np.asarray(b, dtype=float).reshape(1, -1))[0])
