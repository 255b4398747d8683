"""Gower distance (Gower, Biometrics 27, 1971) for neighborhood selection.

The distance between two rows of a schema is the mean over features of
per-feature dissimilarities: a numeric feature contributes the absolute
difference normalized by the schema range (values clamped into the range
first, so a constant feature contributes 0), a categorical feature its 0/1
mismatch. It is always in [0, 1].

`distances_many` takes many queries at once in chunks (`distance` is its case
of one query and one row); `nearest` is the one k-nearest rule, ties to the
lower row index, of the k-NN oracle, neighborhood selection and SMOTE-NC, and
`nearest_rows` applies it to many queries in distance blocks; `majority_vote`
is the one vote over those neighbours, ties to the lowest value. Every chunk
and block is sized from the one budget `tabular.WORK_BYTES`.

`nearest_rows_grouped`, the k-NN oracle's search, looks among the rows of
the query's own categorical codes first (`category_groups`) and keeps what it
finds when a 1/p bound makes that `nearest_rows`' answer.
"""

from __future__ import annotations

import numpy as np

from .tabular import Schema, check_rows, work_step

GOWER = "gower"  # the metric's name in model.json and explanation.json

# a pass nested in a distance block takes this share of the budget, so the block outweighs it:
# at equal sizes the allocator re-faulted 4 MB of heap per 101-row k-NN call (+2.5 ms)
NESTED_SHARE = 4


def distances_many(schema: Schema, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(X), len(rows)) distances from each query row of X to each row of rows.

    Queries go in chunks of a nested share of the budget's (query, row,
    feature) cells, at least one query each, with in-place arithmetic summed
    over the feature axis, so each distance equals a one-query call's bit for bit.
    """
    X = np.asarray(X, dtype=float)
    rows = np.asarray(rows, dtype=float)
    p = max(schema.n_features, 1)  # rows without features are all at distance 0
    num, lo, hi, span = schema.numeric_layout
    xn, rn = np.clip(X[:, num], lo, hi), np.clip(rows[:, num], lo, hi)
    xc, rc = X[:, ~num], rows[:, ~num]
    out = np.empty((len(X), len(rows)))
    step = work_step(NESTED_SHARE * 8 * rows.size)
    for a in range(0, len(X), step):
        diff = rn - xn[a:a + step, None]
        np.abs(diff, out=diff)
        diff /= span
        d = diff.sum(axis=-1)
        d += (rc != xc[a:a + step, None]).sum(axis=-1)
        out[a:a + step] = d / p
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


def nearest_rows(schema: Schema, X: np.ndarray, rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k rows nearest each query row of X (`nearest`) and their distances,
    from blocks of tabular.WORK_BYTES / 8 distances, at least one query each."""
    X = np.asarray(X, dtype=float)
    near = np.empty((len(X), min(k, len(rows))), dtype=np.intp)
    dist = np.empty(near.shape)
    step = work_step(8 * len(rows))
    for a in range(0, len(X), step):
        d = distances_many(schema, X[a:a + step], rows)
        near[a:a + step] = nearest(d, k)
        dist[a:a + step] = np.take_along_axis(d, near[a:a + step], axis=1)
        del d  # one block at a time: the next is computed after this one is freed
    return near, dist


def category_keys(schema: Schema, X: np.ndarray) -> np.ndarray:
    """Per row of X, one number for its tuple of categorical codes: the
    tuple's mixed-radix index over the features' category counts, or -1 when
    a code is not a category index of its feature. Rows with the same codes
    get the same key; past 2**53 tuples two tuples may share one too."""
    cat = ~schema.numeric_mask()
    codes = X[:, cat]
    sizes = np.array([len(f.categories) for f in schema.features if not f.is_numeric])
    valid = ((codes == np.floor(codes)) & (codes >= 0) & (codes < sizes)).all(axis=1)
    key = np.zeros(len(X))
    for c, size in zip(np.where(valid[:, None], codes, 0.0).T, sizes):
        key = key * size + c
    key[~valid] = -1.0
    return key


def category_groups(schema: Schema, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows grouped by category_keys: the keys sorted, and the row ids in
    that order, ascending within a key; None when the schema has no
    categorical feature."""
    if schema.numeric_mask().all():
        return None
    keys = category_keys(schema, rows)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def nearest_rows_grouped(schema: Schema, X: np.ndarray, rows: np.ndarray, k: int,
                         groups: tuple[np.ndarray, np.ndarray] | None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """nearest_rows(schema, X, rows, k) bit for bit, with groups the rows'
    category_groups. A query whose key's group holds at least k rows is
    searched in that group alone (nearest_rows on it), and kept when its
    k-th distance there is below 1/p: a row outside the group has other
    codes than the query, so it lies at fl(fl(S + m) / p) >= fl(1/p), with
    m >= 1 mismatches and S >= 0 the numeric terms, and comes no nearer and
    ties with none. A group row's distance has the bits of the full pass,
    and the group keeps row order, so ties still go to the lower row. Any
    other query takes the full pass, and so does every query when groups is
    None."""
    X = np.asarray(X, dtype=float)
    if groups is None:
        return nearest_rows(schema, X, rows, k)
    near = np.empty((len(X), min(k, len(rows))), dtype=np.intp)
    dist = np.empty(near.shape)
    done = np.zeros(len(X), dtype=bool)
    row_keys, order = groups
    keys, at = np.unique(category_keys(schema, X), return_inverse=True)
    lo, hi = (np.searchsorted(row_keys, keys, side) for side in ("left", "right"))
    for g in (hi - lo >= k).nonzero()[0]:
        queries, members = (at == g).nonzero()[0], order[lo[g]:hi[g]]
        g_near, g_dist = nearest_rows(schema, X[queries], rows[members], k)
        ok = g_dist[:, -1] < 1.0 / schema.n_features
        kept = queries[ok]
        near[kept], dist[kept], done[kept] = members[g_near[ok]], g_dist[ok], True
    rest = (~done).nonzero()[0]
    near[rest], dist[rest] = nearest_rows(schema, X[rest], rows, k)
    return near, dist


def distance(schema: Schema, a: np.ndarray, b: np.ndarray) -> float:
    """Gower distance between two conforming instances (validated)."""
    a, b = np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float)[None]
    check_rows(schema, a)
    check_rows(schema, b)
    return float(distances_many(schema, a, b)[0, 0])
