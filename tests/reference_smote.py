"""The per-synthetic-row SMOTE-NC that araucana.smote.smote_nc's array passes
replaced, kept as the reference that its tests compare against.

Everything is computed the plain way: the class's full (m, m) distance matrix,
`np.median` for the mismatch penalty, a stable argsort for the neighbor order,
and for every synthetic row a copy, an interpolation and one `bincount` per
categorical feature. The rng draws are the ones smote_nc documents: classes
ascending, and per synthetic row the seed member, the neighbor slot and
lambda, in that order.
"""

import numpy as np

from araucana.tabular import Schema


def normalized_numeric(X: np.ndarray, schema: Schema) -> np.ndarray:
    """Numerics scaled by the range each feature spec declares."""
    mask = np.array([f.is_numeric for f in schema.features], dtype=bool)
    lo = np.array([f.range[0] for f in schema.features if f.is_numeric])
    hi = np.array([f.range[1] for f in schema.features if f.is_numeric])
    span = np.where(hi > lo, hi - lo, 1.0)
    return (np.clip(X[:, mask], lo, hi) - lo) / span


def mismatch_penalty(norm_num: np.ndarray) -> float:
    if norm_num.shape[1] == 0:
        return 1.0
    return (float(np.median(norm_num.std(axis=0))) / 2.0) ** 2


def class_distances(rows: np.ndarray, schema: Schema, members: np.ndarray) -> np.ndarray:
    """The class's squared SMOTE-NC distances, all (m, m) of them at once."""
    sub = rows[members]
    norm = normalized_numeric(sub, schema)
    cat = sub[:, ~schema.numeric_mask()]
    d2 = ((norm[:, None, :] - norm[None, :, :]) ** 2).sum(axis=2)
    d2 += mismatch_penalty(norm) * (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
    return d2


def neighbor_order(rows: np.ndarray, schema: Schema, members: np.ndarray) -> np.ndarray:
    """Each member's other members, nearest first: a full stable argsort of the
    class's distances with each row itself dropped, (m, m - 1)."""
    order = np.argsort(class_distances(rows, schema, members), axis=1, kind="stable")
    m = len(members)
    return order[order != np.arange(m)[:, None]].reshape(m, m - 1)


def smote_nc(rows, labels, schema: Schema, k_neighbors: int, fixed_total, seed: int):
    """(rows, labels, notes) of the synthetic rows, one Python body per row."""
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(labels, return_counts=True)
    target = int(counts.max(initial=0) if fixed_total is None else fixed_total)
    out_rows, out_labels, notes = [], [], []
    num_mask = schema.numeric_mask()
    for cls, count in zip(classes, counts):
        need = target - int(count)
        if need <= 0:
            continue
        if count < 2:
            notes.append(f"class {int(cls)} has {int(count)} row(s); skipping oversampling")
            continue
        k = k_neighbors
        if k >= count:
            k = int(count) - 1
            notes.append(f"class {int(cls)}: k_neighbors reduced to {k} (class size {int(count)})")
        members = np.flatnonzero(labels == cls)
        order = neighbor_order(rows, schema, members)[:, :k]
        for _ in range(need):
            si = int(rng.integers(len(members)))
            neigh = order[si]
            nj = int(neigh[rng.integers(len(neigh))])
            seed_row = rows[members[si]]
            nbr_row = rows[members[nj]]
            lam = rng.random()
            new = seed_row.copy()
            new[num_mask] = seed_row[num_mask] + lam * (nbr_row[num_mask] - seed_row[num_mask])
            for j in np.flatnonzero(~num_mask):
                vals = rows[members[neigh], j].astype(np.int64)
                new[j] = np.argmax(np.bincount(vals))  # first max = lowest category index
            out_rows.append(new)
            out_labels.append(int(cls))
    if not out_rows:
        return np.empty((0, schema.n_features)), np.empty(0, dtype=np.int64), notes
    return np.array(out_rows), np.array(out_labels, dtype=np.int64), notes
