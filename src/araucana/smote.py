"""SMOTE-NC oversampling for mixed numeric/categorical rows.

Synthetic samples interpolate a seed row with one of its k nearest same-class
neighbors: numeric features move a uniform fraction lambda along the segment,
categorical features take the majority value among the seed's k nearest
same-class neighbors (ties to the lowest category index).

Neighbor search uses Euclidean distance over range-normalized numerics; each
mismatched categorical pair adds (m/2)^2 to the squared distance, where m is
the median of the per-class standard deviations of the normalized numeric
features. With no numeric features the per-mismatch term is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gower import nearest
from .tabular import CLASSIFICATION, Schema


@dataclass(frozen=True)
class SmoteConfig:
    """Oversampling of each class up to a total: the majority class's size
    when fixed_total is None (the "balance" policy), else fixed_total rows
    per class (the "fixed" policy). A class at or above its total gets no
    synthetics."""

    k_neighbors: int = 5
    fixed_total: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.fixed_total is not None and self.fixed_total < 0:
            raise ValueError("fixed_total must be >= 0")


def _normalized_numeric(X: np.ndarray, schema: Schema) -> np.ndarray:
    mask = schema.numeric_mask()
    lo, hi = schema.numeric_bounds()
    lo, hi = lo[mask], hi[mask]
    span = np.where(hi > lo, hi - lo, 1.0)
    return (np.clip(X[:, mask], lo, hi) - lo) / span


def _mismatch_penalty(norm_num: np.ndarray) -> float:
    """Squared distance added per mismatched categorical pair."""
    if norm_num.shape[1] == 0:
        return 1.0
    med = float(np.median(norm_num.std(axis=0)))
    return (med / 2.0) ** 2


def _class_neighbor_order(X: np.ndarray, schema: Schema, members: np.ndarray,
                          k: int) -> np.ndarray:
    """For each member row, the k other members nearest it by SMOTE-NC
    distance, nearest first, as an (m, k) array of positions into `members`;
    k < m. Ties break toward the lower original row index (members are in
    ascending index order), so a duplicate may precede a row at distance 0.
    """
    sub = X[members]
    norm = _normalized_numeric(sub, schema)
    penalty = _mismatch_penalty(norm)
    cat = sub[:, ~schema.numeric_mask()]
    d2 = ((norm[:, None, :] - norm[None, :, :]) ** 2).sum(axis=2)
    d2 += penalty * (cat[:, None, :] != cat[None, :, :]).sum(axis=2)
    np.fill_diagonal(d2, np.inf)  # a row is not its own neighbor
    return nearest(d2, k)


def smote_nc(rows: np.ndarray, labels: np.ndarray, schema: Schema,
             cfg: SmoteConfig) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Generate synthetic minority samples; returns (rows, labels) of the
    synthetic points only, and notes on the classes it skipped (fewer than
    two rows) or drew from fewer than k_neighbors neighbors. Deterministic
    for a fixed cfg.seed.
    """
    if schema.target is not None and schema.target.kind != CLASSIFICATION:
        raise ValueError("smote_nc is defined for classification labels only")
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("smote_nc requires integer class labels, not regression targets")
    if len(rows) != len(labels):
        raise ValueError("rows and labels length mismatch")
    rng = np.random.default_rng(cfg.seed)
    classes, counts = np.unique(labels, return_counts=True)
    target = int(counts.max(initial=0) if cfg.fixed_total is None else cfg.fixed_total)

    out_rows: list[np.ndarray] = []
    out_labels: list[int] = []
    notes: list[str] = []
    num_mask = schema.numeric_mask()
    for cls, count in zip(classes, counts):
        need = target - int(count)
        if need <= 0:
            continue
        if count < 2:
            notes.append(f"class {int(cls)} has {int(count)} row(s); skipping oversampling")
            continue
        k = cfg.k_neighbors
        if k >= count:
            k = int(count) - 1
            notes.append(f"class {int(cls)}: k_neighbors reduced to {k} (class size {int(count)})")
        members = np.flatnonzero(labels == cls)
        order = _class_neighbor_order(rows, schema, members, k)
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
