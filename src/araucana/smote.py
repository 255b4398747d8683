"""SMOTE-NC oversampling for mixed numeric/categorical rows.

Synthetic samples interpolate a seed row with one of its k nearest same-class
neighbors: numeric features move a uniform fraction lambda along the segment,
categorical features take the majority value among the seed's k nearest
same-class neighbors (ties to the lowest category index). The majority depends
only on the seed, so it is computed once per class member.

Neighbor search uses Euclidean distance over range-normalized numerics; each
mismatched categorical pair adds (m/2)^2 to the squared distance, where m is
the median of the per-class standard deviations of the normalized numeric
features. With no numeric features the per-mismatch term is 1.

Draw contract, on which the byte-identical outputs rest: one
`default_rng(seed)` serves the classes in ascending order, and each synthetic
row takes three scalar draws, in this order: seed member, neighbor slot,
lambda. The rest is array passes per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gower
from .tabular import CLASSIFICATION, Schema, work_step


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


def _mismatch_penalty(norm_num: np.ndarray) -> float:
    """Squared distance added per mismatched categorical pair."""
    if norm_num.shape[1] == 0:
        return 1.0
    std = np.sort(norm_num.std(axis=0))
    med = float(std[(len(std) - 1) // 2] + std[len(std) // 2]) / 2  # np.median's value, faster
    return (med / 2.0) ** 2


def _class_neighbor_order(X: np.ndarray, schema: Schema, members: np.ndarray,
                          k: int) -> np.ndarray:
    """For each member row, the k other members nearest it by SMOTE-NC
    distance, nearest first, as an (m, k) array of positions into `members`;
    k < m. Ties break toward the lower original row index (members are in
    ascending index order), so a duplicate may precede a row at distance 0.
    Distances come in blocks of tabular.WORK_BYTES / 8, at least one
    member each, each reduced to its nearest before the next.
    """
    sub = X[members]
    norm = schema.scaled_numeric(sub)
    penalty = _mismatch_penalty(norm)  # over the whole class, not per block
    cat = sub[:, ~schema.numeric_mask()]
    order = np.empty((len(sub), k), dtype=np.intp)
    step = work_step(8 * len(sub))
    for a in range(0, len(sub), step):
        d2 = ((norm[a:a + step, None, :] - norm[None, :, :]) ** 2).sum(axis=2)
        d2 += penalty * (cat[a:a + step, None, :] != cat[None, :, :]).sum(axis=2)
        np.fill_diagonal(d2[:, a:], np.inf)  # a row is not its own neighbor
        order[a:a + step] = gower.nearest(d2, k)
    return order


def smote_nc(rows: np.ndarray, labels: np.ndarray, schema: Schema,
             cfg: SmoteConfig) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Generate synthetic minority samples; returns (rows, labels) of the
    synthetic points only, and notes on the classes it skipped (fewer than
    two rows) or drew from fewer than k_neighbors neighbors. Deterministic
    for a fixed cfg.seed: classes ascending, rows in draw order, and three
    draws per row (seed member, neighbor slot, lambda). Each member's
    categorical majority is computed once, however many rows it seeds.
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

    out_rows = [np.empty((0, schema.n_features))]
    out_labels = [np.empty(0, dtype=np.int64)]
    notes: list[str] = []
    num = schema.numeric_mask()
    for cls, count in zip(classes.tolist(), counts.tolist()):
        need = target - count
        if need <= 0:
            continue
        if count < 2:
            notes.append(f"class {cls} has {count} row(s); skipping oversampling")
            continue
        k = cfg.k_neighbors
        if k >= count:
            k = count - 1
            notes.append(f"class {cls}: k_neighbors reduced to {k} (class size {count})")
        members = np.flatnonzero(labels == cls)
        order = _class_neighbor_order(rows, schema, members, k)
        # the stream's order: seed member, neighbor slot, lambda (all exact in float64)
        si, slot, lam = np.array([(rng.integers(count), rng.integers(k), rng.random())
                                  for _ in range(need)]).T
        si, slot = si.astype(np.intp), slot.astype(np.intp)
        sub = rows[members]
        new = sub[si]
        new[:, num] += lam[:, None] * (sub[order[si, slot]][:, num] - new[:, num])
        codes = sub[:, ~num][order].astype(np.int64)  # (count, k, categorical) neighbor codes
        votes = codes.transpose(0, 2, 1).reshape(-1, k)  # one row per (member, feature)
        majority = gower.majority_vote(votes, int(codes.max(initial=0)) + 1)
        new[:, ~num] = majority.reshape(count, -1)[si]
        out_rows.append(new)
        out_labels.append(np.full(need, cls, dtype=np.int64))

    return np.concatenate(out_rows), np.concatenate(out_labels), notes
