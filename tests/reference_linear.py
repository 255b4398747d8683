"""The per-row weighted-linear fit that araucana.fidelity.fit_linear_explainer's
stacked stage solve replaced, kept as the reference that its tests compare
against.

Everything is computed for one neighborhood at a time: a per-feature
encoding loop, one (d+1, d+1) Gram matrix and one solve, then the fitted
scores at the one query.
"""

import numpy as np

from araucana.explain import Neighborhood
from araucana.tabular import CLASSIFICATION, Schema


def encode_per_feature(schema: Schema, X: np.ndarray) -> np.ndarray:
    """The rows X encoded feature by feature: a numeric column clipped into
    its range and scaled by it (0 when constant), one-hot columns per
    categorical, in feature order."""
    cols = [np.zeros((len(X), 0))]
    for i, f in enumerate(schema.features):
        if f.is_numeric:
            lo, hi = f.range
            span = hi - lo
            if span > 0:
                cols.append(((np.clip(X[:, i], lo, hi) - lo) / span)[:, None])
            else:
                cols.append(np.zeros((len(X), 1)))
        else:
            onehot = np.zeros((len(X), len(f.categories)))
            onehot[np.arange(len(X)), X[:, i].astype(int)] = 1.0
            cols.append(onehot)
    return np.hstack(cols)


def reference_linear_prediction(nbh: Neighborhood, x: np.ndarray, schema: Schema):
    """The baseline fitted to nbh alone and evaluated at x: ridge 1e-3 on
    every encoded column but an unpenalized intercept, proximity weights
    exp(-d^2 / w^2) with w = 0.75 sqrt(max(d, 1)), and one 0/1 score column
    per class of the schema's target whose argmax (ties to the lowest class)
    is the prediction; the one score for a regression target."""
    A = encode_per_feature(schema, nbh.rows)
    dim = A.shape[1]
    kernel_width = 0.75 * np.sqrt(max(dim, 1))
    y = np.asarray(nbh.relabels)
    w = np.exp(-(np.asarray(nbh.distances) ** 2) / kernel_width**2)
    task = schema.target.kind
    if task == CLASSIFICATION:
        targets = np.zeros((len(y), len(schema.target.classes)))
        targets[np.arange(len(y)), y.astype(int)] = 1.0
    else:
        targets = np.asarray(y, dtype=float)[:, None]
    Aa = np.hstack([A, np.ones((len(A), 1))])
    WA = Aa * w[:, None]
    reg = 1e-3 * np.eye(dim + 1)
    reg[dim, dim] = 0.0
    beta = np.linalg.solve(Aa.T @ WA + reg, WA.T @ targets)  # (dim+1, n_outputs)
    z = encode_per_feature(schema, np.asarray(x, dtype=float).reshape(1, -1))[0]
    scores = beta[:-1].T @ z + beta[-1]
    return int(np.argmax(scores)) if task == CLASSIFICATION else float(scores[0])
