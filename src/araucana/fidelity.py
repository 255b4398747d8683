"""Fidelity evaluation of local explainers against the black box.

The test rows go through the staged explain pipeline in chunks of at most
EXPLAIN_BATCH_QUERIES, under the oracle's schema (the training and test sets
may have no target). Per chunk, one oracle request labels the neighbor rows
not labelled before in the run, then the chunk's instances (a TrainLabels
keeps each training row's label for the whole run), and one more labels every
SMOTE synthetic of the chunk. Every explainer is fitted to an instance's one
neighborhood and predicts the instance. Fidelity is the fraction of
instances where that prediction matches the oracle's label. araucana predicts
the instance's leaf in its explainer tree, and here each tree grows only the
instance's root-to-leaf path (cart.grow_trees' keep): a node's split depends
on its own rows only, so the path reaches the whole tree's leaf, with the
same prediction, and the report is the one whole trees give. The weighted-linear
baseline mirrors the usual local-linear recipe: least squares on the encoded
neighborhood with proximity weights exp(-d^2 / w^2), w = 0.75 sqrt(encoded
dimension, at least 1), and a ridge term of 1e-3. It fits a chunk's
neighborhoods in stacked solves of as many queries as tabular.WORK_BYTES holds.
Nothing here warns: the report keeps each row's SMOTE-NC notes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .explain import (
    ExplainConfig,
    Neighborhood,
    TrainLabels,
    _leaf_predictions,
    check_oracle,
    match_epsilon,
    select_neighborhoods,
)
from .oracle import PredictionOracle
from .tabular import CLASSIFICATION, Dataset, Schema, value_text, work_step

ARAUCANA = "araucana"
LINEAR = "linear"
EXPLAINERS = (ARAUCANA, LINEAR)

# test rows explained per stage: the stage width, which sets how many oracle
# requests a run makes; not a memory size (see tabular.WORK_BYTES)
EXPLAIN_BATCH_QUERIES = 64


def _encode(schema: Schema, X: np.ndarray) -> np.ndarray:
    """The rows X encoded along the last axis, one column per numeric feature
    and one per category of a categorical one, in feature order."""
    widths = np.array([1 if f.is_numeric else len(f.categories) for f in schema.features],
                      dtype=np.intp)
    start = np.cumsum(widths) - widths
    num = schema.numeric_mask()
    A = np.zeros(X.shape[:-1] + (widths.sum(),))
    A[..., start[num]] = schema.scaled_numeric(X)
    np.put_along_axis(A, start[~num] + X[..., ~num].astype(np.intp), 1.0, axis=-1)
    return A


def fit_linear_explainer(nbhs: list[Neighborhood], X: np.ndarray, schema: Schema) -> np.ndarray:
    """The weighted-linear baseline's encoded prediction at each query X[j],
    fitted to the relabeled nbhs[j] under the schema's target: the argmax of
    one score column per class of that target (ties to the lowest class), or
    the regression score. A stage's neighborhoods have one size, so one
    stacked solve fits as many as tabular.WORK_BYTES holds, each matrix on
    its own. A class that a neighborhood lacks solves to a zero score
    column, and the scores of the classes it holds sum to 1, so that column
    never wins."""
    if not nbhs:
        return np.empty(0)
    z = _encode(schema, X)[..., None]  # (B, d, 1)
    dim = z.shape[1]
    kernel_width = 0.75 * np.sqrt(max(dim, 1))  # without features every distance is 0
    y = np.stack([nbh.relabels for nbh in nbhs])
    w = np.exp(-(np.stack([nbh.distances for nbh in nbhs]) ** 2) / kernel_width**2)
    classes = schema.target.kind == CLASSIFICATION
    if classes:
        targets = (y.astype(int)[..., None] == np.arange(len(schema.target.classes))).astype(float)
    else:
        targets = y.astype(float)[..., None]

    rows = np.stack([nbh.rows for nbh in nbhs])
    scores = np.empty((len(nbhs), targets.shape[-1]))
    # a query holds its encoded rows, their weighted copy and two (d+1, d+1) matrices
    step = work_step(8 * (2 * rows.shape[1] + 2 * (dim + 1)) * (dim + 1))
    for a in range(0, len(nbhs), step):
        A = _encode(schema, rows[a:a + step])  # (b, N, d)
        # augmented design with an unpenalized intercept column
        Aa = np.concatenate([A, np.ones(A.shape[:-1] + (1,))], axis=-1)
        WA = Aa * w[a:a + step, :, None]
        gram = Aa.swapaxes(1, 2) @ WA
        gram[:, np.arange(dim), np.arange(dim)] += 1e-3  # the ridge term
        beta = np.linalg.solve(gram, WA.swapaxes(1, 2) @ targets[a:a + step])  # (b, d+1, outputs)
        scores[a:a + step] = (beta[:, :-1].swapaxes(1, 2) @ z[a:a + step])[..., 0] + beta[:, -1]
    return scores.argmax(axis=1) if classes else scores[:, 0]


def check_explainers(names: list[str]) -> None:
    """Raise ValueError unless names lists known explainers, each once, and
    at least one."""
    for k, name in enumerate(names):
        if name not in EXPLAINERS:
            raise ValueError(f"unknown explainer {name!r} (valid: {', '.join(EXPLAINERS)})")
        if name in names[:k]:
            raise ValueError(f"explainer {name!r} is listed twice")
    if not names:
        raise ValueError("empty explainer list")


@dataclass
class FidelityReport:
    summaries: list[dict]  # per explainer: name, agreements, total, fidelity
    per_instance: list[dict]  # explainer, index, oracle_label, prediction, agree
    notes: list[tuple[int, str]]  # (test row, SMOTE-NC note), in row order


def evaluate_fidelity(train: Dataset, test: Dataset, oracle: PredictionOracle,
                      explainers: list[str], cfg: ExplainConfig = ExplainConfig()) -> FidelityReport:
    """Per-instance agreement of each explainer with the oracle over a test set.

    Every explainer scores every test row, so each summary's total is
    len(test), and per_instance holds one record per (test row, explainer),
    row by row in the order of `explainers`. A list that check_explainers
    refuses raises ValueError, and an oracle that does not fit train
    (check_oracle) SchemaError, before any oracle request; any exception
    aborts the run: an oracle error, a test row the neighborhood selection
    rejects (SchemaError), or an explainer's failure on one row. Test row i is
    explained under seed cfg.seed + i, in the SMOTE config as well, and
    araucana's SMOTE-NC notes on its neighborhood come back paired with i.
    """
    check_explainers(explainers)
    check_oracle(train, oracle)
    schema = oracle.schema
    per_instance, notes = [], []

    labels = TrainLabels(len(train))
    for a in range(0, len(test), EXPLAIN_BATCH_QUERIES):
        X = test.X[a:a + EXPLAIN_BATCH_QUERIES]
        nbhs = select_neighborhoods(train, X, oracle, cfg, labels)
        preds = {}
        if ARAUCANA in explainers:
            cfgs = [_row_config(cfg, i) for i in range(a, a + len(X))]
            preds[ARAUCANA], row_notes = _leaf_predictions(nbhs, X, oracle, cfgs)
            notes += [(a + j, note) for j, noted in enumerate(row_notes) for note in noted]
        if LINEAR in explainers:
            preds[LINEAR] = fit_linear_explainer(nbhs, X, schema)
        for j, nbh in enumerate(nbhs):
            oracle_label = nbh.query_label
            for name in explainers:
                pred = preds[name][j]
                per_instance.append(
                    {
                        "explainer": name,
                        "index": a + j,
                        "oracle_label": schema.decode_label(oracle_label),
                        "prediction": schema.decode_label(pred),
                        "agree": bool(abs(pred - oracle_label)
                                      <= match_epsilon(schema.target.kind, oracle_label)),
                    }
                )

    summaries = []
    for name in explainers:
        agrees = [r["agree"] for r in per_instance if r["explainer"] == name]
        agreements, total = sum(agrees), len(agrees)
        summaries.append({"explainer": name, "agreements": agreements, "total": total,
                          "fidelity": agreements / total if total else float("nan")})
    return FidelityReport(summaries, per_instance, notes)


def _row_config(cfg: ExplainConfig, i: int) -> ExplainConfig:
    """The config of test row i: seed cfg.seed + i, in the SMOTE config too."""
    smote = None if cfg.smote is None else replace(cfg.smote, seed=cfg.seed + i)
    return replace(cfg, smote=smote, seed=cfg.seed + i)


def report_to_csv(report: FidelityReport) -> tuple[bytes, bytes]:
    """(summary.csv, per_instance.csv) contents; byte-stable for a fixed report."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["explainer", "agreements", "total", "fidelity"])
    for s in report.summaries:
        writer.writerow([s["explainer"], s["agreements"], s["total"], f"{s['fidelity']:.6f}"])
    summary = out.getvalue().encode("utf-8")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["explainer", "index", "oracle_label", "prediction", "agree"])
    for r in report.per_instance:
        writer.writerow(
            [r["explainer"], r["index"], value_text(r["oracle_label"]),
             value_text(r["prediction"]), str(r["agree"]).lower()]
        )
    return summary, out.getvalue().encode("utf-8")

