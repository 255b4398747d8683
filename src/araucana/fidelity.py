"""Fidelity evaluation of local explainers against the black box.

The test rows go through the staged explain pipeline in chunks of at most
EXPLAIN_BATCH_QUERIES. Per chunk, one oracle request labels the neighbor rows
not labelled before in the run, then the chunk's instances (a TrainLabels
keeps each training row's label for the whole run), and one more labels every
SMOTE synthetic of the chunk. Every explainer is fitted to an instance's one
neighborhood and predicts the instance. Fidelity is the fraction of
instances where that prediction matches the oracle's label. The weighted-linear
baseline mirrors the usual local-linear recipe: least squares on the encoded
neighborhood with proximity weights exp(-d^2 / w^2), w = 0.75 sqrt(encoded
dimension, at least 1), and a ridge term of 1e-3.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .explain import (
    ExplainConfig,
    Neighborhood,
    TrainLabels,
    explain_neighborhoods,
    match_epsilon,
    select_neighborhoods,
)
from .oracle import PredictionOracle
from .tabular import CLASSIFICATION, Dataset, Schema, value_text

ARAUCANA = "araucana"
LINEAR = "linear"
EXPLAINERS = (ARAUCANA, LINEAR)

# test rows explained per stage: bounds a stage's neighborhoods, explainer sets
# and oracle requests whatever the size of the test set
EXPLAIN_BATCH_QUERIES = 64


@dataclass
class LinearExplainer:
    """Ridge-regularized weighted linear fit on an encoded neighborhood.

    Encoding: numerics scaled to [0, 1] by the schema (Schema.scaled_numeric),
    categoricals one-hot, in feature order. Classification fits one score
    column per class (0/1 indicators) and predicts the argmax.
    """

    weights: np.ndarray  # (n_outputs, encoded dimension)
    intercept: np.ndarray  # (n_outputs,)
    kernel_width: float
    task: str
    schema: Schema

    def predict(self, inst: np.ndarray):
        z = _encode(self.schema, np.asarray(inst, dtype=float).reshape(1, -1))[0]
        scores = self.weights @ z + self.intercept
        if self.task == CLASSIFICATION:
            return int(np.argmax(scores))  # ties: lowest class index
        return float(scores[0])


def _encode(schema: Schema, X: np.ndarray) -> np.ndarray:
    """The rows X encoded, one column per numeric feature and one per
    category of a categorical one, in feature order."""
    widths = np.array([1 if f.is_numeric else len(f.categories) for f in schema.features],
                      dtype=np.intp)
    start = np.cumsum(widths) - widths
    num = schema.numeric_mask()
    A = np.zeros((len(X), widths.sum()))
    A[:, start[num]] = schema.scaled_numeric(X)
    A[np.arange(len(X))[:, None], start[~num] + X[:, ~num].astype(np.intp)] = 1.0
    return A


def fit_linear_explainer(nbh: Neighborhood, schema: Schema,
                         task: str = CLASSIFICATION) -> LinearExplainer:
    """Weighted least squares on the relabeled neighborhood. On a one-label
    neighborhood every other class's score column has a zero right-hand side
    and solves to zeros, and the label's is met by the unpenalized intercept
    alone, so the fit predicts that label."""
    A = _encode(schema, nbh.rows)
    dim = A.shape[1]
    kernel_width = 0.75 * np.sqrt(max(dim, 1))  # without features every distance is 0
    y = np.asarray(nbh.relabels)
    w = np.exp(-(np.asarray(nbh.distances) ** 2) / kernel_width**2)
    if task == CLASSIFICATION:
        n_classes = int(y.max()) + 1 if schema.target is None else len(schema.target.classes)
        targets = np.zeros((len(y), n_classes))
        targets[np.arange(len(y)), y.astype(int)] = 1.0
    else:
        targets = np.asarray(y, dtype=float)[:, None]

    # augmented design with an unpenalized intercept column
    Aa = np.hstack([A, np.ones((len(A), 1))])
    WA = Aa * w[:, None]
    gram = Aa.T @ WA
    reg = 1e-3 * np.eye(dim + 1)
    reg[dim, dim] = 0.0
    beta = np.linalg.solve(gram + reg, WA.T @ targets)  # (dim+1, n_outputs)
    return LinearExplainer(beta[:-1].T, beta[-1], kernel_width, task, schema)


@dataclass
class FidelityReport:
    summaries: list[dict]  # per explainer: name, agreements, total, fidelity
    per_instance: list[dict]  # explainer, index, oracle_label, prediction, agree


def evaluate_fidelity(train: Dataset, test: Dataset, oracle: PredictionOracle,
                      explainers: list[str], cfg: ExplainConfig = ExplainConfig()) -> FidelityReport:
    """Per-instance agreement of each explainer with the oracle over a test set.

    Every explainer scores every test row, so each summary's total is
    len(test), and per_instance holds one record per (test row, explainer),
    row by row in the order of `explainers`. Any exception aborts the run:
    an oracle error, a test row the shared neighborhood selection rejects
    (SchemaError when it does not conform to the training schema), or an
    explainer's failure on one row. Test row i is explained under seed
    cfg.seed + i, in the SMOTE config as well, and SMOTE-NC's notes on its
    neighborhood come as warnings that name the row.
    """
    for name in explainers:
        if name not in EXPLAINERS:
            raise ValueError(f"unknown explainer {name!r} (valid: {', '.join(EXPLAINERS)})")
    schema = train.schema
    per_instance = []

    labels = TrainLabels(len(train))
    for a in range(0, len(test), EXPLAIN_BATCH_QUERIES):
        X = test.X[a:a + EXPLAIN_BATCH_QUERIES]
        nbhs = select_neighborhoods(train, X, oracle, cfg, labels)
        if ARAUCANA in explainers:
            cfgs = [_row_config(cfg, i) for i in range(a, a + len(X))]
            expls = explain_neighborhoods(nbhs, X, oracle, cfgs, schema)
        for j, (x, nbh) in enumerate(zip(X, nbhs)):
            i, oracle_label = a + j, nbh.query_label
            for name in explainers:
                if name == ARAUCANA:
                    expl = expls[j]
                    for note in expl.smote_notes:
                        warnings.warn(f"SMOTE-NC on test row {i}: {note}", stacklevel=2)
                    prediction = expl.rule.prediction
                    agree = expl.faithful
                else:
                    lin = fit_linear_explainer(nbh, schema, task=oracle.task)
                    pred = lin.predict(x)
                    prediction = schema.decode_label(pred)
                    agree = bool(abs(pred - oracle_label)
                                 <= match_epsilon(oracle.task, oracle_label))
                per_instance.append(
                    {
                        "explainer": name,
                        "index": i,
                        "oracle_label": schema.decode_label(oracle_label),
                        "prediction": prediction,
                        "agree": bool(agree),
                    }
                )

    summaries = []
    for name in explainers:
        agrees = [r["agree"] for r in per_instance if r["explainer"] == name]
        agreements, total = sum(agrees), len(agrees)
        summaries.append({"explainer": name, "agreements": agreements, "total": total,
                          "fidelity": agreements / total if total else float("nan")})
    return FidelityReport(summaries, per_instance)


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
        fid = "nan" if s["total"] == 0 else f"{s['fidelity']:.6f}"
        writer.writerow([s["explainer"], s["agreements"], s["total"], fid])
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

