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
dimension), and a ridge term of 1e-3.
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
from .oracle import OracleError, PredictionOracle
from .tabular import CLASSIFICATION, Dataset, Schema

ARAUCANA = "araucana"
LINEAR = "linear"
EXPLAINERS = (ARAUCANA, LINEAR)

# test rows explained per stage: bounds a stage's neighborhoods, explainer sets
# and oracle requests whatever the size of the test set
EXPLAIN_BATCH_QUERIES = 64


@dataclass
class LinearExplainer:
    """Ridge-regularized weighted linear fit on an encoded neighborhood.

    Encoding: numerics scaled to [0, 1] by the schema range, categoricals
    one-hot. Classification fits one score column per class (0/1 indicators)
    and predicts the argmax; a single-label neighborhood degenerates to a
    constant predictor.
    """

    weights: np.ndarray  # (n_outputs, encoded_dim)
    intercept: np.ndarray  # (n_outputs,)
    kernel_width: float
    task: str
    schema: Schema
    constant: object = None  # label when the fit degenerated

    def predict(self, inst: np.ndarray):
        if self.constant is not None:
            return self.constant
        z = _encode(self.schema, np.asarray(inst, dtype=float).reshape(1, -1))[0]
        scores = self.weights @ z + self.intercept
        if self.task == CLASSIFICATION:
            return int(np.argmax(scores))  # ties: lowest class index
        return float(scores[0])


def _encode(schema: Schema, X: np.ndarray) -> np.ndarray:
    cols = []
    lo, hi = schema.numeric_bounds()
    for i, f in enumerate(schema.features):
        if f.is_numeric:
            span = hi[i] - lo[i]
            if span > 0:
                cols.append(((np.clip(X[:, i], lo[i], hi[i]) - lo[i]) / span)[:, None])
            else:
                cols.append(np.zeros((len(X), 1)))
        else:
            onehot = np.zeros((len(X), len(f.categories)))
            onehot[np.arange(len(X)), X[:, i].astype(int)] = 1.0
            cols.append(onehot)
    return np.hstack(cols)


def encoded_dim(schema: Schema) -> int:
    return sum(1 if f.is_numeric else len(f.categories) for f in schema.features)


def fit_linear_explainer(nbh: Neighborhood, schema: Schema,
                         task: str = CLASSIFICATION) -> LinearExplainer:
    """Weighted least squares on the relabeled neighborhood."""
    dim = encoded_dim(schema)
    kernel_width = 0.75 * np.sqrt(dim)
    y = np.asarray(nbh.relabels)
    if task == CLASSIFICATION and len(np.unique(y)) < 2:
        return LinearExplainer(np.zeros((1, dim)), np.zeros(1), kernel_width, task,
                               schema, constant=int(y[0]) if len(y) else 0)

    A = _encode(schema, nbh.rows)
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
    failures: dict[str, int]


def evaluate_fidelity(train: Dataset, test: Dataset, oracle: PredictionOracle,
                      explainers: list[str], cfg: ExplainConfig = ExplainConfig()) -> FidelityReport:
    """Per-instance agreement of each explainer with the oracle over a test set.

    Explainer failures other than oracle breakage are excluded from the
    denominator (with a warning); oracle errors abort the run, and so does a
    test row the shared neighborhood selection rejects (SchemaError when it
    does not conform to the training schema). Test row i is explained under
    seed cfg.seed + i, in the SMOTE config as well.
    """
    for name in explainers:
        if name not in EXPLAINERS:
            raise ValueError(f"unknown explainer {name!r} (valid: {', '.join(EXPLAINERS)})")
    schema = train.schema
    per_instance = []
    agreements = {name: 0 for name in explainers}
    totals = {name: 0 for name in explainers}
    failures = {name: 0 for name in explainers}

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
                try:
                    if name == ARAUCANA:
                        expl = expls[j]
                        if isinstance(expl, Exception):
                            raise expl
                        prediction = expl.rule.prediction
                        agree = expl.faithful
                    else:
                        lin = fit_linear_explainer(nbh, schema, task=oracle.task)
                        pred = lin.predict(x)
                        prediction = schema.decode_label(pred)
                        agree = bool(abs(pred - oracle_label)
                                     <= match_epsilon(oracle.task, oracle_label))
                except OracleError:
                    raise
                except Exception as exc:  # noqa: BLE001 - per-instance isolation
                    failures[name] += 1
                    warnings.warn(f"{name} failed on test row {i}: {exc}", stacklevel=2)
                    continue
                totals[name] += 1
                agreements[name] += int(agree)
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
        total = totals[name]
        summaries.append(
            {
                "explainer": name,
                "agreements": agreements[name],
                "total": total,
                "fidelity": agreements[name] / total if total else float("nan"),
            }
        )
    return FidelityReport(summaries, per_instance, failures)


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
            [r["explainer"], r["index"], _csv_cell(r["oracle_label"]),
             _csv_cell(r["prediction"]), str(r["agree"]).lower()]
        )
    return summary, out.getvalue().encode("utf-8")


def _csv_cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)
