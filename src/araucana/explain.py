"""The local tree-explanation pipeline.

Given a training set, a query instance x, and a black-box oracle:

1. rank training rows by distance to x and keep the N nearest,
2. relabel them with the oracle's predictions (original targets are ignored);
   x rides in the same oracle call as the last row, so one request labels the
   whole neighborhood and the query,
3. oversample the relabeled neighborhood with SMOTE-NC and relabel the
   synthetic points with the oracle as well,
4. fit an unpruned CART tree on neighborhood + x + synthetics,
5. read the root-to-leaf path of x off the tree as an IF-THEN rule.

Because the tree is unpruned and x is part of its training set, the tree
reproduces the oracle's label for x exactly whenever no other row of the
explainer set carries x's exact feature vector with a different label.

`select_neighborhood` does steps 1-2 and `explain_neighborhood` steps 3-5, so
a caller that needs the neighborhood for more than one explainer (the
fidelity harness) selects and labels it once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cart
from .gower import DistanceMetric, distances_to, nearest
from .oracle import PredictionOracle
from .smote import SmoteConfig, smote_nc
from .tabular import CLASSIFICATION, REGRESSION, Dataset, Schema, validate_instance

ORIGINAL = "original"
QUERY = "query"
SYNTHETIC = "synthetic"

TEXT = "text"
JSON = "json"

OP_LE = "<="
OP_GT = ">"
OP_EQ = "=="
OP_NE = "!="


@dataclass(frozen=True)
class ExplainConfig:
    n_neighbors: int = 100
    distance: str = "gower"
    smote: SmoteConfig | None = field(default_factory=SmoteConfig)  # None = off
    seed: int = 0

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")


@dataclass
class Neighborhood:
    """The N training rows nearest the query, with their oracle relabels, and
    the oracle's label for the query itself."""

    indices: np.ndarray
    distances: np.ndarray  # non-decreasing
    rows: np.ndarray
    relabels: np.ndarray
    query_label: object  # encoded label (class index or float)


@dataclass
class ExplainerSet:
    """Rows the surrogate tree is trained on: neighborhood, query, synthetics."""

    X: np.ndarray
    y: np.ndarray
    provenance: list[str]

    def __len__(self):
        return len(self.X)


@dataclass(frozen=True)
class Condition:
    feature: str
    op: str
    value: object  # threshold for numerics, category string otherwise


@dataclass
class Rule:
    """The query's root-to-leaf path as a conjunction of conditions.

    support counts explainer-set rows satisfying every condition, which are
    the rows the tree routes to x's leaf; purity is the fraction of those rows
    whose label matches the prediction (within the regression epsilon for
    numeric targets).
    """

    conditions: list[Condition]
    prediction: object  # class name or regression value
    support: int
    purity: float


@dataclass
class Explanation:
    query: np.ndarray
    oracle_label: object  # encoded label (class index or float)
    rule: Rule
    tree: cart.ExplainerTree
    tree_stats: dict
    faithful: bool
    neighborhood: dict
    config: dict
    seed: int
    explainer_set: ExplainerSet | None = None  # kept for inspection, not serialized


def select_neighborhood(train: Dataset, x: np.ndarray, oracle: PredictionOracle,
                        cfg: ExplainConfig) -> Neighborhood:
    """The N training rows with lowest distance to x (ties: lower row index),
    relabeled by the oracle in one call that labels x as its last row."""
    x = np.asarray(x, dtype=float)
    validate_instance(train.schema, x)
    n = cfg.n_neighbors
    if n > len(train):
        warnings.warn(
            f"n_neighbors={n} exceeds the training size {len(train)}; clamping",
            stacklevel=2,
        )
        n = len(train)
    metric = DistanceMetric(train.schema, cfg.distance)
    d = distances_to(metric, x, train.X)
    order = nearest(d, n)
    rows = train.X[order]
    labels = oracle.predict_batch(np.vstack([rows, x]))
    return Neighborhood(order, d[order], rows, labels[:-1], labels[-1])


def build_explainer_set(nbh: Neighborhood, x: np.ndarray, oracle: PredictionOracle,
                        smote_cfg: SmoteConfig | None, schema: Schema) -> ExplainerSet:
    """Neighborhood rows + query + oracle-relabeled SMOTE synthetics."""
    x = np.asarray(x, dtype=float)
    parts_X = [nbh.rows, x.reshape(1, -1)]
    parts_y = [np.asarray(nbh.relabels), np.asarray([nbh.query_label])]
    provenance = [ORIGINAL] * len(nbh.rows) + [QUERY]
    if smote_cfg is not None:
        syn_X, _ = smote_nc(nbh.rows, nbh.relabels, schema, smote_cfg)
        if len(syn_X):
            syn_y = oracle.predict_batch(syn_X)  # oracle labels replace seed labels
            parts_X.append(syn_X)
            parts_y.append(syn_y)
            provenance += [SYNTHETIC] * len(syn_X)
    return ExplainerSet(np.vstack(parts_X), np.concatenate(parts_y), provenance)


def _merge_path(path, schema: Schema) -> list[Condition]:
    """Decision-path tests as conditions, numeric tests merged per feature into
    the tightest interval, emitted at each feature's first appearance."""
    numeric_first: dict[int, int] = {}
    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    slots: list = []
    for feat, kind, value, taken in path:
        name = schema.features[feat].name
        if kind == cart.NUMERIC_LE:
            if feat not in numeric_first:
                numeric_first[feat] = len(slots)
                slots.append(("interval", feat, name))
            if taken:
                upper[feat] = min(upper.get(feat, np.inf), value)
            else:
                lower[feat] = max(lower.get(feat, -np.inf), value)
        else:
            category = schema.features[feat].categories[int(value)]
            slots.append(("cat", Condition(name, OP_EQ if taken else OP_NE, category)))
    out: list[Condition] = []
    for slot in slots:
        if slot[0] == "cat":
            out.append(slot[1])
        else:
            _, feat, name = slot
            if feat in lower:
                out.append(Condition(name, OP_GT, lower[feat]))
            if feat in upper:
                out.append(Condition(name, OP_LE, upper[feat]))
    return out


def match_epsilon(task: str, label) -> float:
    """Distance within which a prediction matches the label: 0 for classes,
    1e-6 relative plus 1e-9 absolute around the label for numeric targets."""
    if task == CLASSIFICATION:
        return 0.0
    return 1e-6 * abs(float(label)) + 1e-9


def explain_instance(train: Dataset, x: np.ndarray, oracle: PredictionOracle,
                     cfg: ExplainConfig = ExplainConfig()) -> Explanation:
    """Run the full pipeline for one query instance."""
    x = np.asarray(x, dtype=float)
    nbh = select_neighborhood(train, x, oracle, cfg)
    return explain_neighborhood(nbh, x, oracle, cfg, train.schema)


def explain_neighborhood(nbh: Neighborhood, x: np.ndarray, oracle: PredictionOracle,
                         cfg: ExplainConfig, schema: Schema) -> Explanation:
    """Steps 3-5 of the pipeline on the neighborhood `select_neighborhood`
    returned for x under the same cfg."""
    x = np.asarray(x, dtype=float)
    task = oracle.task

    smote_cfg = cfg.smote
    smote_off_reason = None
    if task == REGRESSION and smote_cfg is not None:
        # class-based oversampling is undefined for numeric targets
        smote_cfg = None
        smote_off_reason = "regression task"

    eset = build_explainer_set(nbh, x, oracle, smote_cfg, schema)
    q = len(nbh.rows)  # the query row follows the neighborhood rows
    oracle_label = nbh.query_label

    tree = cart.fit_tree(eset.X, eset.y, schema, task)
    path = cart.decision_path(tree, x)
    conditions = _merge_path(path, schema)

    # the rows meeting every condition are exactly the rows routed to x's leaf
    leaves = cart.apply(tree, eset.X)
    pred_encoded = tree.table.pred[leaves[q]]
    eps = match_epsilon(task, oracle_label)
    faithful = bool(abs(pred_encoded - oracle_label) <= eps)
    in_leaf = eset.y[leaves == leaves[q]]
    agree = int((np.abs(in_leaf - pred_encoded) <= eps).sum())
    rule = Rule(conditions, schema.decode_label(pred_encoded), len(in_leaf), agree / len(in_leaf))

    if task == CLASSIFICATION:
        relabel_counts: dict = {}
        for v in nbh.relabels:
            key = str(schema.decode_label(v))
            relabel_counts[key] = relabel_counts.get(key, 0) + 1
    else:
        vals = np.asarray(nbh.relabels, dtype=float)
        relabel_counts = {
            "min": float(vals.min()),
            "mean": float(vals.mean()),
            "max": float(vals.max()),
        }
    smote_echo = "off" if smote_cfg is None else {
        "policy": smote_cfg.target_policy,
        "k_neighbors": smote_cfg.k_neighbors,
        **({"fixed_total": smote_cfg.fixed_total} if smote_cfg.fixed_total is not None else {}),
    }
    if smote_off_reason:
        smote_echo = f"off ({smote_off_reason})"
    config_echo = {
        "n_neighbors": int(len(nbh.rows)),
        "distance": cfg.distance,
        "smote": smote_echo,
        "cart": {  # fixed: a node splits down to one row, at any depth
            "criterion": cart.GINI if task == CLASSIFICATION else cart.MSE,
            "min_samples_split": 2,
            "max_depth": None,
        },
        "task": task,
    }
    if task == REGRESSION:
        config_echo["regression_epsilon"] = eps
    return Explanation(
        query=x,
        oracle_label=oracle_label,
        rule=rule,
        tree=tree,
        tree_stats=cart.tree_stats(tree),
        faithful=faithful,
        neighborhood={
            "size": int(len(nbh.rows)),
            "max_distance": float(nbh.distances[-1]) if len(nbh.distances) else 0.0,
            "relabel_counts": relabel_counts,
        },
        config=config_echo,
        seed=cfg.seed,
        explainer_set=eset,
    )


def _format_value(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def render_explanation(expl: Explanation, format: str = TEXT) -> bytes:
    """Stable text or JSON rendering of an explanation."""
    schema = expl.tree.schema
    if format == JSON:
        doc = {
            "query": schema.decode_row(expl.query),
            "oracle_label": schema.decode_label(expl.oracle_label),
            "rule": {
                "conditions": [
                    {"feature": c.feature, "op": c.op, "value": c.value}
                    for c in expl.rule.conditions
                ],
                "prediction": expl.rule.prediction,
                "support": expl.rule.support,
                "purity": expl.rule.purity,
            },
            "tree": cart.tree_to_dict(expl.tree),
            "tree_stats": expl.tree_stats,
            "faithful": expl.faithful,
            "config": expl.config,
            "seed": expl.seed,
        }
        return (cart.json_text(doc, indent=2) + "\n").encode("utf-8")
    if format != TEXT:
        raise ValueError(f"unknown render format {format!r}")
    if expl.rule.conditions:
        cond = " AND ".join(
            f"{c.feature} {c.op} {_format_value(c.value)}" for c in expl.rule.conditions
        )
    else:
        cond = "(always)"
    lines = [
        f"IF {cond} THEN {expl.rule.prediction} "
        f"(support={expl.rule.support}, purity={expl.rule.purity:.3f}, "
        f"faithful={str(expl.faithful).lower()})",
        f"oracle label: {schema.decode_label(expl.oracle_label)}",
        f"tree: depth={expl.tree_stats['depth']} leaves={expl.tree_stats['leaf_count']} "
        f"nodes={expl.tree_stats['node_count']}",
        f"neighborhood: size={expl.neighborhood['size']} "
        f"max_distance={expl.neighborhood['max_distance']:.4f} "
        f"relabels={expl.neighborhood['relabel_counts']}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
