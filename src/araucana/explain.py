"""The local tree-explanation pipeline.

Given a training set, a query instance x, and a black-box oracle:

1. rank training rows by distance to x and keep the N nearest,
2. relabel them with the oracle's predictions (original targets are ignored,
   and may be absent: the oracle's schema states the task and the classes);
   x rides in the same oracle call as the last row, so one request labels the
   whole neighborhood and the query,
3. oversample the relabeled neighborhood with SMOTE-NC and relabel the
   synthetic points with the oracle as well,
4. fit an unpruned CART tree on neighborhood + x + synthetics,
5. read the root-to-leaf path of x off the tree as an IF-THEN rule.

Because the tree is unpruned and x is part of its training set, the tree
reproduces the oracle's label for x exactly whenever no other row of the
explainer set carries x's exact feature vector with a different label.

The pipeline runs on a batch of queries in stages. `select_neighborhoods`
checks that the oracle fits the training set (`check_oracle`), then does
steps 1-2 for every query with bounded distance blocks and one oracle
request, which skips the training rows a TrainLabels already holds and ends
with the queries. `explain_neighborhoods` does steps 3-5, under the oracle's
schema, with one request for every query's synthetics and one grow_trees
call for every explainer tree. `explain_instance` runs both stages on one
query, whose first request is the N neighbors and then x. A caller that
needs the neighborhood for more than one explainer (the fidelity harness)
selects and labels it once.

`render_explanation` writes an explanation as text or as JSON. The JSON
document (format 2) stores the explainer tree as model.json stores a forest,
in the preorder columns of oracle.forest_columns with the one root 0, so it
nests at a fixed depth whatever the tree's depth.

Nothing here warns: SMOTE-NC's notes stay in `Explanation.smote_notes`, and
a training set smaller than n_neighbors gives a neighborhood of its size.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import cart
from .gower import GOWER, nearest_rows
from .oracle import PredictionOracle, forest_columns
from .smote import SmoteConfig, smote_nc
from .tabular import CLASSIFICATION, REGRESSION, Dataset, Schema, SchemaError, check_rows, value_text

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
    """The rule of one query, with the tree, neighborhood and config it came
    from. What a rendering shows beyond the rule (tree_stats, the config
    echo, the seed and the neighborhood summary) is derived from these when
    it is read, not stored."""

    query: np.ndarray
    oracle_label: object  # encoded label (class index or float)
    rule: Rule
    tree: cart.ExplainerTree
    faithful: bool
    neighborhood: Neighborhood
    explain_config: ExplainConfig  # the query's own, as explain_neighborhoods took it
    explainer_set: ExplainerSet  # kept for inspection, not serialized
    # SMOTE-NC's notes on the neighborhood (smote.smote_nc); not serialized
    smote_notes: list[str] = field(default_factory=list)

    @property
    def tree_stats(self) -> dict:
        return cart.tree_stats(self.tree)

    @property
    def seed(self) -> int:
        return self.explain_config.seed

    @property
    def config(self) -> dict:
        """The settings that made the explanation, as explanation.json echoes them."""
        task, smote = self.tree.task, self.explain_config.smote
        if smote is None:
            smote_echo = "off"
        elif task == REGRESSION:  # class-based oversampling is undefined for numeric targets
            smote_echo = "off (regression task)"
        else:
            smote_echo = {
                "policy": "balance" if smote.fixed_total is None else "fixed",
                "k_neighbors": smote.k_neighbors,
                **({"fixed_total": smote.fixed_total} if smote.fixed_total is not None else {}),
            }
        echo = {
            "n_neighbors": int(len(self.neighborhood.rows)),
            "distance": GOWER,  # fixed: the one metric
            "smote": smote_echo,
            "cart": {  # fixed: a node splits down to one row, at any depth
                "criterion": cart.GINI if task == CLASSIFICATION else cart.MSE,
                "min_samples_split": 2,
                "max_depth": None,
            },
            "task": task,
        }
        if task == REGRESSION:
            echo["regression_epsilon"] = match_epsilon(task, self.oracle_label)
        return echo


class TrainLabels:
    """The oracle's labels of training rows, kept for one run: values[i] is
    row i's label once known[i]. A row is sent to the oracle only while its
    label is unknown; values takes the dtype of the oracle's first reply."""

    def __init__(self, n_rows: int):
        self.known = np.zeros(n_rows, dtype=bool)
        self.values: np.ndarray | None = None


def check_oracle(train: Dataset, oracle: PredictionOracle) -> None:
    """Raise SchemaError unless the oracle's schema has the training set's
    features (names, kinds, ranges and category lists); train may lack a target."""
    if oracle.schema.features != train.schema.features:
        raise SchemaError("the oracle's schema has other features than the training set's")


def select_neighborhoods(train: Dataset, X: np.ndarray, oracle: PredictionOracle,
                         cfg: ExplainConfig, labels: TrainLabels | None = None
                         ) -> list[Neighborhood]:
    """Steps 1-2 for every query row of X: the N training rows with lowest
    distance to it (ties: lower row index), relabeled by the oracle.

    One request labels the neighbor rows whose label `labels` does not hold
    yet, in order of first appearance (query by query, nearest first),
    followed by the queries themselves; without `labels` every neighbor row
    is sent, so one query sends its N neighbors and then itself. An empty
    training set has no neighborhood and raises ValueError, and an oracle that
    does not fit it (check_oracle) raises SchemaError, before any request."""
    check_oracle(train, oracle)
    X = np.asarray(X, dtype=float)
    check_rows(train.schema, X)
    if len(train) == 0:
        raise ValueError("the training set is empty: a neighborhood needs at least one row")
    n = min(cfg.n_neighbors, len(train))
    if labels is None:
        labels = TrainLabels(len(train))
    order, dist = nearest_rows(train.schema, X, train.X, n)
    flat = order.ravel()
    new = flat[np.sort(np.unique(flat, return_index=True)[1])]
    new = new[~labels.known[new]]
    got = oracle.predict_batch(np.vstack([train.X[new], X]))
    if labels.values is None:
        labels.values = np.empty(len(train), dtype=got.dtype)
    labels.values[new] = got[:len(new)]
    labels.known[new] = True
    query_labels = got[len(new):]
    return [Neighborhood(near, dist[q], train.X[near], labels.values[near], query_labels[q])
            for q, near in enumerate(order)]


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
    """Run the full pipeline for one query instance; SMOTE-NC's notes come
    back in the explanation's smote_notes."""
    x = np.asarray(x, dtype=float)
    nbh = select_neighborhoods(train, x[None], oracle, cfg)[0]
    return explain_neighborhoods([nbh], x[None], oracle, [cfg])[0]


def explain_neighborhoods(nbhs: list[Neighborhood], X: np.ndarray, oracle: PredictionOracle,
                          cfgs: list[ExplainConfig]) -> list[Explanation]:
    """Steps 3-5 for every query row X[q], on the neighborhood nbhs[q] that
    select_neighborhoods returned for it from this oracle, under cfgs[q]
    and the oracle's schema.

    SMOTE-NC runs per query; one oracle request labels every query's
    synthetic rows, in query order (none when there are none), and one
    cart.grow_trees call grows every explainer tree whole. Each explanation
    keeps its query's SMOTE-NC notes, for the caller to report. An exception
    from any query's step propagates and fails the whole batch; an empty
    batch gives no explanations.
    """
    if not nbhs:
        return []
    X = np.asarray(X, dtype=float)
    X_all, y_all, bounds, notes = _explainer_sets(nbhs, X, oracle, cfgs)
    spans = list(zip(bounds, bounds[1:]))
    table, roots, leaves = cart.grow_trees(X_all, y_all, oracle.schema,
                                           [np.arange(a, b) for a, b in spans], [None] * len(nbhs))
    out = []
    for q, (tree, (a, b)) in enumerate(zip(cart.split_trees(table, roots), spans)):
        n = len(nbhs[q].rows)
        provenance = [ORIGINAL] * n + [QUERY] + [SYNTHETIC] * (b - a - n - 1)
        eset = ExplainerSet(X_all[a:b], y_all[a:b], provenance)
        out.append(_explanation(nbhs[q], X[q], cfgs[q], eset, tree, leaves[a:b] - roots[q],
                                notes[q]))
    return out


def _leaf_predictions(nbhs: list[Neighborhood], X: np.ndarray, oracle: PredictionOracle,
                      cfgs: list[ExplainConfig]) -> tuple[np.ndarray, list[list[str]]]:
    """explain_neighborhoods' encoded rule prediction of every query and its
    SMOTE-NC notes, from the same oracle requests, with no Explanation: each
    explainer tree grows only its query's root-to-leaf path (cart.grow_trees'
    keep), which reaches the whole tree's leaf with the same rows."""
    X_all, y_all, bounds, notes = _explainer_sets(nbhs, np.asarray(X, dtype=float), oracle, cfgs)
    keep = [a + len(nbh.rows) for a, nbh in zip(bounds, nbhs)]  # the query follows its neighbors
    tree, _, leaves = cart.grow_trees(X_all, y_all, oracle.schema,
                                      [np.arange(a, b) for a, b in zip(bounds, bounds[1:])],
                                      [None] * len(nbhs), keep)
    return tree.table.pred[leaves[keep]], notes


def _explainer_sets(nbhs, X, oracle, cfgs):
    """Steps 3-4 for a non-empty batch: every query's explainer set, one
    after another (its neighborhood rows, the query, its synthetics), their
    labels, the sets' bounds and each query's SMOTE-NC notes."""
    schema = oracle.schema
    synthetic, notes = [], []
    for nbh, cfg in zip(nbhs, cfgs):
        syn, noted = np.empty((0, schema.n_features)), []
        if cfg.smote is not None and schema.target.kind == CLASSIFICATION:
            syn, _, noted = smote_nc(nbh.rows, nbh.relabels, schema, cfg.smote)
        synthetic.append(syn)
        notes.append(noted)
    ends = np.cumsum([len(syn) for syn in synthetic])
    if any(len(syn) for syn in synthetic):
        syn_y = oracle.predict_batch(np.vstack(synthetic))  # oracle labels replace seed labels
    parts_X, parts_y, bounds = [], [], [0]
    for q, (nbh, syn) in enumerate(zip(nbhs, synthetic)):
        parts_X += [nbh.rows, X[q:q + 1], syn]
        parts_y += [np.asarray(nbh.relabels), np.asarray([nbh.query_label])]
        if len(syn):
            parts_y.append(syn_y[ends[q] - len(syn):ends[q]])
        bounds.append(bounds[-1] + len(nbh.rows) + 1 + len(syn))
    return np.vstack(parts_X), np.concatenate(parts_y), bounds, notes


def _explanation(nbh: Neighborhood, x: np.ndarray, cfg: ExplainConfig, eset: ExplainerSet,
                 tree: cart.ExplainerTree, leaves: np.ndarray,
                 smote_notes: list[str]) -> Explanation:
    """Step 5: the rule of x off its grown tree; leaves holds the leaf each
    explainer-set row reached."""
    q = len(nbh.rows)  # the query row follows the neighborhood rows
    oracle_label = nbh.query_label
    schema = tree.schema
    conditions = _merge_path(cart.decision_path(tree, x), schema)

    # the rows meeting every condition are exactly the rows routed to x's leaf
    pred_encoded = tree.table.pred[leaves[q]]
    eps = match_epsilon(tree.task, oracle_label)
    faithful = bool(abs(pred_encoded - oracle_label) <= eps)
    in_leaf = eset.y[leaves == leaves[q]]
    agree = int((np.abs(in_leaf - pred_encoded) <= eps).sum())
    rule = Rule(conditions, schema.decode_label(pred_encoded), len(in_leaf), agree / len(in_leaf))
    return Explanation(x, oracle_label, rule, tree, faithful, nbh, cfg, eset, smote_notes)


def render_explanation(expl: Explanation, format: str = TEXT) -> bytes:
    """Stable text or JSON rendering of an explanation."""
    schema = expl.tree.schema
    if format == JSON:
        doc = {
            "format": 2,
            "query": schema.decode_rows([expl.query])[0],
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
            "tree": forest_columns(expl.tree, [0]),
            "tree_stats": expl.tree_stats,
            "faithful": expl.faithful,
            "config": expl.config,
            "seed": expl.seed,
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if format != TEXT:
        raise ValueError(f"unknown render format {format!r}")
    if expl.rule.conditions:
        cond = " AND ".join(
            f"{c.feature} {c.op} {value_text(c.value)}" for c in expl.rule.conditions
        )
    else:
        cond = "(always)"
    nbh, stats = expl.neighborhood, expl.tree_stats
    max_distance = float(nbh.distances[-1]) if len(nbh.distances) else 0.0
    if expl.tree.task == CLASSIFICATION:  # each label's count, in order of first appearance
        relabels = dict(Counter(str(schema.decode_label(v)) for v in nbh.relabels))
    else:
        vals = np.asarray(nbh.relabels, dtype=float)
        relabels = {"min": float(vals.min()), "mean": float(vals.mean()), "max": float(vals.max())}
    lines = [
        f"IF {cond} THEN {expl.rule.prediction} "
        f"(support={expl.rule.support}, purity={expl.rule.purity:.3f}, "
        f"faithful={str(expl.faithful).lower()})",
        f"oracle label: {schema.decode_label(expl.oracle_label)}",
        f"tree: depth={stats['depth']} leaves={stats['leaf_count']} "
        f"nodes={stats['node_count']}",
        f"neighborhood: size={len(nbh.rows)} "
        f"max_distance={max_distance:.4f} "
        f"relabels={relabels}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
