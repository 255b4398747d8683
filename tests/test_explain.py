import itertools
import json

import numpy as np
import pytest

from araucana.cart import predict_batch
from araucana.explain import (
    ExplainConfig,
    Neighborhood,
    _merge_path,
    explain_instance,
    explain_neighborhood,
    render_explanation,
    select_neighborhood,
)
from araucana.oracle import BuiltinOracle, ForestConfig, PredictionOracle, train_forest
from araucana.smote import SmoteConfig
from araucana.tabular import (
    Dataset,
    FeatureSpec,
    Schema,
    SynthSpec,
    TargetSpec,
    synth_dataset,
)
from araucana import cart
from araucana.gower import DistanceMetric, distances_to

from conftest import make_dataset, random_mixed_schema, random_rows


class FixedOracle(PredictionOracle):
    """Deterministic test oracle computed from a function of the row."""

    def __init__(self, schema, fn, task="classification"):
        super().__init__(schema, task)
        self.fn = fn

    def predict_batch(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        out = [self.fn(r) for r in rows]
        return np.asarray(out, dtype=np.int64 if self.task == "classification" else float)


def small_classification():
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 120, minority_frac=0.3), seed=5)
    oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=10, seed=1)))
    return ds, oracle


def test_neighborhood_of_training_row_contains_itself():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=1, seed=0)
    nbh = select_neighborhood(ds, ds.X[17], oracle, cfg)
    assert nbh.indices[0] == 17
    assert nbh.distances[0] == 0.0


def test_neighborhood_full_and_clamped():
    ds, oracle = small_classification()
    with pytest.warns(UserWarning, match="clamping"):
        nbh = select_neighborhood(ds, ds.X[0], oracle,
                                  ExplainConfig(n_neighbors=10_000, seed=0))
    assert len(nbh.indices) == len(ds)
    assert (np.diff(nbh.distances) >= 0).all()
    # relabels are element-wise oracle predictions
    np.testing.assert_array_equal(nbh.relabels, oracle.predict_batch(nbh.rows))


def test_explainer_set_smote_off():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=30, smote=None, seed=0)
    nbh = select_neighborhood(ds, ds.X[3], oracle, cfg)
    eset = explain_neighborhood(nbh, ds.X[3], oracle, cfg, ds.schema).explainer_set
    assert len(eset) == 31
    assert eset.provenance.count("original") == 30
    assert eset.provenance.count("query") == 1


def test_explainer_set_balanced_relabels_add_nothing(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    ds = Dataset(two_cat_schema, X, np.zeros(12, dtype=int))
    oracle = FixedOracle(two_cat_schema, lambda r: int(r[0]))  # perfectly balanced
    cfg = ExplainConfig(n_neighbors=12, smote=SmoteConfig(seed=1), seed=1)
    nbh = select_neighborhood(ds, X[0], oracle, cfg)
    eset = explain_neighborhood(nbh, X[0], oracle, cfg, two_cat_schema).explainer_set
    assert eset.provenance.count("synthetic") == 0


def test_synthetic_rows_relabeled_by_oracle():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=40, smote=SmoteConfig(seed=7), seed=7)
    x = ds.X[11]
    nbh = select_neighborhood(ds, x, oracle, cfg)
    eset = explain_neighborhood(nbh, x, oracle, cfg, ds.schema).explainer_set
    syn = [i for i, p in enumerate(eset.provenance) if p == "synthetic"]
    if syn:  # relabels must match a fresh oracle query
        np.testing.assert_array_equal(
            eset.y[syn], oracle.predict_batch(eset.X[syn])
        )


def test_constant_oracle_single_leaf_empty_rule():
    ds, _ = small_classification()
    oracle = FixedOracle(ds.schema, lambda r: 1)
    expl = explain_instance(ds, ds.X[2], oracle, ExplainConfig(n_neighbors=25, seed=3))
    assert expl.tree_stats == {"depth": 0, "leaf_count": 1, "node_count": 1}
    assert expl.rule.conditions == []
    assert expl.faithful is True
    assert b"IF (always) THEN 1" in render_explanation(expl, "text")


def test_unique_query_is_faithful_many_seeds():
    ds, oracle = small_classification()
    rng = np.random.default_rng(2)
    probe = synth_dataset(SynthSpec("imbalanced_mixed", 120, minority_frac=0.3), seed=99)
    for i in rng.integers(0, len(probe), size=25):
        x = probe.X[i]
        expl = explain_instance(ds, x, oracle, ExplainConfig(n_neighbors=30, seed=int(i)))
        feature_rows = expl.explainer_set.X
        dup = (feature_rows == x).all(axis=1)
        labels = expl.explainer_set.y[dup]
        if len(set(labels.tolist())) <= 1:
            assert expl.faithful, f"query {i} not faithful"


def _holds(c, display_value) -> bool:
    """Reference evaluation of one rule condition on a decoded cell."""
    if c.op == "<=":
        return float(display_value) <= c.value
    if c.op == ">":
        return float(display_value) > c.value
    if c.op == "==":
        return display_value == c.value
    return display_value != c.value


def test_rule_conditions_hold_for_query_and_leafmates():
    """Support and purity equal the reference: conditions on decoded rows."""
    for seed, task in itertools.product((0, 1, 2), ("classification", "regression")):
        _check_rule_support(seed, task)


def _check_rule_support(seed, task):
    rng = np.random.default_rng(seed)
    schema = random_mixed_schema(rng, n_classes=3)
    if task == "regression":
        schema = Schema(schema.features, TargetSpec("target", "regression"))
    ds = make_dataset(rng, schema, 150)
    oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=5, seed=seed)))
    by_name = {f.name: i for i, f in enumerate(schema.features)}
    for i in rng.choice(len(ds), size=4, replace=False):
        x = ds.X[i]
        cfg = ExplainConfig(n_neighbors=40, seed=int(i))
        expl = explain_instance(ds, x, oracle, cfg)
        decoded = schema.decode_row(x)
        for c in expl.rule.conditions:
            assert _holds(c, decoded[by_name[c.feature]])
        # reference path: evaluate the conditions on every decoded explainer-set row
        eset = expl.explainer_set
        match = np.array([
            all(_holds(c, drow[by_name[c.feature]]) for c in expl.rule.conditions)
            for drow in map(schema.decode_row, eset.X)
        ])
        # every explainer-set row satisfying the rule lands in x's leaf, and only those
        leaves = cart.apply(expl.tree, eset.X)
        np.testing.assert_array_equal(match, leaves == cart.apply(expl.tree, x)[0])
        labels = eset.y[match]
        if task == "classification":
            agree = labels == schema.target.classes.index(expl.rule.prediction)
        else:
            eps = expl.config["regression_epsilon"]
            agree = np.abs(labels - expl.rule.prediction) <= eps
        assert expl.rule.support == int(match.sum())
        assert expl.rule.purity == int(agree.sum()) / int(match.sum())


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_conflicting_duplicates_of_the_query_share_an_impure_leaf(task):
    """Rows with x's vector and other labels cannot be split from x: they
    stay in its leaf, whose support counts them and whose purity is the share
    that matches the leaf's prediction."""
    rng = np.random.default_rng(4)
    schema = random_mixed_schema(rng, n_num=2, n_cat=1, n_classes=3)
    if task == "regression":
        schema = Schema(schema.features, TargetSpec("target", "regression"))
    rows = random_rows(rng, schema, 30)
    x = rows[0].copy()
    rows[[3, 8, 12, 20, 27]] = x
    if task == "classification":
        relabels = rng.integers(0, 3, size=30)
        relabels[[0, 3, 8, 12, 20, 27]] = [0, 1, 1, 2, 1, 0]
        query_label, prediction, purity, faithful = 1, "1", 4 / 7, True
    else:
        relabels = rng.standard_normal(30)
        relabels[[0, 3, 8, 12, 20, 27]] = [1.0, 2.0, 2.0, 5.0, 2.0, 1.0]
        query_label, prediction, purity, faithful = 2.0, 15.0 / 7, 0.0, False
    nbh = Neighborhood(np.arange(30), np.zeros(30), rows, relabels, query_label)
    oracle = FixedOracle(schema, lambda r: query_label, task)
    expl = explain_neighborhood(nbh, x, oracle, ExplainConfig(smote=None), schema)
    assert expl.rule.support == 7  # five duplicates, row 0 and the query
    assert expl.rule.prediction == prediction  # 15 / 7: the leaf mean, summed exactly
    assert expl.rule.purity == purity
    assert expl.faithful is faithful


def test_seed_stability_byte_identical_json():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=30, smote=SmoteConfig(seed=5), seed=5)
    a = render_explanation(explain_instance(ds, ds.X[9], oracle, cfg), "json")
    b = render_explanation(explain_instance(ds, ds.X[9], oracle, cfg), "json")
    assert a == b


def test_neighborhood_boundary_monotonicity():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=20, seed=0)
    x = ds.X[5]
    nbh = select_neighborhood(ds, x, oracle, cfg)
    metric = DistanceMetric(ds.schema)
    all_d = distances_to(metric, x, ds.X)
    outside = np.setdiff1d(np.arange(len(ds)), nbh.indices)
    assert nbh.distances[-1] <= all_d[outside].min() + 1e-15


def test_neighborhood_is_stable_argsort_prefix():
    rng = np.random.default_rng(37)
    for _ in range(10):
        # categorical-only schemas and duplicated rows give exact distance ties
        schema = random_mixed_schema(rng, n_num=int(rng.integers(0, 2)))
        ds = make_dataset(rng, schema, 60)
        ds.X[:20] = ds.X[40:]
        oracle = FixedOracle(schema, lambda r: 0)
        metric = DistanceMetric(schema)
        for x in ds.X[rng.integers(0, 60, 3)]:
            d = distances_to(metric, x, ds.X)
            for n in (1, 7, 30, 60):
                nbh = select_neighborhood(ds, x, oracle, ExplainConfig(n_neighbors=n, seed=0))
                order = np.argsort(d, kind="stable")[:n]
                np.testing.assert_array_equal(nbh.indices, order)
                np.testing.assert_array_equal(nbh.distances, d[order])


def test_merge_path_intervals():
    schema = Schema(
        (
            FeatureSpec("v", "numeric", range=(0.0, 10.0)),
            FeatureSpec("c", "categorical", categories=("x", "y")),
        ),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    path = [
        (0, cart.NUMERIC_LE, 8.0, True),   # v <= 8
        (1, cart.CATEGORY_EQ, 1.0, False), # c != y
        (0, cart.NUMERIC_LE, 2.0, False),  # v > 2
        (0, cart.NUMERIC_LE, 6.0, True),   # v <= 6  (tightens the upper bound)
    ]
    conds = _merge_path(path, schema)
    assert [(c.feature, c.op, c.value) for c in conds] == [
        ("v", ">", 2.0),
        ("v", "<=", 6.0),
        ("c", "!=", "y"),
    ]


def test_regression_mode_forces_smote_off_and_epsilon_faithful():
    base = synth_dataset(SynthSpec("imbalanced_mixed", 150), seed=21)
    schema = Schema(base.schema.features, TargetSpec("target", "regression"))
    y = base.X[:, 0] * np.sin(base.X[:, 1]) + base.X[:, 2]
    ds = Dataset(schema, base.X, y)
    oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=10, seed=2)))
    expl = explain_instance(ds, ds.X[13], oracle, ExplainConfig(n_neighbors=40, seed=2))
    assert expl.config["smote"] == "off (regression task)"
    assert expl.faithful
    pred = cart.predict_tree(expl.tree, ds.X[13])
    eps = 1e-6 * abs(float(expl.oracle_label)) + 1e-9
    assert abs(pred - float(expl.oracle_label)) <= eps


def test_json_schema_top_level_fields():
    ds, oracle = small_classification()
    expl = explain_instance(ds, ds.X[1], oracle, ExplainConfig(n_neighbors=20, seed=1))
    doc = json.loads(render_explanation(expl, "json"))
    assert list(doc) == ["query", "oracle_label", "rule", "tree", "tree_stats",
                         "faithful", "config", "seed"]
    assert list(doc["rule"]) == ["conditions", "prediction", "support", "purity"]
    for c in doc["rule"]["conditions"]:
        assert list(c) == ["feature", "op", "value"]
    assert list(doc["tree_stats"]) == ["depth", "leaf_count", "node_count"]
    # round-trip: parse and compare the data that matters
    assert doc["query"] == ds.schema.decode_row(ds.X[1])
    assert doc["faithful"] == expl.faithful
    assert doc["seed"] == 1
    assert doc["config"]["n_neighbors"] == 20
    assert doc["config"]["distance"] == "gower"


def test_condition_order_root_to_leaf():
    ds, oracle = small_classification()
    for idx in (3, 30, 77):
        expl = explain_instance(ds, ds.X[idx], oracle, ExplainConfig(n_neighbors=40, seed=idx))
        path = cart.decision_path(expl.tree, ds.X[idx])
        first_seen = []
        for feat, _, _, _ in path:
            name = ds.schema.features[feat].name
            if name not in first_seen:
                first_seen.append(name)
        cond_order = []
        for c in expl.rule.conditions:
            if c.feature not in cond_order:
                cond_order.append(c.feature)
        assert cond_order == first_seen


def test_smote_off_reduction_is_plain_neighborhood_tree():
    ds, oracle = small_classification()
    x = ds.X[8]
    cfg = ExplainConfig(n_neighbors=25, smote=None, seed=6)
    expl = explain_instance(ds, x, oracle, cfg)
    nbh = select_neighborhood(ds, x, oracle, cfg)
    X = np.vstack([nbh.rows, x.reshape(1, -1)])
    y = np.concatenate([nbh.relabels, oracle.predict_batch(x.reshape(1, -1))])
    direct = cart.fit_tree(X, y, ds.schema)
    probe = synth_dataset(SynthSpec("imbalanced_mixed", 50, minority_frac=0.3), seed=123).X
    np.testing.assert_array_equal(
        predict_batch(expl.tree, probe), predict_batch(direct, probe)
    )
