import itertools
import json
import warnings

import numpy as np
import pytest

from araucana.explain import (
    ExplainConfig,
    Neighborhood,
    _merge_path,
    explain_instance,
    explain_neighborhoods,
    render_explanation,
    select_neighborhoods,
)
from araucana.fidelity import evaluate_fidelity
from araucana.oracle import (
    BuiltinOracle,
    ForestConfig,
    PredictionOracle,
    _forest_table,
    train_forest,
    train_knn,
)
from araucana.smote import SmoteConfig
from araucana.tabular import (
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    SynthSpec,
    TargetSpec,
    synth_dataset,
)
from araucana import cart
from araucana.gower import distances_many

from conftest import (
    grow_tree,
    make_dataset,
    random_mixed_schema,
    random_rows,
    tree_leaves,
    tree_predictions,
)
from reference_cart import reference_route


class FixedOracle(PredictionOracle):
    """Deterministic test oracle computed from a function of the row, under
    the task of its schema's target."""

    def __init__(self, schema, fn):
        super().__init__(schema)
        self.fn = fn

    def predict_batch(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        out = [self.fn(r) for r in rows]
        return np.asarray(out, dtype=np.int64 if self.task == "classification" else float)


class CountingOracle(PredictionOracle):
    """Forwards to another oracle and records the row count of every call."""

    def __init__(self, inner):
        super().__init__(inner.schema)
        self.inner = inner
        self.calls = []

    def predict_batch(self, rows):
        self.calls.append(len(rows))
        return self.inner.predict_batch(rows)


def small_classification():
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 120, minority_frac=0.3), seed=5)
    oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=10, seed=1)))
    return ds, oracle


def test_neighborhood_of_training_row_contains_itself():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=1, seed=0)
    nbh = select_neighborhoods(ds, ds.X[17:18], oracle, cfg)[0]
    assert nbh.indices[0] == 17
    assert nbh.distances[0] == 0.0


def test_neighborhood_full_and_clamped():
    ds, oracle = small_classification()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the neighborhood's size states the clamp
        nbh = select_neighborhoods(ds, ds.X[:1], oracle,
                                   ExplainConfig(n_neighbors=10_000, seed=0))[0]
    assert len(nbh.indices) == len(ds)
    assert (np.diff(nbh.distances) >= 0).all()
    # relabels are element-wise oracle predictions
    np.testing.assert_array_equal(nbh.relabels, oracle.predict_batch(nbh.rows))


def test_empty_training_set_has_no_neighborhood():
    ds, oracle = small_classification()
    empty = Dataset(ds.schema, ds.X[:0], ds.y[:0])
    with pytest.raises(ValueError, match="training set is empty"):
        select_neighborhoods(empty, ds.X[:3], oracle, ExplainConfig(seed=0))


def test_explainer_set_smote_off():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=30, smote=None, seed=0)
    nbh = select_neighborhoods(ds, ds.X[3:4], oracle, cfg)[0]
    eset = explain_neighborhoods([nbh], ds.X[3:4], oracle, [cfg])[0].explainer_set
    assert len(eset) == 31
    assert eset.provenance.count("original") == 30
    assert eset.provenance.count("query") == 1


def test_explainer_set_balanced_relabels_add_nothing(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    ds = Dataset(two_cat_schema, X, np.zeros(12, dtype=int))
    oracle = FixedOracle(two_cat_schema, lambda r: int(r[0]))  # perfectly balanced
    cfg = ExplainConfig(n_neighbors=12, smote=SmoteConfig(seed=1), seed=1)
    nbh = select_neighborhoods(ds, X[:1], oracle, cfg)[0]
    eset = explain_neighborhoods([nbh], X[:1], oracle, [cfg])[0].explainer_set
    assert eset.provenance.count("synthetic") == 0


def test_synthetic_rows_relabeled_by_oracle():
    ds, oracle = small_classification()
    cfg = ExplainConfig(n_neighbors=40, smote=SmoteConfig(seed=7), seed=7)
    x = ds.X[11]
    nbh = select_neighborhoods(ds, x[None], oracle, cfg)[0]
    eset = explain_neighborhoods([nbh], x[None], oracle, [cfg])[0].explainer_set
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


@pytest.mark.parametrize("value", [0.1, 1 / 3, 0.3, 0.5])
def test_constant_regression_oracle_single_leaf_empty_rule(value):
    # the variance of equal floats need not be 0: with 0.3 or 0.1 a node of
    # equal labels kept splitting, and the rule had conditions
    base = synth_dataset(SynthSpec("imbalanced_mixed", 600), seed=3)
    ds = Dataset(Schema(base.schema.features, TargetSpec("t", "regression")), base.X,
                 np.full(len(base), value))
    oracle = FixedOracle(ds.schema, lambda r: value)
    expl = explain_instance(ds, ds.X[0], oracle, ExplainConfig(seed=3))
    assert expl.tree_stats == {"depth": 0, "leaf_count": 1, "node_count": 1}
    assert expl.rule.conditions == []
    assert render_explanation(expl, "text").startswith(b"IF (always) THEN ")


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
        decoded = schema.decode_rows([x])[0]
        for c in expl.rule.conditions:
            assert _holds(c, decoded[by_name[c.feature]])
        # reference path: evaluate the conditions on every decoded explainer-set row
        eset = expl.explainer_set
        match = np.array([
            all(_holds(c, drow[by_name[c.feature]]) for c in expl.rule.conditions)
            for drow in schema.decode_rows(eset.X)
        ])
        # every explainer-set row satisfying the rule lands in x's leaf, and only those
        leaves = tree_leaves(expl.tree, eset.X)
        np.testing.assert_array_equal(match, leaves == tree_leaves(expl.tree, x)[0])
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
    oracle = FixedOracle(schema, lambda r: query_label)
    expl = explain_neighborhoods([nbh], x[None], oracle, [ExplainConfig(smote=None)])[0]
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
    nbh = select_neighborhoods(ds, x[None], oracle, cfg)[0]
    all_d = distances_many(ds.schema, x[None], ds.X)[0]
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
        for x in ds.X[rng.integers(0, 60, 3)]:
            d = distances_many(schema, x[None], ds.X)[0]
            for n in (1, 7, 30, 60):
                nbh = select_neighborhoods(ds, x[None], oracle,
                                           ExplainConfig(n_neighbors=n, seed=0))[0]
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
    pred = tree_predictions(expl.tree, ds.X[13])[0]
    eps = 1e-6 * abs(float(expl.oracle_label)) + 1e-9
    assert abs(pred - float(expl.oracle_label)) <= eps


def test_json_schema_top_level_fields():
    ds, oracle = small_classification()
    expl = explain_instance(ds, ds.X[1], oracle, ExplainConfig(n_neighbors=20, seed=1))
    doc = json.loads(render_explanation(expl, "json"))
    assert list(doc) == ["format", "query", "oracle_label", "rule", "tree", "tree_stats",
                         "faithful", "config", "seed"]
    assert list(doc["rule"]) == ["conditions", "prediction", "support", "purity"]
    for c in doc["rule"]["conditions"]:
        assert list(c) == ["feature", "op", "value"]
    assert list(doc["tree_stats"]) == ["depth", "leaf_count", "node_count"]
    # round-trip: parse and compare the data that matters
    assert doc["query"] == ds.schema.decode_rows(ds.X[1:2])[0]
    assert doc["faithful"] == expl.faithful
    assert doc["seed"] == 1
    assert doc["config"]["n_neighbors"] == 20
    assert doc["config"]["distance"] == "gower"


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_json_tree_reads_back_through_the_model_reader(task):
    """The JSON tree is model.json's columns for the one root 0: the model
    reader gives back the explainer tree's table and leaf stats, and its
    routing reaches the leaves of the per-row reference walk."""
    rng = np.random.default_rng(61 if task == "classification" else 62)
    for trial in range(8):
        schema = random_mixed_schema(rng, n_classes=int(rng.integers(2, 5)))
        if task == "regression":
            schema = Schema(schema.features, TargetSpec("target", "regression"))
        ds = make_dataset(rng, schema, int(rng.integers(20, 80)))
        oracle = BuiltinOracle(train_knn(ds, k=1))
        expl = explain_instance(ds, ds.X[0], oracle, ExplainConfig(n_neighbors=30, seed=trial))
        doc = json.loads(render_explanation(expl, "json"))
        assert doc["format"] == 2
        back, roots = _forest_table(doc["tree"], schema)
        assert roots.tolist() == [0]
        tree = expl.tree
        for got, want in zip(back.table + (back.leaf_stats,), tree.table + (tree.leaf_stats,)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        rows = random_rows(rng, schema, 60)
        np.testing.assert_array_equal(cart.route(cart.route_plan(back, roots), rows),
                                      reference_route(tree, [0], rows))


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
    nbh = select_neighborhoods(ds, x[None], oracle, cfg)[0]
    X = np.vstack([nbh.rows, x.reshape(1, -1)])
    y = np.concatenate([nbh.relabels, oracle.predict_batch(x.reshape(1, -1))])
    direct = grow_tree(X, y, ds.schema)
    probe = synth_dataset(SynthSpec("imbalanced_mixed", 50, minority_frac=0.3), seed=123).X
    np.testing.assert_array_equal(
        tree_predictions(expl.tree, probe), tree_predictions(direct, probe)
    )


def _regression_knn():
    base = synth_dataset(SynthSpec("imbalanced_mixed", 150), seed=21)
    schema = Schema(base.schema.features, TargetSpec("target", "regression"))
    ds = Dataset(schema, base.X, base.X[:, 0] * np.sin(base.X[:, 1]) + base.X[:, 2])
    return ds, BuiltinOracle(train_knn(ds, k=5))


def test_unlabelled_training_set_explains_as_the_labelled_one():
    """The oracle's schema states the task and the classes, so a training set
    without a target explains every query byte for byte as the labelled set
    does: a forest's classes by name, not as the floats 1.0 and 0.0, and a
    k-NN regression."""
    for ds, oracle in (small_classification(), _regression_knn()):
        bare = Dataset(Schema(ds.schema.features), ds.X)
        for i in (3, 40, 77):
            cfg = ExplainConfig(n_neighbors=30, seed=i)
            labelled = explain_instance(ds, ds.X[i], oracle, cfg)
            unlabelled = explain_instance(bare, ds.X[i], oracle, cfg)
            for form in ("text", "json"):
                assert render_explanation(unlabelled, form) == render_explanation(labelled, form)


def _refusing_oracles(ds):
    """Oracles that do not fit the training set ds (moons2d with one
    categorical feature): more features, or the same width under other
    ranges or another category list. An oracle without a target, or with a
    task its target contradicts, is not built (see test_oracle.py)."""
    xor = synth_dataset(SynthSpec("xor_mixed", 80), seed=2)
    other_ranges = synth_dataset(SynthSpec("moons2d", 80, n_categorical=1), seed=9).schema
    other_categories = Schema(ds.schema.features[:2] + (
        FeatureSpec("cat0", "categorical", categories=("a", "b", "c")),), ds.schema.target)
    return [
        BuiltinOracle(train_forest(xor, ForestConfig(n_trees=3, seed=1))),
        FixedOracle(other_ranges, lambda r: 0),
        FixedOracle(other_categories, lambda r: 0),
    ]


def test_an_oracle_over_another_schema_is_refused_before_any_call():
    # a 4-feature forest on these 3-feature rows raised IndexError deep in
    # routing, and an oracle of equal width under other ranges answered; an
    # empty test set, which selects no neighborhood, went unchecked
    ds = synth_dataset(SynthSpec("moons2d", 60, n_categorical=1), seed=5)
    empty = Dataset(ds.schema, ds.X[:0], ds.y[:0])
    cfg = ExplainConfig(n_neighbors=20, seed=0)
    message = "^the oracle's schema has other features than the training set's$"
    for inner in _refusing_oracles(ds):
        oracle = CountingOracle(inner)
        with pytest.raises(SchemaError, match=message):
            explain_instance(ds, ds.X[0], oracle, cfg)
        for test in (ds, empty):
            with pytest.raises(SchemaError, match=message):
                evaluate_fidelity(ds, test, oracle, ["araucana", "linear"], cfg)
        assert oracle.calls == []
