import itertools
from dataclasses import replace

import numpy as np
import pytest

from araucana import explain, fidelity, gower
from araucana.explain import (
    ExplainConfig,
    Neighborhood,
    explain_instance,
    render_explanation,
    select_neighborhood,
)
from araucana.fidelity import (
    FidelityReport,
    evaluate_fidelity,
    fit_linear_explainer,
    report_to_csv,
)
from araucana.smote import SmoteConfig
from araucana.oracle import BuiltinOracle, ForestConfig, PredictionOracle, train_forest
from araucana.tabular import Dataset, FeatureSpec, Schema, SynthSpec, TargetSpec, synth_dataset

from conftest import make_dataset, random_mixed_schema
from test_explain import FixedOracle


def two_num_schema():
    return Schema(
        (
            FeatureSpec("u", "numeric", range=(0.0, 1.0)),
            FeatureSpec("v", "numeric", range=(0.0, 1.0)),
        ),
        TargetSpec("label", "classification", classes=("0", "1")),
    )


def neighborhood_of(rows, labels, x, schema):
    rows = np.asarray(rows, dtype=float)
    from araucana.gower import DistanceMetric, distances_to

    d = distances_to(DistanceMetric(schema), x, rows)
    order = np.argsort(d, kind="stable")
    labels = np.asarray(labels)[order]
    # x is one of the rows, so the nearest row carries its label
    return Neighborhood(order, d[order], rows[order], labels, labels[0])


def test_constant_relabels_constant_predictor():
    schema = two_num_schema()
    rng = np.random.default_rng(0)
    rows = rng.random((30, 2))
    nbh = neighborhood_of(rows, np.ones(30, dtype=int), rows[0], schema)
    lin = fit_linear_explainer(nbh, schema)
    assert lin.constant == 1
    assert all(lin.predict(r) == 1 for r in rows)


def test_linearly_separable_neighborhood_high_agreement():
    schema = two_num_schema()
    rng = np.random.default_rng(1)
    rows = rng.random((60, 2))
    labels = (rows @ np.array([2.0, -1.0]) > 0.4).astype(int)
    if labels.min() == labels.max():  # keep both classes present
        labels[0] = 1 - labels[0]
    x = rows[0]
    nbh = neighborhood_of(rows, labels, x, schema)
    lin = fit_linear_explainer(nbh, schema)
    agree = np.mean([lin.predict(r) == l for r, l in zip(rows, labels)])
    assert agree >= 0.95


def test_xor_corners_cap_three_quarters():
    """No linear model exceeds 3/4 agreement on the four XOR corners."""
    schema = two_num_schema()
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor = np.array([0, 1, 1, 0])
    rows = np.repeat(corners, 10, axis=0)
    labels = np.repeat(xor, 10)
    x = corners[0]
    nbh = neighborhood_of(rows, labels, x, schema)
    lin = fit_linear_explainer(nbh, schema)
    agree = np.mean([lin.predict(c) == l for c, l in zip(corners, xor)])
    assert agree <= 0.75 + 1e-12


def test_araucana_fidelity_one_on_unique_rows():
    train = synth_dataset(SynthSpec("imbalanced_mixed", 200, minority_frac=0.25), seed=3)
    test = synth_dataset(SynthSpec("imbalanced_mixed", 40, minority_frac=0.25), seed=4)
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=10, seed=0)))
    cfg = ExplainConfig(n_neighbors=40, seed=0)
    report = evaluate_fidelity(train, test, oracle, ["araucana"], cfg)
    s = report.summaries[0]
    assert s["total"] == 40 and s["fidelity"] == 1.0


def test_constant_local_explainer_matches_majority_fraction():
    # the oracle labels every training row 0 but half the test rows 1, so the
    # linear explainer degenerates to the constant 0 on every neighborhood
    train = synth_dataset(SynthSpec("moons2d", 60), seed=5)
    test = synth_dataset(SynthSpec("moons2d", 20), seed=6)
    train_keys = {row.tobytes() for row in train.X}
    oracle = FixedOracle(
        train.schema,
        lambda r: 0 if r.tobytes() in train_keys else int(r[0] > 0.5),
    )
    cfg = ExplainConfig(n_neighbors=30, smote=None, seed=0)
    report = evaluate_fidelity(train, test, oracle, ["linear"], cfg)
    labels = oracle.predict_batch(test.X)
    expected = float((labels == 0).mean())
    assert report.summaries[0]["fidelity"] == pytest.approx(expected)


def test_tree_beats_linear_on_xor():
    data = synth_dataset(SynthSpec("xor_mixed", 500), seed=9)
    train = Dataset(data.schema, data.X[:400], data.y[:400])
    test = Dataset(data.schema, data.X[400:], data.y[400:])
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=30, seed=1)))
    report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"],
                               ExplainConfig(n_neighbors=60, seed=1))
    fid = {s["explainer"]: s["fidelity"] for s in report.summaries}
    assert fid["araucana"] == 1.0
    assert fid["araucana"] >= fid["linear"]


def test_failures_excluded_with_warning(monkeypatch):
    train = synth_dataset(SynthSpec("moons2d", 80), seed=7)
    test = synth_dataset(SynthSpec("moons2d", 10), seed=8)
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=5, seed=2)))

    import araucana.fidelity as fid_mod

    real = fid_mod.fit_linear_explainer
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(fid_mod, "fit_linear_explainer", flaky)
    with pytest.warns(UserWarning, match="failed on test row"):
        report = evaluate_fidelity(train, test, oracle, ["linear"],
                                   ExplainConfig(n_neighbors=20, smote=None, seed=0))
    s = report.summaries[0]
    assert report.failures["linear"] == 1
    assert s["total"] == 9
    assert s["total"] + report.failures["linear"] == len(test)


def test_oracle_errors_propagate():
    train = synth_dataset(SynthSpec("moons2d", 40), seed=1)
    test = synth_dataset(SynthSpec("moons2d", 5), seed=2)

    from araucana.oracle import OracleError

    class Dying(PredictionOracle):
        def predict_batch(self, rows):
            raise OracleError("boom")

    with pytest.raises(OracleError, match="boom"):
        evaluate_fidelity(train, test, Dying(train.schema, "classification"),
                          ["araucana"], ExplainConfig(n_neighbors=10, seed=0))


def test_unknown_explainer_rejected():
    train = synth_dataset(SynthSpec("moons2d", 30), seed=1)
    with pytest.raises(ValueError, match="unknown explainer"):
        evaluate_fidelity(train, train, FixedOracle(train.schema, lambda r: 0),
                          ["shap"], ExplainConfig(n_neighbors=10, seed=0))


def test_report_to_csv_rendering():
    empty = FidelityReport(
        [{"explainer": "araucana", "agreements": 0, "total": 0, "fidelity": float("nan")}],
        [], {"araucana": 0},
    )
    summary, per_instance = report_to_csv(empty)
    assert summary == b"explainer,agreements,total,fidelity\naraucana,0,0,nan\n"
    assert per_instance == b"explainer,index,oracle_label,prediction,agree\n"

    one = FidelityReport(
        [{"explainer": "araucana", "agreements": 1, "total": 1, "fidelity": 1.0}],
        [{"explainer": "araucana", "index": 0, "oracle_label": "1",
          "prediction": "1", "agree": True}],
        {"araucana": 0},
    )
    s1, p1 = report_to_csv(one)
    assert b"araucana,1,1,1.000000" in s1
    assert b"araucana,0,1,1,true" in p1
    s2, p2 = report_to_csv(one)
    assert (s1, p1) == (s2, p2)


def test_kernel_width_default():
    schema = two_num_schema()
    rng = np.random.default_rng(3)
    rows = rng.random((20, 2))
    labels = rng.integers(0, 2, size=20)
    nbh = neighborhood_of(rows, labels, rows[0], schema)
    lin = fit_linear_explainer(nbh, schema)
    assert lin.kernel_width == pytest.approx(0.75 * np.sqrt(2))


class CountingOracle(PredictionOracle):
    """Forwards to another oracle and records the row count of every call."""

    def __init__(self, inner):
        super().__init__(inner.schema, inner.task)
        self.inner = inner
        self.calls = []

    def predict_batch(self, rows):
        self.calls.append(len(rows))
        return self.inner.predict_batch(rows)


def _reference_evaluation(train, test, oracle, cfg):
    """per_instance rows with nothing shared between the explainers: x labelled
    in a call of its own, explain_instance under the per-row config, and the
    linear fit on a freshly selected neighborhood. Also returns, per row, the
    number of synthetic rows SMOTE made for araucana."""
    schema = train.schema
    rows, synthetics = [], []
    for i, x in enumerate(test.X):
        label = oracle.predict_batch(x.reshape(1, -1))[0]
        smote = None if cfg.smote is None else replace(cfg.smote, seed=cfg.seed + i)
        icfg = replace(cfg, smote=smote, seed=cfg.seed + i)
        expl = explain_instance(train, x, oracle, icfg)
        synthetics.append(expl.explainer_set.provenance.count("synthetic"))
        lin = fit_linear_explainer(select_neighborhood(train, x, oracle, icfg), schema,
                                   task=oracle.task)
        pred = lin.predict(x)
        eps = 0.0 if oracle.task == "classification" else 1e-6 * abs(float(label)) + 1e-9
        shown = schema.decode_label(label)
        rows.append({"explainer": "araucana", "index": i, "oracle_label": shown,
                     "prediction": expl.rule.prediction, "agree": expl.faithful})
        rows.append({"explainer": "linear", "index": i, "oracle_label": shown,
                     "prediction": schema.decode_label(pred),
                     "agree": bool(abs(pred - label) <= eps)})
    return rows, synthetics


def test_shared_neighborhood_equals_reference_and_labels_x_once():
    """One selection per row, x labelled in the neighbor call, same rows as
    explaining each row with nothing shared; the six rows are one stage."""
    for seed, task in itertools.product((0, 1, 2), ("classification", "regression")):
        rng = np.random.default_rng(seed)
        schema = random_mixed_schema(rng, n_classes=2 + seed % 2)
        if task == "regression":
            schema = Schema(schema.features, TargetSpec("target", "regression"))
        train = make_dataset(rng, schema, 120)
        test = make_dataset(rng, schema, 6)
        forest = train_forest(train, ForestConfig(n_trees=5, seed=seed))
        oracle = CountingOracle(BuiltinOracle(forest))
        cfg = ExplainConfig(n_neighbors=30, seed=seed)
        report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
        calls, oracle.calls = oracle.calls, []
        rows, synthetics = _reference_evaluation(train, test, oracle, cfg)
        assert report.per_instance == rows, (seed, task)
        # one call of every distinct neighbor row and then the six rows, and
        # one of all the synthetics when SMOTE made any
        near = [select_neighborhood(train, x, oracle.inner, cfg).indices for x in test.X]
        expected = [len(np.unique(np.concatenate(near))) + len(test)]
        if sum(synthetics):
            expected.append(sum(synthetics))
        assert calls == expected, (seed, task)
        if task == "classification":
            assert any(synthetics), seed  # the SMOTE relabel call is exercised


def _mixed_task(seed, task, n_train, n_test):
    """Train and test rows on a random mixed schema, with duplicated rows in
    both, and a small forest black box."""
    rng = np.random.default_rng(seed)
    schema = random_mixed_schema(rng, n_classes=2 + seed % 2)
    if task == "regression":
        schema = Schema(schema.features, TargetSpec("target", "regression"))
    train = make_dataset(rng, schema, n_train)
    train.X[: n_train // 4] = train.X[n_train // 2: n_train // 2 + n_train // 4]
    test = make_dataset(rng, schema, n_test)
    test.X[1], test.X[-1] = test.X[0], train.X[3]
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=5, seed=seed)))
    return train, test, oracle


@pytest.mark.parametrize("cap", [1, 3, 2**20])
def test_staged_evaluation_equals_per_query_reference(monkeypatch, cap):
    """Stages of any size give the rows and explanations of explaining each
    query alone, and a run labels each training row once."""
    monkeypatch.setattr(fidelity, "EXPLAIN_BATCH_QUERIES", cap)
    monkeypatch.setattr(gower, "NEAREST_BLOCK_DISTANCES", 200)  # two queries per block
    staged = []
    real = fidelity.explain_neighborhoods

    def recorded(*args):
        staged.extend(real(*args))
        return staged[len(staged) - len(args[0]):]

    monkeypatch.setattr(fidelity, "explain_neighborhoods", recorded)
    for seed, task, smote in itertools.product((0, 1), ("classification", "regression"),
                                               (SmoteConfig(), None)):
        train, test, forest = _mixed_task(20 + seed, task, 90, 8)
        oracle = CountingOracle(forest)
        cfg = ExplainConfig(n_neighbors=25, smote=smote, seed=seed)
        staged.clear()
        report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
        sent, oracle.calls = sum(oracle.calls), []
        rows, synthetics = _reference_evaluation(train, test, forest, cfg)
        assert report.per_instance == rows, (seed, task, smote)
        near = np.concatenate([select_neighborhood(train, x, forest, cfg).indices for x in test.X])
        assert sent == len(np.unique(near)) + len(test) + sum(synthetics)
        assert len(staged) == len(test)
        for i, expl in enumerate(staged):
            alone = explain_instance(train, test.X[i], forest, fidelity._row_config(cfg, i))
            for form in ("json", "text"):
                assert render_explanation(expl, form) == render_explanation(alone, form)


def test_smote_failure_fails_only_its_row(monkeypatch):
    train, test, oracle = _mixed_task(5, "classification", 90, 8)
    cfg = ExplainConfig(n_neighbors=25, seed=7)
    clean = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
    real = explain.smote_nc

    def flaky(rows, labels, schema, smote_cfg):
        if smote_cfg.seed == cfg.seed + 2:
            raise RuntimeError("smote broke")
        return real(rows, labels, schema, smote_cfg)

    monkeypatch.setattr(explain, "smote_nc", flaky)
    with pytest.warns(UserWarning, match="araucana failed on test row 2: smote broke"):
        report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
    assert report.failures == {"araucana": 1, "linear": 0}
    assert report.per_instance == [r for r in clean.per_instance
                                   if (r["explainer"], r["index"]) != ("araucana", 2)]
