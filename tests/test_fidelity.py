import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from araucana import explain, fidelity, gower, tabular
from araucana.explain import (
    ExplainConfig,
    Neighborhood,
    explain_instance,
    render_explanation,
    select_neighborhoods,
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

from conftest import make_dataset, random_mixed_schema, random_rows, random_scaling_case
from reference_linear import encode_per_feature, reference_linear_prediction
from test_explain import CountingOracle, FixedOracle


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
    from araucana.gower import distances_many

    d = distances_many(schema, x[None], rows)[0]
    order = np.argsort(d, kind="stable")
    labels = np.asarray(labels)[order]
    # x is one of the rows, so the nearest row carries its label
    return Neighborhood(order, d[order], rows[order], labels, labels[0])


def test_constant_relabels_constant_predictor():
    schema = two_num_schema()
    rng = np.random.default_rng(0)
    rows = rng.random((30, 2))
    nbh = neighborhood_of(rows, np.ones(30, dtype=int), rows[0], schema)
    pred = fit_linear_explainer([nbh] * len(rows), rows, schema)
    assert pred.tolist() == [1] * len(rows)


def test_encode_equals_the_per_feature_loop():
    rng = np.random.default_rng(47)
    for _ in range(200):
        schema, X = random_scaling_case(rng)
        got, want = fidelity._encode(schema, X), encode_per_feature(schema, X)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_label_neighborhood_fit_predicts_its_label():
    # every other class's score column solves to zeros and the label's to an
    # intercept of about 1, so no single-label case is needed
    rng = np.random.default_rng(53)
    for trial in range(300):
        schema = random_mixed_schema(rng, n_classes=int(rng.integers(2, 5)))
        n = int(rng.integers(1, 61))
        rows = random_rows(rng, schema, n)
        if trial % 4 == 0:
            rows[:] = rows[0]  # all duplicates
        label = int(rng.integers(0, len(schema.target.classes)))
        nbh = neighborhood_of(rows, np.full(n, label), rows[0], schema)
        probes = np.vstack([rows, random_rows(rng, schema, 20)])
        pred = fit_linear_explainer([nbh] * len(probes), probes, schema)
        assert pred.tolist() == [label] * len(probes)


def test_featureless_neighborhood_fit_predicts_the_majority():
    # every distance is 0; a kernel width of 0 made every weight 0/0 = nan
    schema = Schema((), TargetSpec("label", "classification", classes=("a", "b", "c")))
    rows = np.empty((7, 0))
    for labels, want in (([2] * 7, 2), ([0, 1, 1, 2, 1, 0, 2], 1)):
        nbh = Neighborhood(np.arange(7), np.zeros(7), rows, np.array(labels), want)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pred = fit_linear_explainer([nbh], np.empty((1, 0)), schema)
        assert pred.tolist() == [want]


def test_linearly_separable_neighborhood_high_agreement():
    schema = two_num_schema()
    rng = np.random.default_rng(1)
    rows = rng.random((60, 2))
    labels = (rows @ np.array([2.0, -1.0]) > 0.4).astype(int)
    if labels.min() == labels.max():  # keep both classes present
        labels[0] = 1 - labels[0]
    x = rows[0]
    nbh = neighborhood_of(rows, labels, x, schema)
    pred = fit_linear_explainer([nbh] * len(rows), rows, schema)
    agree = np.mean(pred == labels)
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
    pred = fit_linear_explainer([nbh] * len(corners), corners, schema)
    agree = np.mean(pred == xor)
    assert agree <= 0.75 + 1e-12


def test_stage_fit_equals_the_per_row_reference(monkeypatch):
    """Stacked solves predict, bit for bit, what fitting each neighborhood
    alone predicts at its query, with the stage in one solve or one query
    per solve (the smallest budget): random mixed schemas, both tasks, no
    features, classes a neighborhood lacks (often the top ones), all-duplicate
    rows, 1 to 40 rows per neighborhood and 1 to 20 queries per stage. The
    reference's kernel width is 0.75 sqrt(max(d, 1)) for an encoded dimension
    d."""
    rng = np.random.default_rng(59)
    for trial in range(400):
        task = ("classification", "regression")[trial % 2]
        n_classes = int(rng.integers(2, 5))
        schema = random_mixed_schema(rng, n_classes=n_classes)
        target = schema.target
        if task == "regression":
            target = TargetSpec("target", "regression")
        schema = Schema(() if trial % 5 == 0 else schema.features, target)
        n, size = int(rng.integers(1, 41)), int(rng.integers(1, 21))
        X = random_rows(rng, schema, size)
        nbhs = []
        for x in X:
            rows = random_rows(rng, schema, n)
            if rng.random() < 0.2:
                rows[:] = rows[0]  # all duplicates
            d = gower.distances_many(schema, x[None], rows)[0]
            order = np.argsort(d, kind="stable")
            if task == "regression":
                labels = rng.standard_normal(n)
            else:  # a random subset of the classes, often one of them
                held = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)),
                                  replace=False)
                labels = rng.choice(held, size=n)
            nbhs.append(Neighborhood(order, d[order], rows[order], labels, labels[0]))
        got = fit_linear_explainer(nbhs, X, schema)
        want = [reference_linear_prediction(nbh, x, schema) for nbh, x in zip(nbhs, X)]
        assert got.dtype.kind == ("f" if task == "regression" else "i"), trial
        assert got.tobytes() == np.array(want, dtype=got.dtype).tobytes(), trial
        with monkeypatch.context() as mp:
            mp.setattr(tabular, "WORK_BYTES", 1)
            assert fit_linear_explainer(nbhs, X, schema).tobytes() == got.tobytes(), trial
        assert fit_linear_explainer([], X[:0], schema).shape == (0,)


def _one_category_stage(rng, n_categories, task, queries=64, n=100):
    """A stage of neighborhoods on one numeric and one categorical feature
    of n_categories categories, with random rows, distances and labels."""
    cats = tuple(f"c{i}" for i in range(n_categories))
    target = (TargetSpec("y", "classification", classes=("a", "b", "c"))
              if task == "classification" else TargetSpec("y", "regression"))
    schema = Schema((FeatureSpec("u", "numeric", range=(0.0, 1.0)),
                     FeatureSpec("k", "categorical", categories=cats)), target)

    def rows(m):
        return np.column_stack([rng.random(m), rng.integers(0, n_categories, m)])

    nbhs = []
    for _ in range(queries):
        labels = rng.integers(0, 3, n) if task == "classification" else rng.standard_normal(n)
        nbhs.append(Neighborhood(np.arange(n), np.sort(rng.random(n)), rows(n), labels,
                                 labels[0]))
    return nbhs, rows(queries), schema


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_linear_stage_memory_is_bounded_by_the_budget(monkeypatch, task):
    """A 64-query stage on a 300-category feature peaks under 8 MB, where
    one solve of all 64 Gram matrices at once peaked at 134 MB. At 10
    categories the default budget fits the stage in one solve, and the
    smallest budget, one query per solve, gives the same bits."""
    rng = np.random.default_rng(71)
    for n_categories in (10, 300):
        nbhs, X, schema = _one_category_stage(rng, n_categories, task)
        tracemalloc.start()
        try:
            got = fit_linear_explainer(nbhs, X, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if n_categories == 300:
            assert peak < 8e6, peak
        with monkeypatch.context() as mp:
            mp.setattr(tabular, "WORK_BYTES", 1)
            assert fit_linear_explainer(nbhs, X, schema).tobytes() == got.tobytes()


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
    # linear fit predicts 0 on every (one-label) neighborhood
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


def test_explainer_failure_propagates(monkeypatch):
    # no row is left out of a total: the first failure ends the run, without a warning
    train = synth_dataset(SynthSpec("moons2d", 80), seed=7)
    test = synth_dataset(SynthSpec("moons2d", 10), seed=8)
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=5, seed=2)))

    real = fidelity.fit_linear_explainer
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(fidelity, "fit_linear_explainer", flaky)
    monkeypatch.setattr(fidelity, "EXPLAIN_BATCH_QUERIES", 1)  # one call per row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^synthetic failure$"):
            evaluate_fidelity(train, test, oracle, ["linear"],
                              ExplainConfig(n_neighbors=20, smote=None, seed=0))
    assert calls["n"] == 3  # no row after the failing one is scored


def test_oracle_errors_propagate():
    train = synth_dataset(SynthSpec("moons2d", 40), seed=1)
    test = synth_dataset(SynthSpec("moons2d", 5), seed=2)

    from araucana.oracle import OracleError

    class Dying(PredictionOracle):
        def predict_batch(self, rows):
            raise OracleError("boom")

    with pytest.raises(OracleError, match="boom"):
        evaluate_fidelity(train, test, Dying(train.schema),
                          ["araucana"], ExplainConfig(n_neighbors=10, seed=0))


def test_unknown_explainer_rejected():
    train = synth_dataset(SynthSpec("moons2d", 30), seed=1)
    with pytest.raises(ValueError, match="unknown explainer"):
        evaluate_fidelity(train, train, FixedOracle(train.schema, lambda r: 0),
                          ["shap"], ExplainConfig(n_neighbors=10, seed=0))


@pytest.mark.parametrize("explainers, words", [
    (["araucana", "linear", "araucana"], "explainer 'araucana' is listed twice"),
    ([], "empty explainer list"),
])
def test_repeated_or_empty_explainer_list_rejected_before_any_oracle_call(explainers, words):
    # a repeated name would score every row twice under one name, and an
    # empty list would still select and label every neighborhood
    train = synth_dataset(SynthSpec("moons2d", 30), seed=1)
    oracle = CountingOracle(FixedOracle(train.schema, lambda r: 0))
    with pytest.raises(ValueError, match=f"^{words}$"):
        evaluate_fidelity(train, train, oracle, explainers, ExplainConfig(n_neighbors=10, seed=0))
    assert oracle.calls == []


def test_report_to_csv_rendering():
    empty = FidelityReport(
        [{"explainer": "araucana", "agreements": 0, "total": 0, "fidelity": float("nan")}],
        [], [],
    )
    summary, per_instance = report_to_csv(empty)
    assert summary == b"explainer,agreements,total,fidelity\naraucana,0,0,nan\n"
    assert per_instance == b"explainer,index,oracle_label,prediction,agree\n"

    one = FidelityReport(
        [{"explainer": "araucana", "agreements": 1, "total": 1, "fidelity": 1.0}],
        [{"explainer": "araucana", "index": 0, "oracle_label": "1",
          "prediction": "1", "agree": True}],
        [],
    )
    s1, p1 = report_to_csv(one)
    assert b"araucana,1,1,1.000000" in s1
    assert b"araucana,0,1,1,true" in p1
    s2, p2 = report_to_csv(one)
    assert (s1, p1) == (s2, p2)


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
        nbh = select_neighborhoods(train, x[None], oracle, icfg)[0]
        pred = reference_linear_prediction(nbh, x, schema)
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
        near = [select_neighborhoods(train, x[None], oracle.inner, cfg)[0].indices
                for x in test.X]
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


@pytest.mark.parametrize("cap, budget", [
    pytest.param(1, 1, id="1"),  # one unit per chunk in every pass
    pytest.param(3, 8 * 200, id="3"),  # two queries per distance block
    pytest.param(2**20, tabular.WORK_BYTES, id="1048576"),
])
def test_staged_evaluation_equals_per_query_reference(monkeypatch, cap, budget):
    """Stages of any size, and passes in chunks of any size, give the rows
    of explaining each query alone, and a run labels each training row once;
    explain_neighborhoods on the stages evaluate selects gives each query's
    explanation alone."""
    monkeypatch.setattr(fidelity, "EXPLAIN_BATCH_QUERIES", cap)
    monkeypatch.setattr(tabular, "WORK_BYTES", budget)
    for seed, task, smote in itertools.product((0, 1), ("classification", "regression"),
                                               (SmoteConfig(), None)):
        train, test, forest = _mixed_task(20 + seed, task, 90, 8)
        oracle = CountingOracle(forest)
        cfg = ExplainConfig(n_neighbors=25, smote=smote, seed=seed)
        report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
        sent, oracle.calls = sum(oracle.calls), []
        rows, synthetics = _reference_evaluation(train, test, forest, cfg)
        assert report.per_instance == rows, (seed, task, smote)
        near = np.concatenate([select_neighborhoods(train, x[None], forest, cfg)[0].indices
                               for x in test.X])
        assert sent == len(np.unique(near)) + len(test) + sum(synthetics)
        # evaluate grows only each query's path: its whole trees come from
        # the staged explain_neighborhoods, on the same stages and seeds
        labels, staged = explain.TrainLabels(len(train)), []
        for a in range(0, len(test), cap):
            X = test.X[a:a + cap]
            nbhs = select_neighborhoods(train, X, forest, cfg, labels)
            cfgs = [fidelity._row_config(cfg, i) for i in range(a, a + len(X))]
            staged += explain.explain_neighborhoods(nbhs, X, forest, cfgs)
        assert len(staged) == len(test)
        for i, expl in enumerate(staged):
            alone = explain_instance(train, test.X[i], forest, fidelity._row_config(cfg, i))
            for form in ("json", "text"):
                assert render_explanation(expl, form) == render_explanation(alone, form)


def test_smote_failure_propagates(monkeypatch):
    # one query's SMOTE error fails its whole batch, and so the evaluation
    train, test, oracle = _mixed_task(5, "classification", 90, 8)
    cfg = ExplainConfig(n_neighbors=25, seed=7)
    nbhs = explain.select_neighborhoods(train, test.X, oracle, cfg)
    cfgs = [fidelity._row_config(cfg, i) for i in range(len(test))]
    clean = explain.explain_neighborhoods(nbhs, test.X, oracle, cfgs)
    real = explain.smote_nc

    def flaky(rows, labels, schema, smote_cfg):
        if smote_cfg.seed == cfg.seed + 2:
            raise RuntimeError("smote broke")
        return real(rows, labels, schema, smote_cfg)

    monkeypatch.setattr(explain, "smote_nc", flaky)
    with pytest.raises(RuntimeError, match="^smote broke$"):
        explain.explain_neighborhoods(nbhs, test.X, oracle, cfgs)
    with pytest.raises(RuntimeError, match="^smote broke$"):
        evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
    # a batch without the failing row explains each of its rows as before
    rest = [i for i in range(len(test)) if i != 2]
    again = explain.explain_neighborhoods([nbhs[i] for i in rest], test.X[rest], oracle,
                                          [cfgs[i] for i in rest])
    for i, expl in zip(rest, again):
        assert render_explanation(expl, "json") == render_explanation(clean[i], "json")
    assert explain.explain_neighborhoods([], test.X[:0], oracle, []) == []


@pytest.mark.parametrize("seed", range(6))
def test_every_explainer_scores_every_test_row(monkeypatch, seed):
    """On random mixed schemas, per_instance holds one record per (test row,
    explainer), row by row in the order of the explainer list, and each
    summary's total is the test-set size, across stage boundaries."""
    rng = np.random.default_rng(300 + seed)
    monkeypatch.setattr(fidelity, "EXPLAIN_BATCH_QUERIES", int(rng.integers(1, 6)))
    task = ("classification", "regression")[seed % 2]
    train, test, oracle = _mixed_task(seed, task, int(rng.integers(30, 80)),
                                      int(rng.integers(2, 12)))
    cfg = ExplainConfig(n_neighbors=int(rng.integers(5, 30)), seed=seed)
    for explainers in (["araucana"], ["linear"], ["araucana", "linear"], ["linear", "araucana"]):
        report = evaluate_fidelity(train, test, oracle, explainers, cfg)
        assert [(r["index"], r["explainer"]) for r in report.per_instance] == \
            [(i, name) for i in range(len(test)) for name in explainers]
        assert [(s["explainer"], s["total"]) for s in report.summaries] == \
            [(name, len(test)) for name in explainers]


def test_smote_notes_come_back_with_their_test_row():
    train, test, oracle = _mixed_task(1, "classification", 90, 8)
    cfg = ExplainConfig(n_neighbors=25, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the notes are data, not warnings
        report = evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg)
        want = [(i, note) for i, x in enumerate(test.X) for note in
                explain_instance(train, x, oracle, fidelity._row_config(cfg, i)).smote_notes]
    # some rows have notes and some have none, so the index is what tells them apart
    assert 0 < len({i for i, _ in want}) < len(test)
    assert report.notes == want


def test_unlabelled_sets_evaluate_as_the_labelled_ones():
    """The oracle's schema states the task and the classes, so training and
    test sets without a target give the reports of the labelled sets, byte
    for byte: class names, not the floats 1.0 and 0.0, on both tasks."""
    for task in ("classification", "regression"):
        train, test, oracle = _mixed_task(3, task, 90, 8)
        cfg = ExplainConfig(n_neighbors=25, seed=3)
        bare = [Dataset(Schema(ds.schema.features), ds.X) for ds in (train, test)]
        want = report_to_csv(evaluate_fidelity(train, test, oracle, ["araucana", "linear"], cfg))
        got = report_to_csv(evaluate_fidelity(*bare, oracle, ["araucana", "linear"], cfg))
        assert got == want, task
