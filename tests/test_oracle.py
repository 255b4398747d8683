import json
import math
import re
import shlex
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from araucana import cart, gower, oracle as oracle_mod, tabular
from araucana.gower import distances_many
from araucana.oracle import (
    BuiltinOracle,
    ForestConfig,
    ForestModel,
    OracleError,
    PrecomputedOracle,
    PredictionOracle,
    SubprocessOracle,
    load_model,
    save_model,
    train_forest,
    train_knn,
)
from araucana.tabular import (
    REGRESSION,
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    SynthSpec,
    TargetSpec,
    synth_dataset,
)

from reference_cart import reference_grow_tree, reference_route

from conftest import (
    EDGE_FLOATS,
    chain_dataset,
    grow_tree,
    make_dataset,
    random_decode_case,
    random_mixed_schema,
    random_rows,
    reference_decode_row,
)

STUB = Path(__file__).parent / "stub_oracle.py"


def stub_command(extra=""):
    return f"{sys.executable} {STUB} {extra}".strip()


def _regression(schema):
    """schema's features under a regression target."""
    return Schema(schema.features, TargetSpec("y", REGRESSION))


def test_forest_needs_a_tree():
    with pytest.raises(ValueError, match="n_trees must be >= 1"):
        ForestConfig(n_trees=0)


def test_forest_determinism_and_batch_loop_equivalence():
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 150), seed=4)
    a = train_forest(ds, ForestConfig(n_trees=10, seed=9))
    b = train_forest(ds, ForestConfig(n_trees=10, seed=9))
    rng = np.random.default_rng(1)
    probe = random_rows(rng, ds.schema, 60)
    np.testing.assert_array_equal(a.predict_batch(probe), b.predict_batch(probe))
    loop = np.concatenate([a.predict_batch(row.reshape(1, -1)) for row in probe])
    np.testing.assert_array_equal(a.predict_batch(probe), loop)


def test_forest_learns_xor_mixed_training_set():
    ds = synth_dataset(SynthSpec("xor_mixed", 500), seed=7)
    forest = train_forest(ds, ForestConfig(seed=3))
    acc = float((forest.predict_batch(ds.X) == ds.y).mean())
    assert acc >= 0.95


def _reference_trees(ds, cfg):
    """The trees of train_forest(ds, cfg), each grown on its own by the
    per-node reference grower on a copy of its bootstrap rows, from the same
    seed derivation."""
    p = ds.schema.n_features
    sub = min(max(1, math.ceil(math.sqrt(p))), p)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.n_trees)
    trees = []
    for t in range(cfg.n_trees):
        idx = np.random.default_rng(int(seeds[2 * t])).integers(0, len(ds), size=len(ds))
        draw = (int(seeds[2 * t + 1]), sub) if sub < p else None
        trees.append(reference_grow_tree(ds.X[idx], ds.y[idx], ds.schema, draw))
    return trees


def _per_tree_vote(trees, ds, rows):
    """Reference forest prediction: walk each row down each tree on its own
    (reference_route), then vote."""
    votes = np.stack([t.table.pred[reference_route(t, [0], rows)[0]] for t in trees])
    if ds.task == REGRESSION:
        return votes.mean(axis=0)
    n_classes = len(ds.schema.target.classes)
    counts = np.stack([(votes == c).sum(axis=0) for c in range(n_classes)])
    return counts.argmax(axis=0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_packed_forest_routing_equals_per_tree_vote(tmp_path, monkeypatch, target, seed):
    rng = np.random.default_rng(40 + seed)
    schema = random_mixed_schema(rng, n_classes=3 if target == "3 classes" else 2)
    if target == "regression":
        schema = Schema(schema.features, TargetSpec("label", REGRESSION))
    ds = make_dataset(rng, schema, 60)
    constant = Dataset(schema, ds.X, np.zeros_like(ds.y))
    n_trees = 7
    probe = random_rows(rng, schema, 400)
    cfg = ForestConfig(n_trees=n_trees, seed=seed)
    for data in (ds, constant):
        forest = train_forest(data, cfg)
        trees = _reference_trees(data, cfg)
        if data is constant:  # one leaf per tree
            np.testing.assert_array_equal(forest.roots, np.arange(n_trees))
            assert (forest.nodes.table.feat < 0).all()
        want = _per_tree_vote(trees, data, probe)
        # one row per chunk, 2 and 13 chunks of the probe, and one chunk
        for budget in (1, 24 * n_trees * 200, 24 * n_trees * 31, 2**40):
            monkeypatch.setattr(tabular, "WORK_BYTES", budget)
            for rows, n in ((probe[:1], 1), (probe[0], 1), (probe[:30], 30), (probe, len(probe))):
                np.testing.assert_array_equal(forest.predict_batch(rows), want[:n])
        monkeypatch.undo()

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(forest, a)
        doc = json.loads(a.read_text())
        _same_columns(doc, trees)
        # the node table's columns and nothing more
        assert list(doc) == ["format", "type", "task", "schema", "roots", "feature", "value",
                             "right", "prediction", "n" if data.task == REGRESSION else "counts"]
        assert doc["format"] == 3
        back = load_model(a)
        np.testing.assert_array_equal(back.predict_batch(probe), forest.predict_batch(probe))
        save_model(back, b)
        assert b.read_bytes() == a.read_bytes()


def test_forest_prediction_memory_is_flat_in_the_rows():
    # a chunk of rows is routed and voted at a time: with every (tree, row)
    # pair at once, a 20-tree forest's peak grew 2.5 times from 2,000 rows
    # to 8,000
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 300), seed=1)
    forest = train_forest(ds, ForestConfig(n_trees=20, seed=1))
    rows = ds.X[np.random.default_rng(5).integers(0, len(ds), 8000)]
    peaks = []
    for n in (2000, 8000):
        tracemalloc.start()
        try:
            forest.predict_batch(rows[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks
    assert peaks[1] < 1.5 * tabular.WORK_BYTES, peaks


def _same_columns(doc, trees):
    """The columns of a forest file hold the trees' preorder nodes,
    one tree after another, with child ids counted over the whole table."""
    sizes = [len(t.table.feat) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    assert doc["roots"] == roots.tolist()
    feat = np.concatenate([t.table.feat for t in trees])
    right = np.concatenate([np.where(t.table.feat >= 0, t.table.right + r, 0)
                            for t, r in zip(trees, roots)])
    leaf = feat < 0
    pred = np.concatenate([t.table.pred for t in trees])[leaf]
    stats = np.concatenate([t.leaf_stats for t in trees])[leaf]
    assert doc["feature"] == feat.tolist()
    assert doc["value"] == np.concatenate([t.table.val for t in trees]).tolist()
    assert doc["right"] == right.tolist()
    if trees[0].task == REGRESSION:
        assert (doc["prediction"], doc["n"]) == (pred.tolist(), stats.tolist())
    else:
        assert doc["prediction"] == pred.astype(np.int64).tolist()
        assert doc["counts"] == stats.ravel().tolist()


def test_knn_examples():
    ds = synth_dataset(SynthSpec("moons2d", 60), seed=5)
    assert len(np.unique(ds.X, axis=0)) == len(ds)
    k1 = train_knn(ds, k=1)
    np.testing.assert_array_equal(k1.predict_batch(ds.X), ds.y)
    kn = train_knn(ds, k=len(ds))
    majority = np.argmax(np.bincount(ds.y))
    assert (kn.predict_batch(ds.X[:10]) == majority).all()
    assert (k1.schema, k1.task) == (ds.schema, "classification")


def test_knn_distance_tie_lower_row_index():
    rng = np.random.default_rng(11)
    schema = random_mixed_schema(rng, n_num=1, n_cat=0)
    lo, hi = schema.features[0].range
    X = np.array([[lo], [lo], [hi]])
    ds = Dataset(schema, X, np.array([1, 0, 0]))
    k1 = train_knn(ds, k=1)
    # both stored copies of `lo` are at distance 0; the first one wins
    assert k1.predict_batch(np.array([[lo]]))[0] == 1


def test_knn_needs_a_training_row(tmp_path):
    ds = synth_dataset(SynthSpec("moons2d", 20), seed=1)
    reg = Schema(ds.schema.features, TargetSpec("y", REGRESSION))
    for schema, y in ((ds.schema, ds.y[:0]), (reg, np.empty(0))):
        # it answered class 0, or nan with a RuntimeWarning, for every query
        with pytest.raises(ValueError, match="at least one training row"):
            train_knn(Dataset(schema, ds.X[:0], y), k=3)
    path = tmp_path / "k.json"
    save_model(train_knn(ds, k=3), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(dict(doc, rows=[], labels=[])), encoding="utf-8")
    with pytest.raises(OracleError, match="at least one training row"):
        load_model(path)


def test_knn_without_features_votes_over_first_rows():
    # with no features every row is at distance 0, so the k lowest rows vote;
    # an empty distance array had made every query answer class 0
    schema = Schema((), TargetSpec("y", "classification", classes=("0", "1")))
    ds = Dataset(schema, np.empty((5, 0)), np.array([0, 1, 1, 0, 0]))
    np.testing.assert_array_equal(distances_many(schema, np.empty((1, 0)), ds.X), np.zeros((1, 5)))
    np.testing.assert_array_equal(train_knn(ds, k=3).predict_batch(np.empty((2, 0))), [1, 1])
    np.testing.assert_array_equal(train_knn(ds, k=5).predict_batch(np.empty((2, 0))), [0, 0])


def _reference_knn(model, rows):
    """The per-row k-NN: one one-query distances_many pass and a full stable
    argsort per row."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    k = min(model.k, len(model.X))
    preds = []
    for x in rows:
        near = np.argsort(distances_many(model.schema, x[None], model.X)[0], kind="stable")[:k]
        if model.task == REGRESSION:
            preds.append(float(model.y[near].mean()))
        else:
            counts = np.bincount(model.y[near].astype(np.int64),
                                 minlength=len(model.schema.target.classes))
            preds.append(int(np.argmax(counts)))
    return np.asarray(preds, dtype=float if model.task == REGRESSION else np.int64)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the ids name the metric, Gower
@pytest.mark.parametrize("target", ["2-class", "3-class", "regression"],
                         ids=lambda target: f"{target}-gower")
def test_batched_knn_equals_per_row_reference(tmp_path, monkeypatch, target):
    rng = np.random.default_rng(31)
    for trial in range(6):
        schema = random_mixed_schema(rng, n_classes=3 if target == "3-class" else 2)
        if target == "regression":
            schema = Schema(schema.features, TargetSpec("y", REGRESSION))
        n = int(rng.integers(2, 30))
        ds = make_dataset(rng, schema, n)
        X = ds.X.copy()
        X[: n // 3] = X[n - n // 3:]  # duplicated training rows: exact distance ties
        y = ds.y * 10.0 ** rng.integers(-3, 6, n) if target == "regression" else ds.y
        ds = Dataset(schema, X, y)
        queries = random_rows(rng, schema, 20)
        queries[:8] = X[rng.integers(0, n, 8)]  # queries equal to training rows
        for k in (1, 5, n, n + 3):  # even k with 2 classes: vote ties
            model = train_knn(ds, k=k)
            want = _reference_knn(model, queries)
            _same(model.predict_batch(queries), want)
            _same(model.predict_batch(queries[3]), want[3:4])
            _same(model.predict_batch(queries[:0]), want[:0])
            # 1 query per block, chunk and partition; 3 queries per block of
            # the oracle (the batch of 20 spans 7 of them); 3 per distance
            # chunk; the whole batch at once
            for budget in (1, 8 * 3 * n, 4 * 8 * 3 * X.size, 2**40):
                with monkeypatch.context() as mp:
                    mp.setattr(tabular, "WORK_BYTES", budget)
                    _same(model.predict_batch(queries), want)
        path = tmp_path / f"knn{trial}.json"
        save_model(model, path)
        back = load_model(path)
        _same(back.predict_batch(queries), want)
        _same(back.X, model.X)


def _spy_searches(monkeypatch, table):
    """Wraps gower.nearest_rows; returns the list of ("full", queries) for
    each call over the whole table and ("group", queries) for each call over
    a part of it (a group search)."""
    calls, inner = [], gower.nearest_rows

    def nearest_rows(schema, X, rows, k):
        calls.append(("full" if rows is table else "group", np.array(X)))
        return inner(schema, X, rows, k)

    monkeypatch.setattr(gower, "nearest_rows", nearest_rows)
    return calls


def test_blocked_knn_equals_full_pass(tmp_path, monkeypatch):
    """The group search returns nearest_rows' neighbors and distances bit for
    bit: random mixed schemas of 1-3 categorical features and 200-2,000
    rows, duplicated rows (ties inside a group), k = 1, 5, 100 and n, four
    work budgets, and a model read back from its file. Queries: training
    rows, random rows and corners of the numeric box (all with codes some
    training row has), rows with a tuple no training row has and rows with
    a code outside its categories (-1, 7, 0.5); the last two must take the
    full pass alone."""
    rng = np.random.default_rng(37)
    # queries answered in their group at k <= 5, and searched there but sent on at k = 100
    stayed = sent_on = 0
    for trial in range(6):
        schema = random_mixed_schema(rng, n_cat=int(rng.integers(1, 4)))
        if trial % 2:
            schema = _regression(schema)
        cat = (~schema.numeric_mask()).nonzero()[0]
        n = int(rng.integers(200, 2001))
        ds = make_dataset(rng, schema, n)
        X = ds.X
        X[: n // 4] = X[n - n // 4:]  # duplicated training rows: exact ties inside a group
        unseen = random_rows(rng, schema, 10)
        unseen[:, cat] = X[0, cat]
        j = cat[0]  # no training row keeps X[0]'s codes: they move one category on
        X[(X[:, cat] == X[0, cat]).all(axis=1), j] = (X[0, j] + 1) % len(
            schema.features[j].categories)
        bad = random_rows(rng, schema, 9)
        bad[np.arange(9), rng.choice(cat, 9)] = np.tile([-1.0, 7.0, 0.5], 3)
        seen = np.vstack((X[rng.integers(0, n, 40)], random_rows(rng, schema, 60)))
        seen[40:, cat] = X[rng.integers(0, n, 60)][:, cat]
        num = schema.numeric_mask()
        _, lo, hi, _ = schema.numeric_layout
        seen[80:, num] = np.where(rng.integers(0, 2, (20, len(lo))) == 1, hi, lo)
        queries = np.vstack((seen, unseen, bad))
        data = Dataset(schema, X, ds.y)
        for k in (1, 5, 100, n):
            model = train_knn(data, k=k)
            want = gower.nearest_rows(schema, queries, X, k)
            for budget in (None, 1, 8 * 3 * n, 2**40):
                with monkeypatch.context() as mp:
                    if budget is not None:
                        mp.setattr(tabular, "WORK_BYTES", budget)
                    calls = _spy_searches(mp, X)
                    got = gower.nearest_rows_grouped(schema, queries, X, k, model.groups)
                _same(got[0], want[0])
                _same(got[1], want[1])
                searched = np.vstack([q for kind, q in calls if kind == "group"] +
                                     [np.empty((0, schema.n_features))])
                assert not (searched[:, None] == np.vstack((unseen, bad))).all(axis=2).any()
                kept = len(seen) + len(unseen) + len(bad) - sum(
                    len(q) for kind, q in calls if kind == "full")
                stayed += kept * (k <= 5 and budget is None)
                sent_on += (len(searched) - kept) * (k == 100 and budget is None)
            _same(model.predict_batch(queries), _reference_knn(model, queries))
        model = train_knn(data, k=5)  # k = n keeps no groups: no group holds n rows
        path = tmp_path / f"knn{trial}.json"
        save_model(model, path)
        back = load_model(path)
        for got, want in zip(back.groups, model.groups):
            _same(got, want)
        for got, want in zip(gower.nearest_rows_grouped(schema, queries, X, 5, back.groups),
                             gower.nearest_rows(schema, queries, X, 5)):
            _same(got, want)
        _same(back.predict_batch(queries), model.predict_batch(queries))
    # most queries were answered in their group, so the test does not pass by
    # sending everything on, and the bound sent some on
    assert stayed >= 0.9 * 6 * 2 * len(seen) and sent_on > 0


def test_knn_without_a_group_of_k_rows_takes_the_full_pass(monkeypatch):
    # the shape of CI's memory-budget run: 2,250 training rows, one numeric
    # feature and one of 1,000 categories, each held by 2 or 3 rows, k = 5
    rng = np.random.default_rng(41)
    queries = np.column_stack((rng.random(101), rng.integers(0, 1000, 101)))
    for n_categories, grouped in ((1000, False), (100, True)):
        schema = Schema((FeatureSpec("x", "numeric", range=(0.0, 1.0)),
                         FeatureSpec("k", "categorical",
                                     categories=tuple(f"k{i}" for i in range(n_categories)))),
                        TargetSpec("y", REGRESSION))
        X = np.column_stack((rng.random(2250), rng.permutation(np.arange(2250) % n_categories)))
        model = train_knn(Dataset(schema, X, rng.standard_normal(2250)), k=5)
        assert (model.groups is not None) == grouped
        q = queries % [1, n_categories]
        with monkeypatch.context() as mp:
            calls = _spy_searches(mp, model.X)
            got = model.predict_batch(q)
            near = gower.nearest_rows_grouped(schema, q, model.X, 5, model.groups)
        # without a group of 5 rows no group search runs; with one, most queries stay there
        assert any(kind == "group" for kind, _ in calls) == grouped
        want = gower.nearest_rows(schema, q, model.X, 5)
        _same(near[0], want[0])
        _same(near[1], want[1])
        _same(got, _reference_knn(model, q))


@pytest.mark.parametrize("n_same", [0, 1, 2])
def test_blocked_knn_tie_at_one_over_p_goes_to_the_full_pass(n_same):
    # the query (0, 0, ...) has row 0 at 1/p (its first code differs) and rows
    # 1-5 of its own codes at 1/p too (their numeric terms sum to 1): the
    # group's k-th distance is not below 1/p, and the full pass gives row 0
    feats = (FeatureSpec("x", "numeric", range=(0.0, 1.0)),) + tuple(
        FeatureSpec(f"c{i}", "categorical", categories=("a", "b")) for i in range(1 + n_same))
    schema = Schema(feats, TargetSpec("y", REGRESSION))
    X = np.zeros((12, len(feats)))
    X[0, 1] = 1.0
    X[1:6, 0] = 1.0
    X[6:, 1] = 1.0  # more of the other codes, farther away
    X[6:, 0] = 1.0
    q = np.zeros((1, len(feats)))
    for k in (1, 5):
        model = train_knn(Dataset(schema, X, np.arange(12.0)), k=k)
        near, dist = gower.nearest_rows_grouped(schema, q, X, k, model.groups)
        assert near.tolist() == [list(range(k))]
        assert (dist == 1.0 / len(feats)).all()
        assert model.predict_batch(q).tolist() == [np.arange(k).mean()]


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 120), seed=1)
    probe = random_rows(rng, ds.schema, 100)

    forest = train_forest(ds, ForestConfig(n_trees=5, seed=2))
    save_model(forest, tmp_path / "f.json")
    back = load_model(tmp_path / "f.json")
    np.testing.assert_array_equal(back.predict_batch(probe), forest.predict_batch(probe))

    knn = train_knn(ds, k=3)
    save_model(knn, tmp_path / "k.json")
    kback = load_model(tmp_path / "k.json")
    np.testing.assert_array_equal(kback.predict_batch(probe), knn.predict_batch(probe))
    _same(kback.X, knn.X)


def test_save_model_round_trips_a_1199_level_tree(tmp_path):
    # a 1,199-deep tree: its columns do not nest, so it saves and loads
    ds = chain_dataset(1200)
    tree = grow_tree(ds.X, ds.y, ds.schema)
    model = ForestModel(tree, [0])
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert cart.tree_stats(back.nodes)["depth"] == 1199
    np.testing.assert_array_equal(back.predict_batch(ds.X), ds.y)


def test_format_1_model_is_refused(tmp_path):
    ds = synth_dataset(SynthSpec("moons2d", 40), seed=2)
    forest = train_forest(ds, ForestConfig(n_trees=2, seed=1))
    path = tmp_path / "model.json"
    save_model(forest, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    # format 1 nested each tree: a split held its test and both subtrees
    leaf = {"leaf": {"prediction": "1", "counts": [0, 3]}}
    tree = {"feature": 0, "test": {"kind": "numeric_le", "threshold": 0.5},
            "left": {"leaf": {"prediction": "0", "counts": [4, 1]}}, "right": leaf}
    trees = [tree, leaf]
    # formats 1 and 2 also stored the trees' seeds and feature-draw width
    drawn = {"feature_subsample": 1, "tree_seeds": [5, 6]}
    v1 = {k: doc[k] for k in ("type", "task", "schema")}
    path.write_text(json.dumps(dict(v1, **drawn, bootstrap=True, trees=trees)), encoding="utf-8")
    with pytest.raises(OracleError, match="model format 1, .* retrain it with `araucana train`"):
        load_model(path)
    path.write_text(json.dumps(dict(doc, **drawn, format=2)), encoding="utf-8")
    with pytest.raises(OracleError, match="model format 2, .* retrain it with `araucana train`"):
        load_model(path)
    path.write_text(json.dumps(dict(doc, format=4)), encoding="utf-8")
    with pytest.raises(OracleError, match="model format 4"):
        load_model(path)


def test_load_model_malformed(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"type": "forest", "task": "classification"', encoding="utf-8")
    with pytest.raises(OracleError, match="malformed model file"):
        load_model(p)
    # a k-NN file whose k is no integer or with a label short ended in a
    # traceback when the model was used; one with another task than its
    # schema's labelled rows with the mean of class indices
    save_model(train_knn(synth_dataset(SynthSpec("moons2d", 20), seed=1), k=3), p)
    doc = json.loads(p.read_text(encoding="utf-8"))
    rows = doc["rows"]
    for bad, words in ((dict(doc, k=2.5), "k is not an integer"),
                       (dict(doc, labels=doc["labels"][:-1]), "19 labels for 20 rows"),
                       (dict(doc, task="regression"), "does not match the schema"),
                       # Gower is the one metric: a file naming another is refused
                       (dict(doc, metric="euclidean"), "unknown metric 'euclidean'"),
                       # the stored rows are read a column at a time: a value
                       # refused names its row and column
                       (dict(doc, rows=rows[:3] + [[rows[3][0], "abc"]] + rows[4:]),
                        "stored rows: row 3, column 'num1': 'abc' is not a finite number"),
                       (dict(doc, rows=rows[:5] + [rows[5][:1]] + rows[6:]),
                        "stored row 5 is not a list of 2 values"),
                       (dict(doc, rows=rows[:5] + [7] + rows[6:]),
                        "stored row 5 is not a list of 2 values")):
        p.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(OracleError, match=f"malformed model file .*{words}"):
            load_model(p)


def test_precomputed_rows_and_synthetic_error():
    ds = synth_dataset(SynthSpec("moons2d", 40), seed=6)
    preds = (np.arange(40) % 2).astype(np.int64)
    oracle = PrecomputedOracle(ds, preds)
    np.testing.assert_array_equal(oracle.predict_batch(ds.X), preds)
    np.testing.assert_array_equal(oracle.predict_batch(ds.X[7]), [preds[7]])
    alien = ds.X[0].copy()
    alien[0] += 0.123456
    with pytest.raises(OracleError, match="cannot label synthetic instances"):
        oracle.predict_batch(alien.reshape(1, -1))


def test_subprocess_constant_stub():
    ds = synth_dataset(SynthSpec("moons2d", 12), seed=3)
    oracle = SubprocessOracle(stub_command("--mode constant --value 0"),
                              ds.schema, "classification")
    try:
        out = oracle.predict_batch(ds.X)
        np.testing.assert_array_equal(out, np.zeros(12, dtype=np.int64))
        # batch/loop equivalence across calls to a persistent child
        loop = np.concatenate([oracle.predict_batch(r.reshape(1, -1)) for r in ds.X])
        np.testing.assert_array_equal(out, loop)
    finally:
        oracle.close()


def test_subprocess_threshold_and_regress():
    ds = synth_dataset(SynthSpec("moons2d", 10), seed=8)
    oracle = SubprocessOracle(stub_command("--mode threshold --value 1.0"),
                              ds.schema, "classification")
    try:
        out = oracle.predict_batch(ds.X)
        want = (ds.X.sum(axis=1) > 1.0).astype(np.int64)
        np.testing.assert_array_equal(out, want)
    finally:
        oracle.close()

    reg = SubprocessOracle(stub_command("--mode regress"), _regression(ds.schema), "regression")
    try:
        np.testing.assert_allclose(reg.predict_batch(ds.X), ds.X.sum(axis=1), atol=1e-9)
    finally:
        reg.close()


def test_subprocess_child_death_is_oracle_error():
    ds = synth_dataset(SynthSpec("moons2d", 6), seed=1)
    oracle = SubprocessOracle(stub_command("--mode constant --die-after 1"),
                              ds.schema, "classification")
    try:
        oracle.predict_batch(ds.X)  # first batch is answered
        with pytest.raises(OracleError, match="oracle subprocess"):
            oracle.predict_batch(ds.X)
    finally:
        oracle.close()


def test_subprocess_timeout():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle(stub_command("--mode constant --delay 5"),
                              ds.schema, "classification", timeout=0.3)
    try:
        with pytest.raises(OracleError, match="timed out"):
            oracle.predict_batch(ds.X)
    finally:
        oracle.close()


@pytest.mark.parametrize("stub", ["--mode constant", "--mode garbage",
                                  "--mode constant --die-after 1"],
                         ids=["clean close", "after an OracleError", "after an exit of its own"])
def test_subprocess_close_closes_both_pipes_whatever_the_child_did(stub):
    # close() closed only the child's stdin, and after an error or an exit
    # of the child's own it closed neither pipe
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle(stub_command(stub), ds.schema, "classification")
    try:
        if "garbage" in stub:
            with pytest.raises(OracleError, match="malformed oracle reply"):
                oracle.predict_batch(ds.X)
        else:
            oracle.predict_batch(ds.X)
        if "die-after" in stub:
            assert oracle._proc.wait(timeout=10) == 3
    finally:
        oracle.close()
    assert oracle._proc.stdin.closed and oracle._proc.stdout.closed


def _refuses_every_later_batch(oracle, rows, first):
    """After an OracleError the child is gone, and each later batch raises
    the first error again instead of reading a reply."""
    assert oracle._proc.poll() is not None
    for _ in range(2):
        with pytest.raises(OracleError, match=f"stopped after an error: .*{first}"):
            oracle.predict_batch(rows)


def test_subprocess_late_reply_is_never_read():
    # the reply to the first request comes after its timeout: the next
    # request read it as its own
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    late = stub_command("--mode threshold --value 1.0 --delay 1.5 --delay-on 1")
    oracle = SubprocessOracle(late, ds.schema, "classification", timeout=0.5)
    try:
        start = time.monotonic()
        with pytest.raises(OracleError, match="timed out"):
            oracle.predict_batch(ds.X[:2])
        assert time.monotonic() - start < 1.5
        time.sleep(1.2)  # the late reply would be in the pipe by now
        _refuses_every_later_batch(oracle, ds.X[2:], "timed out")
    finally:
        oracle.close()


@pytest.mark.parametrize("gap", [0.0, 0.3])
def test_subprocess_second_reply_line_is_oracle_error(gap):
    # the child writes its first reply line twice, in one write or 0.3 s
    # apart: the next request read the extra line as its own
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    want = (ds.X.sum(axis=1) > 1.0).astype(np.int64)
    oracle = SubprocessOracle(stub_command(f"--mode threshold --value 1.0 --twice {gap}"),
                              ds.schema, "classification", timeout=5.0)
    try:
        if gap:
            np.testing.assert_array_equal(oracle.predict_batch(ds.X[:2]), want[:2])
            time.sleep(1.0)  # the extra line is in the pipe by now
        start = time.monotonic()
        with pytest.raises(OracleError, match="between requests" if gap else "more than one line"):
            oracle.predict_batch(ds.X[2:] if gap else ds.X[:2])
        assert time.monotonic() - start < 5.0
        _refuses_every_later_batch(oracle, ds.X, "between requests" if gap else "more than one")
    finally:
        oracle.close()


def test_subprocess_reply_flood_fails_fast():
    # 200 MB with no newline: the reader rescanned its whole buffer per
    # chunk and had read 25.6 MB when a 4 s timeout ended it
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle(stub_command("--flood 200"), ds.schema, "classification",
                              timeout=4.0)
    try:
        start = time.monotonic()
        with pytest.raises(OracleError, match="longer than"):
            oracle.predict_batch(ds.X[:2])
        assert time.monotonic() - start < 2.0
        _refuses_every_later_batch(oracle, ds.X, "longer than")
    finally:
        oracle.close()


def test_subprocess_write_timeout_when_child_never_reads():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    rows = np.repeat(ds.X, 5000, axis=0)  # a request far larger than a pipe buffer
    oracle = SubprocessOracle(stub_command("--no-read --delay 30"),
                              ds.schema, "classification", timeout=0.5)
    try:
        start = time.monotonic()
        with pytest.raises(OracleError, match="timed out"):
            oracle.predict_batch(rows)
        assert time.monotonic() - start < 5.0
    finally:
        oracle.close()


def test_subprocess_requests_are_capped_and_each_has_its_own_timeout(monkeypatch):
    monkeypatch.setattr(oracle_mod, "SUBPROCESS_REQUEST_ROWS", 3)
    ds = synth_dataset(SynthSpec("moons2d", 10), seed=8)
    want = (ds.X.sum(axis=1) > 1.0).astype(np.int64)
    # each request takes 0.3 s: four of them outlast one 0.5 s timeout, not four
    oracle = SubprocessOracle(stub_command("--mode threshold --value 1.0 --delay 0.3"),
                              ds.schema, "classification", timeout=30)
    # the first request's timeout also covers the child's start-up, so the
    # child starts under a long one before the timed batch
    np.testing.assert_array_equal(oracle.predict_batch(ds.X[:1]), want[:1])
    oracle.timeout = 0.5
    sizes = []
    request = oracle._request
    monkeypatch.setattr(oracle, "_request", lambda rows: sizes.append(len(rows)) or request(rows))
    try:
        # a batch of exactly the cap is one request, and a 0-row batch still
        # sends one empty request
        for n, requests in ((10, [3, 3, 3, 1]), (3, [3]), (0, [0])):
            sizes.clear()
            np.testing.assert_array_equal(oracle.predict_batch(ds.X[:n]), want[:n])
            assert sizes == requests
    finally:
        oracle.close()

    hangs = SubprocessOracle(stub_command("--mode threshold --delay 30 --delay-on 3"),
                             ds.schema, "classification", timeout=0.5)
    try:
        start = time.monotonic()
        with pytest.raises(OracleError, match="timed out"):
            hangs.predict_batch(ds.X)
        assert time.monotonic() - start < 5.0
    finally:
        hangs.close()


def test_subprocess_request_bytes_equal_the_per_row_reference(tmp_path, monkeypatch):
    # every line the child reads is json.dumps of the rows decoded value by
    # value, in whole batches, in one empty request, and in capped requests
    rng = np.random.default_rng(43)
    edge = Schema((FeatureSpec("n", "numeric", range=(0.0, 1.0)),
                   FeatureSpec("c", "categorical", categories=("only",))),
                  TargetSpec("label", "classification", classes=("0", "1")))
    cases = [random_decode_case(rng) for _ in range(5)] + [
        (Schema((), edge.target), np.empty((3, 0))),
        (edge, np.column_stack([EDGE_FLOATS, np.zeros(len(EDGE_FLOATS))]))]
    for trial, (schema, X) in enumerate(cases):
        record = tmp_path / f"requests{trial}.jsonl"
        oracle = SubprocessOracle(stub_command(f"--mode constant --record {record}"), schema,
                                  "classification")
        try:
            for rows in (X, X[:1], X[:0]):
                _same(oracle.predict_batch(rows), np.zeros(len(rows), dtype=np.int64))
            with monkeypatch.context() as mp:
                mp.setattr(oracle_mod, "SUBPROCESS_REQUEST_ROWS", 4)
                _same(oracle.predict_batch(X), np.zeros(len(X), dtype=np.int64))
        finally:
            oracle.close()
        sent = [X, X[:1], X[:0]] + [X[a:a + 4] for a in range(0, max(len(X), 1), 4)]
        want = "".join(json.dumps({"instances": [reference_decode_row(schema, x) for x in rows]})
                       + "\n" for rows in sent)
        assert record.read_bytes() == want.encode("utf-8")


def test_subprocess_reply_decoding_keeps_every_check():
    # a reply of class names alone is read by lookup; any other is checked
    # value by value, and a refused last value raises its own message
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    cls = SubprocessOracle(stub_command(), ds.schema, "classification")
    reg = SubprocessOracle(stub_command(), _regression(ds.schema), "regression")
    _same(cls._decode_predictions(["1", "0", "0"]), np.array([1, 0, 0]))
    _same(cls._decode_predictions(["1", 0, 1.0, "0"]), np.array([1, 0, 1, 0]))
    _same(cls._decode_predictions([]), np.array([], dtype=np.int64))
    _same(reg._decode_predictions([1, 2.5, -0.0]), np.array([1.0, 2.5, -0.0]))
    refused = [(cls, "2", "unknown class '2' (known: ['0', '1'])"),
               (cls, True, "boolean prediction: expected a class name, index or number"),
               (cls, 1.5, "prediction 1.5 is neither a class name nor an index"),
               (cls, 2, "class index 2 out of range 0..1"),
               (cls, [0], "prediction [0] is neither a class name nor an index"),
               (reg, "3", "non-numeric regression prediction '3'"),
               (reg, False, "boolean prediction: expected a class name, index or number"),
               (reg, math.inf, "non-finite regression prediction"),
               (reg, 10**400, "non-finite regression prediction: int too large to convert "
                              "to float")]
    for oracle, last, words in refused:
        first = ["1", "0"] if oracle is cls else [1, 0.5]
        with pytest.raises(OracleError, match=f"^{re.escape(words)}$"):
            oracle._decode_predictions(first + [last])
    assert cls._proc is None and reg._proc is None  # decoding starts no child


def test_subprocess_malformed_reply():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    # a line that is not JSON, then JSON lines that are not one prediction per instance
    for reply, refused in ((None, "malformed oracle reply"),
                           ('{"predictions": ["0"]}', "replied 1 predictions for 4 instances"),
                           ('{"predictions": null}', "replied non-list predictions for 4"),
                           ('{"labels": []}', "malformed oracle reply"),
                           ("[]", "malformed oracle reply")):
        stub = "--mode garbage" if reply is None else f"--reply {shlex.quote(reply)}"
        oracle = SubprocessOracle(stub_command(stub), ds.schema, "classification")
        try:
            with pytest.raises(OracleError, match=refused):
                oracle.predict_batch(ds.X)
            _refuses_every_later_batch(oracle, ds.X, refused)
        finally:
            oracle.close()


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("token", ["Infinity", "NaN", "1e400", "-Infinity", "true", "false",
                                   '"2.5"', pytest.param("1" + "0" * 400, id="10**400")])
def test_subprocess_non_finite_or_boolean_reply_is_oracle_error(task, token):
    # int(inf) raised OverflowError and int(nan) ValueError, which escape the
    # OracleError handling; true and false read as classes 1 and 0; a string
    # is no regression label, and an integer past the float range is none
    # either
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    schema = ds.schema if task == "classification" else _regression(ds.schema)
    oracle = SubprocessOracle(stub_command(f"--token={shlex.quote(token)}"), schema, task)
    try:
        with pytest.raises(OracleError):
            oracle.predict_batch(ds.X)
    finally:
        oracle.close()


@pytest.mark.parametrize("token", ["1", "1.0", '"1"'])
def test_subprocess_class_index_reply_reads_as_the_class_it_names(token):
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle(stub_command(f"--token={shlex.quote(token)}"), ds.schema,
                              "classification")
    try:
        _same(oracle.predict_batch(ds.X), np.ones(4, dtype=np.int64))
    finally:
        oracle.close()


def test_subprocess_classification_needs_a_class_list():
    # the first reply raised AttributeError reading the classes of no target
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    with pytest.raises(SchemaError, match="target states the task"):
        SubprocessOracle(stub_command("--mode constant"), Schema(ds.schema.features),
                         "classification")
    with pytest.raises(ValueError, match="contradicts the schema's regression target"):
        SubprocessOracle(stub_command("--mode constant"), _regression(ds.schema),
                         "classification")


def test_subprocess_task_other_than_its_schemas_is_refused():
    # a regression oracle over a classification schema was built, and failed
    # only at its first neighborhood selection
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    with pytest.raises(ValueError, match="^task 'regression' contradicts the schema's "
                                         "classification target$"):
        SubprocessOracle(stub_command("--mode regress"), ds.schema, "regression")


def test_an_oracle_needs_a_schema_with_a_target():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    bare = Schema(ds.schema.features)
    for build in (lambda: PredictionOracle(bare),
                  lambda: PrecomputedOracle(Dataset(bare, ds.X), ds.y),
                  lambda: SubprocessOracle(stub_command(), bare, "classification")):
        with pytest.raises(SchemaError, match="^an oracle needs a schema whose target "
                                              "states the task$"):
            build()


def test_an_oracles_task_is_its_schemas_target_kind_and_read_only():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    for schema in (ds.schema, _regression(ds.schema)):
        oracle = PredictionOracle(schema)
        assert oracle.task == schema.target.kind
        with pytest.raises(AttributeError):
            oracle.task = "regression"
        assert oracle.task == schema.target.kind


def test_subprocess_unknown_command():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    for command, refused in (("/no/such/binary-xyz", "cannot start"),
                             (" \t ", "empty oracle command"),
                             ("python 'x", "^cannot parse oracle command \"python 'x\"")):
        oracle = SubprocessOracle(command, ds.schema, "classification")
        with pytest.raises(OracleError, match=refused):
            oracle.predict_batch(ds.X)
        with pytest.raises(OracleError, match="^oracle subprocess was stopped after an error"):
            oracle.predict_batch(ds.X)


def test_builtin_oracle_determinism():
    rng = np.random.default_rng(17)
    ds = make_dataset(rng, random_mixed_schema(rng, n_num=2, n_cat=1), 50)
    oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=5, seed=1)))
    probe = random_rows(rng, ds.schema, 30)
    np.testing.assert_array_equal(oracle.predict_batch(probe), oracle.predict_batch(probe))


def test_missing_targets_rejected():
    ds = synth_dataset(SynthSpec("moons2d", 20), seed=1)
    bare = Dataset(ds.schema, ds.X, None)
    with pytest.raises(ValueError, match="targets"):
        train_forest(bare)
    with pytest.raises(ValueError, match="targets"):
        train_knn(bare)
    with pytest.raises(SchemaError, match="target states the task"):
        PrecomputedOracle(Dataset(Schema(ds.schema.features), ds.X), ds.y)
