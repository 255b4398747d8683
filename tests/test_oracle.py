import json
import math
import shlex
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from araucana import gower, oracle as oracle_mod
from araucana.cart import ROUTE_CHUNK_PAIRS, fit_tree, predict_batch, tree_to_dict
from araucana.gower import DistanceMetric, distances_to
from araucana.oracle import (
    BuiltinOracle,
    ForestConfig,
    ForestModel,
    OracleError,
    PrecomputedOracle,
    SubprocessOracle,
    ensure_same_schema,
    load_model,
    save_model,
    train_forest,
    train_knn,
)
from araucana.tabular import REGRESSION, Dataset, Schema, SynthSpec, TargetSpec, synth_dataset

from reference_cart import reference_fit_tree

from conftest import (
    DEEP_JSON_REFUSED,
    chain_dataset,
    make_dataset,
    random_mixed_schema,
    random_rows,
)

STUB = Path(__file__).parent / "stub_oracle.py"


def stub_command(extra=""):
    return f"{sys.executable} {STUB} {extra}".strip()


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
        trees.append(reference_fit_tree(ds.X[idx], ds.y[idx], ds.schema, ds.task, draw))
    return trees


def _per_tree_vote(trees, ds, rows):
    """Reference forest prediction: route each tree on its own, then vote."""
    votes = np.stack([predict_batch(t, rows) for t in trees])
    if ds.task == REGRESSION:
        return votes.mean(axis=0)
    n_classes = len(ds.schema.target.classes)
    counts = np.stack([(votes == c).sum(axis=0) for c in range(n_classes)])
    return counts.argmax(axis=0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_packed_forest_routing_equals_per_tree_vote(tmp_path, target, seed):
    rng = np.random.default_rng(40 + seed)
    schema = random_mixed_schema(rng, n_classes=3 if target == "3 classes" else 2)
    if target == "regression":
        schema = Schema(schema.features, TargetSpec("label", REGRESSION))
    ds = make_dataset(rng, schema, 60)
    constant = Dataset(schema, ds.X, np.zeros_like(ds.y))
    n_trees = 7
    # more rows than one routing chunk holds for a 7-tree forest
    probe = random_rows(rng, schema, ROUTE_CHUNK_PAIRS // n_trees + 5)
    cfg = ForestConfig(n_trees=n_trees, seed=seed)
    for data in (ds, constant):
        forest = train_forest(data, cfg)
        trees = _reference_trees(data, cfg)
        if data is constant:  # one leaf per tree
            np.testing.assert_array_equal(forest.roots, np.arange(n_trees))
            assert (forest.nodes.table.feat < 0).all()
        for rows in (probe[:1], probe[0], probe[:30], probe):
            np.testing.assert_array_equal(forest.predict_batch(rows),
                                          _per_tree_vote(trees, data, np.atleast_2d(rows)))

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(forest, a)
        doc = json.loads(a.read_text())
        assert doc["trees"] == [tree_to_dict(t) for t in trees]
        assert (doc["feature_subsample"], doc["bootstrap"]) == (forest.feature_subsample, True)
        back = load_model(a)
        np.testing.assert_array_equal(back.predict_batch(probe), forest.predict_batch(probe))
        save_model(back, b)
        assert b.read_bytes() == a.read_bytes()


def test_knn_examples():
    ds = synth_dataset(SynthSpec("moons2d", 60), seed=5)
    assert len(np.unique(ds.X, axis=0)) == len(ds)
    k1 = train_knn(ds, k=1)
    np.testing.assert_array_equal(k1.predict_batch(ds.X), ds.y)
    kn = train_knn(ds, k=len(ds))
    majority = np.argmax(np.bincount(ds.y))
    assert (kn.predict_batch(ds.X[:10]) == majority).all()


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
    np.testing.assert_array_equal(distances_to(DistanceMetric(schema), np.empty(0), ds.X),
                                  np.zeros(5))
    np.testing.assert_array_equal(train_knn(ds, k=3).predict_batch(np.empty((2, 0))), [1, 1])
    np.testing.assert_array_equal(train_knn(ds, k=5).predict_batch(np.empty((2, 0))), [0, 0])


def _reference_knn(model, rows):
    """The per-row k-NN: one distances_to pass and a full stable argsort per row."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    k = min(model.k, len(model.X))
    preds = []
    for x in rows:
        near = np.argsort(distances_to(model.metric, x, model.X), kind="stable")[:k]
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


@pytest.mark.parametrize("kind", ["gower", "euclidean"])
@pytest.mark.parametrize("target", ["2-class", "3-class", "regression"])
def test_batched_knn_equals_per_row_reference(tmp_path, monkeypatch, target, kind):
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
        metric = DistanceMetric(schema, kind)
        for k in (1, 5, n, n + 3):  # even k with 2 classes: vote ties
            model = train_knn(ds, k=k, metric=metric)
            want = _reference_knn(model, queries)
            _same(model.predict_batch(queries), want)
            _same(model.predict_batch(queries[3]), want[3:4])
            _same(model.predict_batch(queries[:0]), want[:0])
            # 3 queries per distance chunk and partition, or per block of the
            # oracle (the batch of 20 spans 7 of them), or 1 query for all three
            for cells, block in ((3 * X.size, 2**18), (2**40, 3 * n), (1, 1)):
                with monkeypatch.context() as mp:
                    mp.setattr(gower, "DISTANCE_CHUNK_CELLS", cells)
                    mp.setattr(gower, "NEAREST_BLOCK_DISTANCES", block)
                    _same(model.predict_batch(queries), want)
        path = tmp_path / f"knn{trial}.json"
        save_model(model, path)
        _same(load_model(path).predict_batch(queries), want)


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


def test_save_model_too_deep_tree(tmp_path):
    ds = chain_dataset(1200)
    tree = fit_tree(ds.X, ds.y, ds.schema)
    model = ForestModel(tree, [0], [0], ds.schema.n_features)
    path = tmp_path / "model.json"
    if DEEP_JSON_REFUSED:
        with pytest.raises(ValueError, match="too deep to nest as JSON"):
            save_model(model, path)
        assert not path.exists()
    else:
        save_model(model, path)
        np.testing.assert_array_equal(load_model(path).predict_batch(ds.X), ds.y)


def test_load_model_malformed(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"type": "forest", "task": "classification"', encoding="utf-8")
    with pytest.raises(OracleError, match="malformed model file"):
        load_model(p)


def test_schema_mismatch_on_use():
    a = synth_dataset(SynthSpec("moons2d", 30), seed=1)
    b = synth_dataset(SynthSpec("imbalanced_mixed", 30), seed=1)
    model = train_forest(a, ForestConfig(n_trees=2, seed=0))
    with pytest.raises(OracleError, match="schema"):
        ensure_same_schema(model.schema, b.schema)


def test_precomputed_rows_and_synthetic_error():
    ds = synth_dataset(SynthSpec("moons2d", 40), seed=6)
    preds = (np.arange(40) % 2).astype(np.int64)
    oracle = PrecomputedOracle(ds, preds, "classification")
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

    reg = SubprocessOracle(stub_command("--mode regress"), ds.schema, "regression")
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
                              ds.schema, "classification", timeout=0.5)
    sizes = []
    request = oracle._request
    monkeypatch.setattr(oracle, "_request", lambda rows: sizes.append(len(rows)) or request(rows))
    try:
        np.testing.assert_array_equal(oracle.predict_batch(ds.X), want)
        assert sizes == [3, 3, 3, 1]
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


def test_subprocess_malformed_reply():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle(stub_command("--mode garbage"), ds.schema, "classification")
    try:
        with pytest.raises(OracleError, match="malformed oracle reply"):
            oracle.predict_batch(ds.X)
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
    oracle = SubprocessOracle(stub_command(f"--token={shlex.quote(token)}"), ds.schema, task)
    try:
        with pytest.raises(OracleError):
            oracle.predict_batch(ds.X)
    finally:
        oracle.close()


def test_subprocess_unknown_command():
    ds = synth_dataset(SynthSpec("moons2d", 4), seed=1)
    oracle = SubprocessOracle("/no/such/binary-xyz", ds.schema, "classification")
    with pytest.raises(OracleError, match="cannot start"):
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
