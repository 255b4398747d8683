import json
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from araucana import cart
from araucana.cart import (
    decision_path,
    fit_tree,
    predict_batch,
    predict_tree,
    tree_stats,
    tree_to_dict,
)
from araucana.tabular import REGRESSION, FeatureSpec, Schema, TargetSpec

from conftest import DEEP_JSON_REFUSED, chain_dataset, random_mixed_schema, random_rows
from reference_cart import (
    reference_fit_tree,
    reference_grow,
    reference_route,
    reference_tree_stats,
    tree_from_dict,
)


def and_dataset(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 0, 1])
    return X, y


def test_gini_formula():
    assert cart._gini(np.array([3.0, 1.0]), 4) == pytest.approx(0.375, abs=1e-15)


def test_and_dataset_zero_error_small_tree(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    tree = fit_tree(X, y, two_cat_schema)
    np.testing.assert_array_equal(predict_batch(tree, X), y)
    assert tree_stats(tree)["leaf_count"] <= 3
    assert predict_tree(tree, np.array([1.0, 1.0])) == 1


def test_pure_labels_single_leaf(two_cat_schema):
    X, _ = and_dataset(two_cat_schema)
    tree = fit_tree(X, np.array([1, 1, 1, 1]), two_cat_schema)
    stats = tree_stats(tree)
    assert stats == {"depth": 0, "leaf_count": 1, "node_count": 1}
    assert predict_tree(tree, np.array([0.0, 1.0])) == 1
    assert decision_path(tree, np.array([0.0, 1.0])) == []


def test_depth_one_tree_single_condition(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])  # label = a
    tree = fit_tree(X, y, two_cat_schema)
    assert tree_stats(tree) == {"depth": 1, "leaf_count": 2, "node_count": 3}
    path = decision_path(tree, X[3])
    assert len(path) == 1


def test_path_conditions_hold_in_branch_direction():
    rng = np.random.default_rng(12)
    schema = random_mixed_schema(rng, n_num=2, n_cat=2)
    X = random_rows(rng, schema, 60)
    y = rng.integers(0, 2, size=60)
    tree = fit_tree(X, y, schema)
    for row in X[:20]:
        for feat, kind, value, taken in decision_path(tree, row):
            if kind == cart.NUMERIC_LE:
                assert (row[feat] <= value) == taken
            else:
                assert (row[feat] == value) == taken


def test_zero_training_error_without_conflicts():
    rng = np.random.default_rng(5)
    for trial in range(8):
        schema = random_mixed_schema(rng)
        X = random_rows(rng, schema, 50)
        # unique rows are overwhelmingly likely with numerics; force when all-cat
        _, keep = np.unique(X, axis=0, return_index=True)
        X = X[np.sort(keep)]
        y = rng.integers(0, 2, size=len(X))
        tree = fit_tree(X, y, schema)
        np.testing.assert_array_equal(predict_batch(tree, X), y)


def test_zero_training_error_regression():
    rng = np.random.default_rng(6)
    schema = random_mixed_schema(rng, n_num=2, n_cat=1)
    X = random_rows(rng, schema, 40)
    y = rng.standard_normal(40)
    tree = fit_tree(X, y, schema, task="regression")
    np.testing.assert_allclose(predict_batch(tree, X), y, rtol=0, atol=1e-12)


def test_regression_leaf_mean_and_root_mse():
    schema = Schema((FeatureSpec("v", "numeric", range=(0.0, 1.0)),))
    X = np.array([[0.3]] * 4)  # identical rows: no two-sided split
    y = np.array([1.0, 2.0, 3.0, 6.0])
    leaf = fit_tree(X, y, schema, task="regression")
    assert predict_tree(leaf, np.array([0.5])) == pytest.approx(y.mean())
    assert leaf.leaf_stats[0] == 4 and leaf.table.pred[0] == 3.0  # n and mean


def test_conflicting_duplicates_majority_leaf(two_cat_schema):
    X = np.array([[1.0, 1.0]] * 5)
    y = np.array([0, 1, 1, 0, 0])
    tree = fit_tree(X, y, two_cat_schema)
    assert tree_stats(tree)["leaf_count"] == 1
    assert predict_tree(tree, X[0]) == 0  # majority


def test_majority_tie_goes_to_lowest_class(two_cat_schema):
    X = np.array([[1.0, 1.0]] * 4)
    y = np.array([1, 2, 2, 1])  # tie between classes 1 and 2
    schema = Schema(
        two_cat_schema.features,
        TargetSpec("label", "classification", classes=("a", "b", "c")),
    )
    tree = fit_tree(X, y, schema)
    assert predict_tree(tree, X[0]) == 1


def test_split_admissibility_and_determinism():
    rng = np.random.default_rng(8)
    schema = random_mixed_schema(rng, n_num=2, n_cat=1)
    X = random_rows(rng, schema, 80)
    y = rng.integers(0, 3, size=80)
    sch = Schema(schema.features, TargetSpec("label", "classification",
                                             classes=("0", "1", "2")))
    t1 = fit_tree(X, y, sch)
    t2 = fit_tree(X, y, sch)
    assert tree_to_dict(t1) == tree_to_dict(t2)

    # chosen splits never increase weighted impurity and never strand a side
    for node, idx in _walk_sizes(t1, X):
        if _is_leaf(t1, node):
            continue
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=3)
        parent = cart._gini(counts.astype(float), len(idx))
        mask = _goes_left(t1, node, X[idx])
        left, right = y_node[mask], y_node[~mask]
        assert len(left) > 0 and len(right) > 0
        wl = cart._gini(np.bincount(left, minlength=3).astype(float), len(left))
        wr = cart._gini(np.bincount(right, minlength=3).astype(float), len(right))
        weighted = (len(left) * wl + len(right) * wr) / len(idx)
        assert weighted <= parent + 1e-12


def test_categorical_xor_reaches_purity(two_cat_schema):
    # every one-vs-rest split has zero gain here, yet the tree must grow through
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, two_cat_schema)
    np.testing.assert_array_equal(predict_batch(tree, X), y)


def test_tie_break_prefers_first_feature(two_cat_schema):
    # both features separate the labels equally well
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, two_cat_schema)
    assert tree.table.feat[0] == 0
    # and the lowest category index for equal-gain categories on one feature
    schema = Schema(
        (FeatureSpec("c", "categorical", categories=("x", "y")),),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    X2 = np.array([[0.0], [1.0]])
    tree2 = fit_tree(X2, np.array([0, 1]), schema)
    assert tree2.table.val[0] == 0.0


def test_numeric_threshold_is_midpoint():
    schema = Schema(
        (FeatureSpec("v", "numeric", range=(0.0, 10.0)),),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    X = np.array([[1.0], [3.0], [7.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, schema)
    assert tree.table.val[0] == 5.0


def _is_leaf(tree, node):
    return tree.table.feat[node] < 0


def _goes_left(tree, node, rows):
    t = tree.table
    col = rows[:, t.feat[node]]
    return col <= t.val[node] if tree.schema.numeric_mask()[t.feat[node]] else col == t.val[node]


def _walk_sizes(tree, X):
    """(node id, rows of X reaching it) in preorder, split by the node tests."""
    out = []
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        out.append((node, idx))
        if not _is_leaf(tree, node):
            mask = _goes_left(tree, node, X[idx])
            stack.append((tree.table.right[node], idx[~mask]))
            stack.append((node + 1, idx[mask]))
    return out


def _leaf_sizes(tree, X):
    return [len(idx) for node, idx in _walk_sizes(tree, X) if _is_leaf(tree, node)]


def test_json_roundtrip_classification_and_regression():
    rng = np.random.default_rng(21)
    schema = random_mixed_schema(rng, n_num=2, n_cat=2)
    X = random_rows(rng, schema, 50)
    y = rng.integers(0, 2, size=50)
    tree = fit_tree(X, y, schema)
    doc = tree_to_dict(tree)
    back = tree_from_dict(doc, schema, "classification")
    probe = random_rows(rng, schema, 100)
    np.testing.assert_array_equal(predict_batch(back, probe), predict_batch(tree, probe))
    assert tree_stats(back) == tree_stats(tree)

    yr = rng.standard_normal(50)
    rtree = fit_tree(X, yr, schema, task="regression")
    rdoc = tree_to_dict(rtree)
    rback = tree_from_dict(rdoc, schema, "regression")
    np.testing.assert_allclose(predict_batch(rback, probe), predict_batch(rtree, probe))

    # a loaded tree writes back the same bytes and holds the same arrays
    for original, d, loaded in ((tree, doc, back), (rtree, rdoc, rback)):
        assert json.dumps(tree_to_dict(loaded)) == json.dumps(d)
        for a, b in zip(loaded.table, original.table):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.leaf_stats, original.leaf_stats)

    # the schema decides a test's kind: a nested test of the other kind is refused
    numeric = schema.features[doc["feature"]].is_numeric
    doc["test"] = ({"kind": cart.CATEGORY_EQ, "category": 0} if numeric
                   else {"kind": cart.NUMERIC_LE, "threshold": 0.5})
    with pytest.raises(ValueError, match="disagrees with the schema"):
        tree_from_dict(doc, schema, "classification")


def test_deep_tree_walks_without_recursion():
    ds = chain_dataset(1200)
    tree = fit_tree(ds.X, ds.y, ds.schema)
    assert tree_stats(tree) == reference_tree_stats(ds.X, ds.y, ds.schema, "classification")
    assert tree_stats(tree)["depth"] == 1199
    np.testing.assert_array_equal(predict_batch(tree, ds.X), ds.y)
    assert len(decision_path(tree, ds.X[-1])) == 1199
    doc = tree_to_dict(tree)
    back = tree_from_dict(doc, ds.schema, "classification")
    assert tree_stats(back) == tree_stats(tree)
    for a, b in zip(back.table, tree.table):
        np.testing.assert_array_equal(a, b)
    if DEEP_JSON_REFUSED:
        with pytest.raises(ValueError, match="too deep"):
            cart.json_text(doc)


def test_json_field_names(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    doc = tree_to_dict(fit_tree(X, y, two_cat_schema))
    assert set(doc) == {"feature", "test", "left", "right"}
    assert doc["test"]["kind"] in ("numeric_le", "category_eq")
    leafy = tree_to_dict(fit_tree(X, np.array([0, 0, 0, 0]), two_cat_schema))
    assert set(leafy) == {"leaf"}
    assert set(leafy["leaf"]) == {"prediction", "counts"}


def test_leaf_counts_sum_to_routed_rows(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    tree = fit_tree(X, y, two_cat_schema)
    sizes = _leaf_sizes(tree, X)

    leaf_totals = [int(tree.leaf_stats[node].sum()) for node in np.flatnonzero(tree.table.feat < 0)]
    assert leaf_totals == sizes  # leaves in preorder


def test_no_features_grows_one_leaf():
    schema = Schema((), TargetSpec("label", "classification", classes=("0", "1")))
    tree = fit_tree(np.empty((5, 0)), np.array([0, 1, 1, 0, 1]), schema)
    assert tree_stats(tree)["leaf_count"] == 1
    assert tree.leaf_stats.tolist() == [[2, 3]]


def test_errors():
    schema = Schema((FeatureSpec("v", "numeric", range=(0.0, 1.0)),))
    with pytest.raises(ValueError, match="zero rows"):
        fit_tree(np.empty((0, 1)), np.empty(0, dtype=int), schema)
    with pytest.raises(ValueError, match="labels"):
        fit_tree(np.array([[0.1]]), np.array([1, 2]), schema)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_regression_labels_whose_square_sums_overflow_are_refused():
    # square sums of +-1e200 overflow: every gain was NaN, and the best-split
    # pick indexed an empty array
    schema = Schema((FeatureSpec("v", "numeric", range=(0.0, 19.0)),),
                    TargetSpec("y", REGRESSION))
    X = np.arange(20.0).reshape(-1, 1)
    y = np.where(np.arange(20) % 2, 1e200, -3e200)
    with pytest.raises(ValueError, match=r"^regression label -3e\+200 is too large: its square "
                                         r"sums over 20 rows overflow$"):
        fit_tree(X, y, schema)
    # labels up to sqrt(max / rows) grow without a warning
    y = y / 3e200 * np.sqrt(np.finfo(float).max / 20)
    np.testing.assert_array_equal(predict_batch(fit_tree(X, y, schema), X), y)


def _tied_data(rng, target, n=70):
    """Random mixed rows with repeated values, duplicated rows, and, for
    regression, labels of mixed magnitude that repeat: ties set the row order
    within a node, and that order sets how the MSE sums round."""
    schema = random_mixed_schema(rng, n_num=int(rng.integers(1, 4)), n_cat=int(rng.integers(1, 4)),
                                 n_classes=3 if target == "3 classes" else 2)
    if target == "regression":
        schema = Schema(schema.features, TargetSpec("label", REGRESSION))
    X = random_rows(rng, schema, n)
    for f in np.flatnonzero(schema.numeric_mask()):
        few = rng.random(n) < 0.5
        X[few, f] = rng.choice(X[:4, f], size=few.sum())
    dup = rng.integers(0, n, size=n // 4)
    X[-len(dup):] = X[dup]
    if target == "regression":
        y = rng.choice(rng.standard_normal(12) * 10.0 ** rng.integers(-3, 4, size=12), size=n)
        y[: n // 5] = 0.1
    else:
        y = rng.integers(0, len(schema.target.classes), size=n)
    task = "regression" if target == "regression" else "classification"
    return schema, X, y, task


def _same_trees(a, b):
    for x, z in zip(a.table, b.table):
        assert x.dtype == z.dtype
        np.testing.assert_array_equal(x, z)
    assert a.leaf_stats.dtype == b.leaf_stats.dtype
    np.testing.assert_array_equal(a.leaf_stats, b.leaf_stats)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_frontier_grower_equals_per_node_reference(target, seed):
    rng = np.random.default_rng(70 + seed)
    schema, X, y, task = _tied_data(rng, target)
    p = schema.n_features
    _same_trees(fit_tree(X, y, schema, task=task), reference_fit_tree(X, y, schema, task=task))
    # an explainer tree, then a forest tree's feature draws
    for draw in [None] + [(seed, width) for width in sorted({1, p - 1})]:
        args = X, y, schema, task, [np.arange(len(X))], [draw]
        tree, _, leaves = cart.grow_trees(*args)
        reference, _, ref_leaves = reference_grow(*args)
        _same_trees(tree, reference)
        # the depth and leaf count read off the table are the ones the per-node grower counts
        assert tree_stats(tree) == reference_tree_stats(X, y, schema, task, draw)
        np.testing.assert_array_equal(leaves, ref_leaves)
        np.testing.assert_array_equal(leaves, cart.apply(tree, X))  # the leaf routing reaches


@pytest.mark.parametrize("seed", range(2))
def test_regression_runs_of_equal_size_nodes_equal_per_node_reference(monkeypatch, seed):
    # 320 rows: the top nodes pass numpy's 128-label pairwise block; duplicated
    # rows and repeated labels, drawn again by bootstrap samples, give a step
    # many nodes of one size; half the labels are negative, so some internal
    # node's mean is, and some are -0.0, whose leaf mean numpy's sum makes +0.0
    rng = np.random.default_rng(150 + seed)
    schema, X, y, task = _tied_data(rng, "regression", n=320)
    y[rng.random(len(y)) < 0.5] *= -1.0
    y[rng.random(len(y)) < 0.05] = -0.0
    samples = [np.arange(len(X))] + [rng.integers(0, len(X), size=len(X)) for _ in range(3)]
    draws = [None, None, (seed, 1), (seed + 1, schema.n_features)]
    reference, ref_roots, ref_leaves = reference_grow(X, y, schema, task, samples, draws)
    for cap in (1, 1 << 40):  # one node per step, and a whole frontier per step
        monkeypatch.setattr(cart, "GROW_CHUNK_PAIRS", cap)
        tree, roots, leaves = cart.grow_trees(X, y, schema, task, samples, draws)
        _same_trees(tree, reference)
        np.testing.assert_array_equal(roots, ref_roots)
        np.testing.assert_array_equal(leaves, ref_leaves)
        # assert_array_equal takes -0.0 for 0.0: an internal node stores +0.0
        assert not np.signbit(tree.table.pred[tree.table.feat >= 0]).any()
        np.testing.assert_array_equal(np.signbit(tree.table.pred), np.signbit(reference.table.pred))
    inner = [y[idx].mean() for node, idx in _walk_sizes(tree, X) if not _is_leaf(tree, node)]
    assert min(inner) < 0.0 and len(X) > 128


@pytest.mark.parametrize("seed", range(4))
def test_regression_split_never_has_equal_labels(seed):
    # few distinct labels, 0.1 and 0.3 among them: equal floats whose variance
    # is not 0 made such a node split on down to single rows
    rng = np.random.default_rng(110 + seed)
    schema, X, y, task = _tied_data(rng, "regression")
    few = rng.choice([0.1, 0.3, 1 / 3, 7e-3], size=len(X))
    for labels in (y, few, np.full(len(X), few[0])):
        args = X, labels, schema, task
        for tree in (fit_tree(*args), reference_fit_tree(*args)):
            for node, idx in _walk_sizes(tree, X):
                if not _is_leaf(tree, node):
                    assert labels[idx].min() < labels[idx].max()
    assert tree_stats(fit_tree(X, np.full(len(X), few[0]), schema, task))["leaf_count"] == 1


@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_trees_grown_together_equal_trees_grown_alone(monkeypatch, target):
    rng = np.random.default_rng(90)
    schema, X, y, task = _tied_data(rng, target)
    p = schema.n_features
    samples = [rng.integers(0, len(X), size=int(rng.integers(1, len(X)))) for _ in range(6)]
    # lockstep trees (drawing features) and level-by-level trees in one call
    draws = [(t, 1 + t % p) if t % 2 else None for t in range(len(samples))]
    together, roots, leaves = cart.grow_trees(X, y, schema, task, samples, draws)
    reference, ref_roots, ref_leaves = reference_grow(X, y, schema, task, samples, draws)
    _same_trees(together, reference)
    np.testing.assert_array_equal(roots, ref_roots)
    np.testing.assert_array_equal(leaves, ref_leaves)
    starts = np.cumsum([0] + [len(rows) for rows in samples])
    plan = cart.route_plan(together)
    for t, (rows, draw, cut) in enumerate(zip(samples, draws, cart.split_trees(together, roots))):
        alone, _, alone_leaves = cart.grow_trees(X, y, schema, task, [rows], [draw])
        assert tree_to_dict(cut) == tree_to_dict(alone)
        _same_trees(cut, alone)  # its own ids
        assert tree_stats(cut) == reference_tree_stats(X[rows], y[rows], schema, task, draw)
        part = leaves[starts[t]:starts[t + 1]]
        np.testing.assert_array_equal(part, cart.route(plan, roots[t:t + 1], X[rows])[0])
        np.testing.assert_array_equal(part - roots[t], alone_leaves)
    for cap in (1, 1 << 40):  # one node per step, and a whole frontier per step
        monkeypatch.setattr(cart, "GROW_CHUNK_PAIRS", cap)
        _same_trees(cart.grow_trees(X, y, schema, task, samples, draws)[0], together)


@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_route_equals_reference_walk(monkeypatch, target):
    rng = np.random.default_rng(130)
    schema, X, y, task = _tied_data(rng, target)
    p, num = schema.n_features, schema.numeric_mask()
    samples = [rng.integers(0, len(X), size=len(X)) for _ in range(5)]
    draws = [(t, 1 + t % p) if t % 2 else None for t in range(len(samples))]
    forest, roots, _ = cart.grow_trees(X, y, schema, task, samples, draws)
    constant, constant_roots, _ = cart.grow_trees(X, np.zeros_like(y), schema, task, samples, draws)
    assert (constant.table.feat < 0).all()
    # NaN numerics, and category codes outside the schema, which no split tests
    rows = np.vstack([X, random_rows(rng, schema, 30)])
    rows[(rng.random(rows.shape) < 0.2) & num] = np.nan
    odd = (rng.random(rows.shape) < 0.2) & ~num
    rows[odd] = rng.choice([-1.0, 7.0], size=odd.sum())
    chain = chain_dataset(1200)  # 1,199 levels: many times ROUTE_STEPS
    deep = fit_tree(chain.X, chain.y, chain.schema)
    deep_rows = np.vstack([chain.X, [[-3.0], [599.5], [np.nan], [1e9]]])
    cases = [(forest, roots, rows), (constant, constant_roots, rows),
             (deep, np.zeros(1, dtype=np.int64), deep_rows)]
    for tree, tops, batch in cases:
        want = reference_route(tree, tops, batch)
        plan = cart.route_plan(tree)
        with _deadline(60):
            np.testing.assert_array_equal(cart.route(plan, tops, batch), want)
            np.testing.assert_array_equal(cart.route(plan, tops, batch[:0]), want[:, :0])
            # drops after every step or every few, and the batch in 3 or 7 chunks
            for steps, chunks in ((1, 3), (3, 7)):
                monkeypatch.setattr(cart, "ROUTE_STEPS", steps)
                monkeypatch.setattr(cart, "ROUTE_CHUNK_PAIRS",
                                    len(tops) * (len(batch) // chunks + 1))
                np.testing.assert_array_equal(cart.route(plan, tops, batch), want)
        monkeypatch.undo()


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when routing does not stop: a pair stops only
    at a node that is its own child."""
    def stop(*_):
        raise AssertionError(f"routing took more than {seconds} s")
    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
