import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from araucana import cart, tabular
from araucana.cart import decision_path, tree_stats
from araucana.tabular import REGRESSION, FeatureSpec, Schema, SchemaError, TargetSpec

from conftest import (
    chain_dataset,
    grow_tree,
    random_mixed_schema,
    random_rows,
    tree_leaves,
    tree_predictions,
)
from reference_cart import (
    _gini as reference_gini,
    reference_grow_tree,
    reference_grow,
    reference_route,
    reference_tree_stats,
)


def and_dataset(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 0, 1])
    return X, y


def test_gini_formula():
    assert cart._gini(np.array([3.0, 1.0]), 4) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 1000])
@pytest.mark.parametrize("near_bound", [False, True])
def test_packed_sort_is_the_stable_argsort(size, near_bound):
    # a few distinct keys, so ties are many, at the bottom of the range or
    # just below the largest bound whose packed values fit in int64
    rng = np.random.default_rng(size)
    bound = (2 ** 63 - 1) // max(size, 1) if near_bound else 5
    keys = rng.integers(bound - 5, bound, size=size) if near_bound else rng.integers(0, 5, size)
    order, ordered = cart._packed_sort(keys, bound)
    want = np.argsort(keys, kind="stable")
    assert order.dtype == ordered.dtype == np.int64
    np.testing.assert_array_equal(order, want)
    np.testing.assert_array_equal(ordered, keys[want])


def test_packed_sort_refuses_keys_whose_packed_values_pass_int64():
    cart._check_packable(2 ** 63 // 1000, 1000)  # the largest product below 2**63
    with pytest.raises(ValueError, match=r"^1000 keys below 9223372036854776 do not pack into "
                                         r"int64 \(9223372036854776 \* 1000 >= 2\*\*63\)"):
        cart._check_packable(2 ** 63 // 1000 + 1, 1000)
    # one node of 3.1e9 (row, feature) pairs whose rank keys reach as high
    with pytest.raises(ValueError, match="do not pack into int64"):
        cart._check_packable(3_100_000_000, 3_100_000_000)


@pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 9, 12, 16, 17, 130])
def test_class_major_gini_equals_the_row_sums_bit_for_bit(n_classes):
    # the frontier's class-major counts against the per-node search's rows of
    # counts: numpy sums a row in turn below 8 classes, pairwise from 8 up
    rng = np.random.default_rng(n_classes)
    counts = rng.integers(0, 40, size=(n_classes, 300)) * (rng.random((n_classes, 300)) < 0.7)
    counts[rng.integers(0, n_classes, size=300), np.arange(300)] += 1  # no empty group
    n = counts.sum(axis=0)
    got = cart._gini(counts, n)
    want = reference_gini(np.ascontiguousarray(counts.T), n[:, None])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_and_dataset_zero_error_small_tree(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    tree = grow_tree(X, y, two_cat_schema)
    np.testing.assert_array_equal(tree_predictions(tree, X), y)
    assert tree_stats(tree)["leaf_count"] <= 3
    assert tree_predictions(tree, np.array([1.0, 1.0]))[0] == 1


def test_pure_labels_single_leaf(two_cat_schema):
    X, _ = and_dataset(two_cat_schema)
    tree = grow_tree(X, np.array([1, 1, 1, 1]), two_cat_schema)
    stats = tree_stats(tree)
    assert stats == {"depth": 0, "leaf_count": 1, "node_count": 1}
    assert tree_predictions(tree, np.array([0.0, 1.0]))[0] == 1
    assert decision_path(tree, np.array([0.0, 1.0])) == []


def test_depth_one_tree_single_condition(two_cat_schema):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])  # label = a
    tree = grow_tree(X, y, two_cat_schema)
    assert tree_stats(tree) == {"depth": 1, "leaf_count": 2, "node_count": 3}
    path = decision_path(tree, X[3])
    assert len(path) == 1


def test_path_conditions_hold_in_branch_direction():
    rng = np.random.default_rng(12)
    schema = random_mixed_schema(rng, n_num=2, n_cat=2)
    X = random_rows(rng, schema, 60)
    y = rng.integers(0, 2, size=60)
    tree = grow_tree(X, y, schema)
    for row in X[:20]:
        for feat, kind, value, taken in decision_path(tree, row):
            if kind == cart.NUMERIC_LE:
                assert (row[feat] <= value) == taken
            else:
                assert (row[feat] == value) == taken


def test_decision_path_refuses_a_nonconforming_instance(age_sex_schema):
    tree = grow_tree(np.array([[20.0, 0.0], [60.0, 1.0]]), np.array([0, 1]), age_sex_schema)
    with pytest.raises(SchemaError, match=r"^row 0, feature 'sex' \(index 1\): 2.0 is not a "
                                          r"valid category index \(0..1\)$"):
        decision_path(tree, np.array([30.0, 2.0]))
    with pytest.raises(SchemaError, match=r"^row 0, feature 'age' \(index 0\): nan is not a "
                                          r"finite number$"):
        decision_path(tree, np.array([np.nan, 0.0]))
    with pytest.raises(SchemaError, match=r"^a block of shape \(1, 3\) is not rows of the "
                                          r"schema's 2 features$"):
        decision_path(tree, np.array([30.0, 0.0, 1.0]))


def test_zero_training_error_without_conflicts():
    rng = np.random.default_rng(5)
    for trial in range(8):
        schema = random_mixed_schema(rng)
        X = random_rows(rng, schema, 50)
        # unique rows are overwhelmingly likely with numerics; force when all-cat
        _, keep = np.unique(X, axis=0, return_index=True)
        X = X[np.sort(keep)]
        y = rng.integers(0, 2, size=len(X))
        tree = grow_tree(X, y, schema)
        np.testing.assert_array_equal(tree_predictions(tree, X), y)


def test_zero_training_error_regression():
    rng = np.random.default_rng(6)
    schema = random_mixed_schema(rng, n_num=2, n_cat=1)
    schema = Schema(schema.features, TargetSpec("y", REGRESSION))
    X = random_rows(rng, schema, 40)
    y = rng.standard_normal(40)
    tree = grow_tree(X, y, schema)
    np.testing.assert_allclose(tree_predictions(tree, X), y, rtol=0, atol=1e-12)


def test_regression_leaf_mean_and_root_mse():
    schema = Schema((FeatureSpec("v", "numeric", range=(0.0, 1.0)),), TargetSpec("y", REGRESSION))
    X = np.array([[0.3]] * 4)  # identical rows: no two-sided split
    y = np.array([1.0, 2.0, 3.0, 6.0])
    leaf = grow_tree(X, y, schema)
    assert tree_predictions(leaf, np.array([0.5]))[0] == pytest.approx(y.mean())
    assert leaf.leaf_stats[0] == 4 and leaf.table.pred[0] == 3.0  # n and mean


def test_conflicting_duplicates_majority_leaf(two_cat_schema):
    X = np.array([[1.0, 1.0]] * 5)
    y = np.array([0, 1, 1, 0, 0])
    tree = grow_tree(X, y, two_cat_schema)
    assert tree_stats(tree)["leaf_count"] == 1
    assert tree_predictions(tree, X[0])[0] == 0  # majority


def test_majority_tie_goes_to_lowest_class(two_cat_schema):
    X = np.array([[1.0, 1.0]] * 4)
    y = np.array([1, 2, 2, 1])  # tie between classes 1 and 2
    schema = Schema(
        two_cat_schema.features,
        TargetSpec("label", "classification", classes=("a", "b", "c")),
    )
    tree = grow_tree(X, y, schema)
    assert tree_predictions(tree, X[0])[0] == 1


def test_split_admissibility_and_determinism():
    rng = np.random.default_rng(8)
    schema = random_mixed_schema(rng, n_num=2, n_cat=1)
    X = random_rows(rng, schema, 80)
    y = rng.integers(0, 3, size=80)
    sch = Schema(schema.features, TargetSpec("label", "classification",
                                             classes=("0", "1", "2")))
    t1 = grow_tree(X, y, sch)
    t2 = grow_tree(X, y, sch)
    _same_trees(t1, t2)

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
    tree = grow_tree(X, y, two_cat_schema)
    np.testing.assert_array_equal(tree_predictions(tree, X), y)


def test_tie_break_prefers_first_feature(two_cat_schema):
    # both features separate the labels equally well
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, two_cat_schema)
    assert tree.table.feat[0] == 0
    # and the lowest category index for equal-gain categories on one feature
    schema = Schema(
        (FeatureSpec("c", "categorical", categories=("x", "y")),),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    X2 = np.array([[0.0], [1.0]])
    tree2 = grow_tree(X2, np.array([0, 1]), schema)
    assert tree2.table.val[0] == 0.0


def test_numeric_threshold_is_midpoint():
    schema = Schema(
        (FeatureSpec("v", "numeric", range=(0.0, 10.0)),),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    X = np.array([[1.0], [3.0], [7.0], [9.0]])
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, schema)
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


def test_deep_tree_walks_without_recursion():
    ds = chain_dataset(1200)
    tree = grow_tree(ds.X, ds.y, ds.schema)
    assert tree_stats(tree) == reference_tree_stats(ds.X, ds.y, ds.schema)
    assert tree_stats(tree)["depth"] == 1199
    np.testing.assert_array_equal(tree_predictions(tree, ds.X), ds.y)
    assert len(decision_path(tree, ds.X[-1])) == 1199


def test_leaf_counts_sum_to_routed_rows(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    tree = grow_tree(X, y, two_cat_schema)
    sizes = _leaf_sizes(tree, X)

    leaf_totals = [int(tree.leaf_stats[node].sum()) for node in np.flatnonzero(tree.table.feat < 0)]
    assert leaf_totals == sizes  # leaves in preorder


def test_no_features_grows_one_leaf():
    schema = Schema((), TargetSpec("label", "classification", classes=("0", "1")))
    tree = grow_tree(np.empty((5, 0)), np.array([0, 1, 1, 0, 1]), schema)
    assert tree_stats(tree)["leaf_count"] == 1
    assert tree.leaf_stats.tolist() == [[2, 3]]


def test_errors():
    features = (FeatureSpec("v", "numeric", range=(0.0, 1.0)),)
    schema = Schema(features, TargetSpec("label", "classification", classes=("0", "1", "2")))
    with pytest.raises(ValueError, match="zero rows"):
        grow_tree(np.empty((0, 1)), np.empty(0, dtype=int), schema)
    with pytest.raises(ValueError, match="^1 rows but 2 labels$"):
        grow_tree(np.array([[0.1]]), np.array([1, 2]), schema)
    # the schema's target states the task: a schema without one grows nothing
    with pytest.raises(SchemaError, match="^growing a tree needs a schema whose target"):
        grow_tree(np.array([[0.1], [0.2]]), np.array([0, 1]), Schema(features))


@pytest.mark.parametrize("label", [2, -1])
def test_class_label_outside_the_classes_is_refused(two_cat_schema, label):
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 0, label, 1, 0])
    with pytest.raises(ValueError, match=rf"^class label {label} is outside 0\.\.1 for 2 classes$"):
        grow_tree(X, y, two_cat_schema)
    with pytest.raises(ValueError, match=rf"^class label {label} is outside"):
        cart.grow_trees(X, y, two_cat_schema, [np.arange(3)], [None])


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
        grow_tree(X, y, schema)
    # labels up to sqrt(max / rows) grow without a warning
    y = y / 3e200 * np.sqrt(np.finfo(float).max / 20)
    np.testing.assert_array_equal(tree_predictions(grow_tree(X, y, schema), X), y)


def _tied_data(rng, target, n=70):
    """Random mixed rows with repeated values, duplicated rows, and, for
    regression, labels of mixed magnitude that repeat: ties set the row order
    within a node, and that order sets how the MSE sums round."""
    n_classes = 2 if target == "regression" else int(target.split()[0])
    schema = random_mixed_schema(rng, n_num=int(rng.integers(1, 4)), n_cat=int(rng.integers(1, 4)),
                                 n_classes=n_classes)
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
    return schema, X, y


def _same_trees(a, b):
    for x, z in zip(a.table, b.table):
        assert x.dtype == z.dtype
        np.testing.assert_array_equal(x, z)
    assert a.leaf_stats.dtype == b.leaf_stats.dtype
    np.testing.assert_array_equal(a.leaf_stats, b.leaf_stats)


@pytest.mark.parametrize("seed", range(4))
# from 8 classes up numpy sums a row of squared shares pairwise, not in turn
@pytest.mark.parametrize("target", ["2 classes", "3 classes", "8 classes", "9 classes",
                                    "regression"])
def test_frontier_grower_equals_per_node_reference(target, seed):
    rng = np.random.default_rng(70 + seed)
    schema, X, y = _tied_data(rng, target)
    p = schema.n_features
    _same_trees(grow_tree(X, y, schema), reference_grow_tree(X, y, schema))
    # an explainer tree, then a forest tree's feature draws
    for draw in [None] + [(seed, width) for width in sorted({1, p - 1})]:
        args = X, y, schema, [np.arange(len(X))], [draw]
        tree, _, leaves = cart.grow_trees(*args)
        reference, _, ref_leaves = reference_grow(*args)
        _same_trees(tree, reference)
        # the depth and leaf count read off the table are the ones the per-node grower counts
        assert tree_stats(tree) == reference_tree_stats(X, y, schema, draw)
        np.testing.assert_array_equal(leaves, ref_leaves)
        np.testing.assert_array_equal(leaves, tree_leaves(tree, X))  # the leaf routing reaches


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("n_classes", [8, 9, 12])
def test_many_class_forest_equals_per_node_reference(n_classes, seed):
    # a few hundred rows of 8 or more classes give near-tied gains, and which
    # one wins follows the order the classes' squared shares add in
    rng = np.random.default_rng(200 + seed)
    schema = random_mixed_schema(rng, n_num=int(rng.integers(1, 4)), n_cat=int(rng.integers(1, 4)),
                                 n_classes=n_classes)
    n, p = 400, schema.n_features
    X = random_rows(rng, schema, n)
    y = rng.integers(0, n_classes, size=n)
    # an explainer tree, then bootstrap samples with feature draws
    samples = [np.arange(n)] + [rng.integers(0, n, size=n) for _ in range(12)]
    draws = [None] + [(t, 1 + t % p) for t in range(12)]
    args = X, y, schema, samples, draws
    tree, roots, leaves = cart.grow_trees(*args)
    reference, ref_roots, ref_leaves = reference_grow(*args)
    _same_trees(tree, reference)
    np.testing.assert_array_equal(roots, ref_roots)
    np.testing.assert_array_equal(leaves, ref_leaves)


@pytest.mark.parametrize("seed", range(2))
def test_regression_runs_of_equal_size_nodes_equal_per_node_reference(monkeypatch, seed):
    # 320 rows: the top nodes pass numpy's 128-label pairwise block; duplicated
    # rows and repeated labels, drawn again by bootstrap samples, give a step
    # many nodes of one size; half the labels are negative, so some internal
    # node's mean is, and some are -0.0, whose leaf mean numpy's sum makes +0.0
    rng = np.random.default_rng(150 + seed)
    schema, X, y = _tied_data(rng, "regression", n=320)
    y[rng.random(len(y)) < 0.5] *= -1.0
    y[rng.random(len(y)) < 0.05] = -0.0
    samples = [np.arange(len(X))] + [rng.integers(0, len(X), size=len(X)) for _ in range(3)]
    draws = [None, None, (seed, 1), (seed + 1, schema.n_features)]
    reference, ref_roots, ref_leaves = reference_grow(X, y, schema, samples, draws)
    for budget in (1, 1 << 50):  # one node per step, and a whole frontier per step
        monkeypatch.setattr(tabular, "WORK_BYTES", budget)
        tree, roots, leaves = cart.grow_trees(X, y, schema, samples, draws)
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
    schema, X, y = _tied_data(rng, "regression")
    few = rng.choice([0.1, 0.3, 1 / 3, 7e-3], size=len(X))
    for labels in (y, few, np.full(len(X), few[0])):
        args = X, labels, schema
        for tree in (grow_tree(*args), reference_grow_tree(*args)):
            for node, idx in _walk_sizes(tree, X):
                if not _is_leaf(tree, node):
                    assert labels[idx].min() < labels[idx].max()
    assert tree_stats(grow_tree(X, np.full(len(X), few[0]), schema))["leaf_count"] == 1


@pytest.mark.parametrize("target", ["2 classes", "regression"])
def test_large_finite_values_grow_the_reference_trees_without_warnings(target):
    # numeric values past the int64 range are not cast to keys, and the
    # midpoint of two values past half the float maximum overflows and falls
    # back to the left value; either would warn under -W error::RuntimeWarning
    rng = np.random.default_rng(40)
    schema, X, y = _tied_data(rng, target)
    big = np.finfo(float).max
    ranges = [(-1e20, 1e20), (1.0e308, 1.6e308), (-1.6e308, -1.0e308), (-big / 2, big / 2)]
    feats = list(schema.features)
    for j, f in enumerate(feats):
        if f.is_numeric:
            lo, hi = ranges[j % len(ranges)]
            feats[j] = FeatureSpec(f.name, "numeric", range=(lo, hi))
            X[:, j] = lo + (X[:, j] - f.range[0]) / (f.range[1] - f.range[0]) * (hi - lo)
            X[:, j] = X[:, j].clip(lo, hi)
    schema = Schema(tuple(feats), schema.target)
    samples = [np.arange(len(X)), rng.integers(0, len(X), size=len(X))]
    draws = [None, (1, schema.n_features)]
    with np.errstate(over="ignore"):  # the reference takes the same fallback
        reference, ref_roots, ref_leaves = reference_grow(X, y, schema, samples, draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, roots, leaves = cart.grow_trees(X, y, schema, samples, draws)
    _same_trees(tree, reference)
    np.testing.assert_array_equal(roots, ref_roots)
    np.testing.assert_array_equal(leaves, ref_leaves)
    assert np.isfinite(tree.table.val).all()


@pytest.mark.parametrize("target", ["2 classes", "3 classes", "8 classes", "9 classes",
                                    "regression"])
def test_trees_grown_together_equal_trees_grown_alone(monkeypatch, target):
    rng = np.random.default_rng(90)
    schema, X, y = _tied_data(rng, target)
    p = schema.n_features
    samples = [rng.integers(0, len(X), size=int(rng.integers(1, len(X)))) for _ in range(6)]
    # lone leaves first and last: a root that is a leaf, and the ends of the right chains
    samples = [np.zeros(3, np.int64)] + samples + [rng.integers(0, len(X), size=1)]
    # lockstep trees (drawing features) and level-by-level trees in one call
    draws = [(t, 1 + t % p) if t % 2 else None for t in range(len(samples))]
    together, roots, leaves = cart.grow_trees(X, y, schema, samples, draws)
    reference, ref_roots, ref_leaves = reference_grow(X, y, schema, samples, draws)
    _same_trees(together, reference)
    np.testing.assert_array_equal(roots, ref_roots)
    np.testing.assert_array_equal(leaves, ref_leaves)
    starts = np.cumsum([0] + [len(rows) for rows in samples])
    routed = cart.route(cart.route_plan(together, roots), X)
    for t, (rows, draw, cut) in enumerate(zip(samples, draws, cart.split_trees(together, roots))):
        alone, _, alone_leaves = cart.grow_trees(X, y, schema, [rows], [draw])
        _same_trees(cut, alone)  # its own ids
        assert tree_stats(cut) == reference_tree_stats(X[rows], y[rows], schema, draw)
        part = leaves[starts[t]:starts[t + 1]]
        np.testing.assert_array_equal(part, routed[t, rows])
        np.testing.assert_array_equal(part - roots[t], alone_leaves)
    for budget in (1, 1 << 50):  # one node per step, and a whole frontier per step
        monkeypatch.setattr(tabular, "WORK_BYTES", budget)
        _same_trees(cart.grow_trees(X, y, schema, samples, draws)[0], together)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("target", ["2 classes", "8 classes", "9 classes", "regression"])
def test_path_growth_reaches_the_whole_trees_leaf(monkeypatch, target, seed):
    """Trees grown along one kept sample row's root-to-leaf path give that
    row the whole tree's leaf: its prediction, leaf stats, rows and decision
    path. Every node off the path is a leaf, and no tree's kept leaf holds
    another tree's rows."""
    rng = np.random.default_rng(160 + seed)
    schema, X, y = _tied_data(rng, target)
    samples = [rng.integers(0, len(X), size=int(rng.integers(1, len(X)))) for _ in range(6)]
    samples.append(np.zeros(3, np.int64))  # one repeated row: the root is a leaf
    starts = np.cumsum([0] + [len(rows) for rows in samples])
    keep = starts[:-1] + [int(rng.integers(0, len(rows))) for rows in samples]
    kept = X[np.concatenate(samples)[keep]]
    draws = [None] * len(samples)
    whole, whole_roots, whole_leaves = cart.grow_trees(X, y, schema, samples, draws)
    reference, ref_roots, _ = reference_grow(X, y, schema, samples, draws)
    ref_leaf = reference_route(reference, ref_roots, kept).diagonal()
    for budget in (1, tabular.WORK_BYTES):  # one node per step, and a whole frontier per step
        monkeypatch.setattr(tabular, "WORK_BYTES", budget)
        path, roots, leaves = cart.grow_trees(X, y, schema, samples, draws, keep)
        leaf, whole_leaf = leaves[keep], whole_leaves[keep]
        # the per-row walk of the path-grown table reaches the leaf the grower reports
        np.testing.assert_array_equal(reference_route(path, roots, kept).diagonal(), leaf)
        np.testing.assert_array_equal(path.table.pred[leaf], reference.table.pred[ref_leaf])
        np.testing.assert_array_equal(path.table.pred[leaf], whole.table.pred[whole_leaf])
        np.testing.assert_array_equal(path.leaf_stats[leaf], whole.leaf_stats[whole_leaf])
        cuts = zip(cart.split_trees(path, roots), cart.split_trees(whole, whole_roots))
        for t, (cut, full) in enumerate(cuts):
            rows = (leaves == leaf[t]).nonzero()[0]
            np.testing.assert_array_equal(rows, (whole_leaves == whole_leaf[t]).nonzero()[0])
            assert starts[t] <= rows.min() and rows.max() < starts[t + 1]
            steps = decision_path(cut, kept[t])
            assert steps == decision_path(full, kept[t])
            node, inner = 0, []
            for *_, taken in steps:
                inner.append(node)
                node = node + 1 if taken else int(cut.table.right[node])
            assert node == leaf[t] - roots[t]
            np.testing.assert_array_equal((cut.table.feat >= 0).nonzero()[0], inner)
    assert (path.table.feat >= 0).sum() > len(samples)  # some paths go past their root


def test_path_growth_refuses_drawing_trees_and_foreign_positions(two_cat_schema):
    X, y = and_dataset(two_cat_schema)
    samples = [np.arange(4), np.arange(4)]
    for draws, keep in (([None, (0, 1)], [0, 4]), ([None, None], [0, 3]),
                        ([None, None], [4, 0]), ([None, None], [0])):
        with pytest.raises(ValueError, match="^keep names one sample position"):
            cart.grow_trees(X, y, two_cat_schema, samples, draws, keep)


def _choice_sets(seed, p, width, calls):
    """The feature sets successive Generator.choice calls draw from seed."""
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(p, size=width, replace=False)) for _ in range(calls)]


@pytest.mark.parametrize("p", list(range(1, 14)) + [17, 50, 101, 256, 400])
def test_feature_draws_replay_generator_choice(p):
    # the forest's width, the widths the grower tests draw, and the edges
    rng = np.random.default_rng(300 + p)
    widths = sorted({min(math.ceil(math.sqrt(p)), p), 1, 1 + 7 % p, p - 1, p})
    seeds = [0, 1, 2**32 - 1] + rng.integers(0, 2**32, size=5).tolist()
    draws = [None] + [(s, w) for w in widths for s in seeds]
    calls = 30
    want = [None] + [_choice_sets(s, p, w, calls) for s, w in draws[1:]]
    got = [[] for _ in draws]
    replay = cart._Draws(draws, p)
    # a random subset of the trees draws at a step, in a random order, so
    # each tree's place in its own stream is checked from call to call
    while any(len(g) < calls for g in got[1:]):
        trees = rng.permutation(len(draws))[:int(rng.integers(1, len(draws) + 1))]
        trees = np.array([t for t in trees if len(got[t]) < calls], np.int64)
        for t, row in zip(trees.tolist(), replay.candidates(trees)):
            assert row.shape == (p,)
            got[t].append(row.nonzero()[0])
    assert all(len(row) == p for row in got[0])  # a tree that draws none searches every feature
    for t in range(1, len(draws)):
        for a, b in zip(got[t], want[t]):
            np.testing.assert_array_equal(a, b)


def test_feature_draws_replay_lemire_rejections(monkeypatch):
    # a bound near 3e6 rejects a draw about 3.5e-4 of the time, so a call's
    # 2 * 1733 - 1 draws see about one rejection
    p, width, calls = 3_000_000, 1733, 3
    slow = []
    one = cart._Draws._one
    monkeypatch.setattr(cart._Draws, "_one", lambda self, r, w: slow.append(r) or one(self, r, w))
    replay = cart._Draws([(s, width) for s in range(3)], p)
    want = [_choice_sets(s, p, width, calls) for s in range(3)]
    for call in range(calls):
        for s, row in enumerate(replay.candidates(np.arange(3))):
            np.testing.assert_array_equal(row.nonzero()[0], want[s][call])
    assert len(slow) >= 3  # the one-value-at-a-time path ran


def _pcg64_state_first_word(word):
    """A PCG64 state whose next raw word is word. PCG64 steps its 128-bit
    LCG state s -> s * MULT + inc, then outputs the halves of s xor-ed and
    rotated right by the top 6 bits of s; a high half with those bits 0
    needs no rotation."""
    mult = (2549297995355413924 << 64) + 4865540595714422341
    inc = np.random.PCG64(0).state["state"]["inc"]
    high = 0x0123456789ABCDEF
    stepped = (high << 64) | (high ^ word)
    state = (stepped - inc) * pow(mult, -1, 2 ** 128) % 2 ** 128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


THIRD = pow(3, -1, 2 ** 32)  # 3 * THIRD = 1 mod 2**32


@pytest.mark.parametrize("low, high", [(0, THIRD), (THIRD, 0x9E3779B9), (2 * THIRD, 0x9E3779B9)])
def test_feature_draws_replay_lemire_threshold_exactly(monkeypatch, low, high):
    # p = 5, width 3: the first draw is bounded(2), whose threshold is
    # (2**32 - 3) mod 3 = 1. The first word's low half is the first 32-bit
    # draw u: u = 0 gives m mod 2**32 = 0, below it, and is drawn again from
    # the high half, where u = THIRD gives 1, the threshold itself, and is
    # taken; u = THIRD and 2 * THIRD first are taken at once
    slow = []
    one = cart._Draws._one
    monkeypatch.setattr(cart._Draws, "_one", lambda self, r, w: slow.append(r) or one(self, r, w))
    state = _pcg64_state_first_word((high << 32) | low)
    replay, rng = cart._Draws([(0, 3)], 5), np.random.Generator(np.random.PCG64())
    replay.gens[0].state = rng.bit_generator.state = state
    for _ in range(20):
        got = replay.candidates(np.zeros(1, np.int64))[0].nonzero()[0]
        np.testing.assert_array_equal(got, np.sort(rng.choice(5, size=3, replace=False)))
    assert len(slow) == (low == 0)


def test_feature_draw_widths_numpy_samples_otherwise_are_refused(two_cat_schema):
    # past p // 50 of p > 10000 features numpy shuffles partly, not by Floyd
    for p, width in [(10001, 201), (20000, 401)]:
        with pytest.raises(ValueError, match=rf"^cannot draw {width} of {p} features"):
            cart._Draws([None, (0, width)], p)
        replay = cart._Draws([(0, width - 1)], p)
        for want in _choice_sets(0, p, width - 1, 2):
            got = replay.candidates(np.zeros(1, np.int64))[0].nonzero()[0]
            np.testing.assert_array_equal(got, want)
    X, y = and_dataset(two_cat_schema)
    for width in (-1, 3):
        with pytest.raises(ValueError, match=rf"^cannot draw {width} of 2 features"):
            cart.grow_trees(X, y, two_cat_schema, [np.arange(4)], [(0, width)])


@pytest.mark.parametrize("target", ["2 classes", "3 classes", "regression"])
def test_route_equals_reference_walk(monkeypatch, target):
    rng = np.random.default_rng(130)
    schema, X, y = _tied_data(rng, target)
    p, num = schema.n_features, schema.numeric_mask()
    samples = [rng.integers(0, len(X), size=len(X)) for _ in range(5)]
    draws = [(t, 1 + t % p) if t % 2 else None for t in range(len(samples))]
    forest, roots, _ = cart.grow_trees(X, y, schema, samples, draws)
    constant, constant_roots, _ = cart.grow_trees(X, np.zeros_like(y), schema, samples, draws)
    assert (constant.table.feat < 0).all()
    # NaN numerics, and category codes outside the schema, which no split tests
    rows = np.vstack([X, random_rows(rng, schema, 30)])
    rows[(rng.random(rows.shape) < 0.2) & num] = np.nan
    odd = (rng.random(rows.shape) < 0.2) & ~num
    rows[odd] = rng.choice([-1.0, 7.0], size=odd.sum())
    # a first tree of one repeated row is a lone leaf: plan id 0, first -1
    lone, lone_roots, _ = cart.grow_trees(X, y, schema, [np.zeros(4, np.int64)] + samples[1:],
                                          draws)
    assert lone.table.feat[0] < 0 and (lone.table.feat[lone_roots[1:]] >= 0).all()
    assert cart.route_plan(lone, lone_roots).first[0] == -1
    chain = chain_dataset(1200)  # 1,199 levels: many times ROUTE_STEPS
    deep = grow_tree(chain.X, chain.y, chain.schema)
    deep_rows = np.vstack([chain.X, [[-3.0], [599.5], [np.nan], [1e9]]])
    cases = [(forest, roots, rows), (forest, roots[::-1], rows), (forest, roots[2:3], rows),
             (constant, constant_roots, rows), (lone, lone_roots, rows),
             (deep, np.zeros(1, dtype=np.int64), deep_rows)]
    for tree, tops, batch in cases:
        want = reference_route(tree, tops, batch)
        plan = cart.route_plan(tree, tops)
        # 32 B per node, and the widening tables, which have a column per tested category
        widening = plan.cat_feat.nbytes + plan.cat_val.nbytes
        assert sum(a.nbytes for a in plan if isinstance(a, np.ndarray)) <= (
            32 * len(tree.table.feat) + widening)
        with _deadline(60):
            np.testing.assert_array_equal(cart.route(plan, batch), want)
            np.testing.assert_array_equal(cart.route(plan, batch[:0]), want[:, :0])
            for steps in (1, 3):  # drops after every step or every few
                monkeypatch.setattr(cart, "ROUTE_STEPS", steps)
                np.testing.assert_array_equal(cart.route(plan, batch), want)
        monkeypatch.undo()
    for bad in ([-1], [0, len(forest.table.feat)]):
        with pytest.raises(ValueError, match=r"^root ids must lie in 0\.\."):
            cart.route_plan(forest, bad)


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
