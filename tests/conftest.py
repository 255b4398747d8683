import numpy as np
import pytest

from araucana import cart
from araucana.tabular import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    FeatureSpec,
    Schema,
    TargetSpec,
)


@pytest.fixture
def age_sex_schema():
    return Schema(
        (
            FeatureSpec("age", "numeric", range=(0.0, 100.0)),
            FeatureSpec("sex", "categorical", categories=("M", "F")),
        ),
        TargetSpec("label", CLASSIFICATION, classes=("0", "1")),
    )


@pytest.fixture
def two_cat_schema():
    return Schema(
        (
            FeatureSpec("a", "categorical", categories=("0", "1")),
            FeatureSpec("b", "categorical", categories=("0", "1")),
        ),
        TargetSpec("label", CLASSIFICATION, classes=("0", "1")),
    )


def random_mixed_schema(rng, n_num=None, n_cat=None, n_classes=2):
    """A schema with random feature kinds, ranges, and category sizes."""
    if n_num is None:
        n_num = int(rng.integers(0, 4))
    if n_cat is None:
        n_cat = int(rng.integers(0, 4))
    if n_num + n_cat == 0:
        n_num = 1
    feats = []
    for i in range(n_num):
        lo = float(rng.uniform(-5, 5))
        hi = lo + float(rng.uniform(0, 10))
        feats.append(FeatureSpec(f"n{i}", "numeric", range=(lo, hi)))
    for i in range(n_cat):
        size = int(rng.integers(2, 5))
        feats.append(
            FeatureSpec(f"c{i}", "categorical", categories=tuple(f"v{k}" for k in range(size)))
        )
    target = TargetSpec("label", CLASSIFICATION, classes=tuple(str(k) for k in range(n_classes)))
    return Schema(tuple(feats), target)


def random_rows(rng, schema, n):
    """Rows conforming to schema; numerics uniform in the schema range."""
    X = np.empty((n, schema.n_features))
    for i, f in enumerate(schema.features):
        if f.is_numeric:
            lo, hi = f.range
            X[:, i] = rng.uniform(lo, hi, size=n)
        else:
            X[:, i] = rng.integers(0, len(f.categories), size=n)
    return X


# floats whose text a decoder could lose: a signed zero, the smallest
# subnormal, the largest float, whole values and one with no short binary form
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               3.0, -7.0, 0.1)


def reference_decode_row(schema, row):
    """One encoded row's display values, value by value: the reference that
    Schema.decode_rows is checked against."""
    return [float(v) if f.is_numeric else f.categories[int(v)]
            for f, v in zip(schema.features, row)]


def random_decode_case(rng):
    """A schema of 0-4 features of random kinds, a categorical one with 1-3
    categories (named with a quote and a non-ASCII letter among them), and
    0-29 rows of it whose numeric cells are edge floats half of the time."""
    feats = []
    for i in range(int(rng.integers(0, 5))):
        if rng.random() < 0.5:
            feats.append(FeatureSpec(f"n{i}", "numeric", range=(0.0, 1.0)))
        else:
            names = ("v0", 'q"1', "\u00e92")[:int(rng.integers(1, 4))]
            feats.append(FeatureSpec(f"c{i}", "categorical", categories=names))
    schema = Schema(tuple(feats), TargetSpec("label", CLASSIFICATION, classes=("0", "1")))
    X = random_rows(rng, schema, int(rng.integers(0, 30)))
    for j, f in enumerate(schema.features):
        if f.is_numeric:
            edge = rng.random(len(X)) < 0.5
            X[edge, j] = rng.choice(EDGE_FLOATS, size=int(edge.sum()))
    return schema, X


def out_of_range(rng, schema, X):
    """X with about a third of its numeric cells moved outside the schema range."""
    X = X.copy()
    for j, f in enumerate(schema.features):
        if f.is_numeric:
            lo, hi = f.range
            far = rng.random(len(X)) < 1 / 3
            X[far, j] = np.where(rng.random(far.sum()) < 0.5, lo - 1 - 5 * rng.random(far.sum()),
                                 hi + 1 + 5 * rng.random(far.sum()))
    return X


def random_scaling_case(rng, n_max=40):
    """A random mixed schema with 0-4 numeric features, each constant (equal
    range ends) with probability 1/3, and 0 to n_max rows of it with about a
    third of the numeric cells past either range end."""
    schema = random_mixed_schema(rng, n_num=int(rng.integers(0, 5)))
    feats = tuple(FeatureSpec(f.name, "numeric", range=(f.range[0], f.range[0]))
                  if f.is_numeric and rng.random() < 1 / 3 else f for f in schema.features)
    schema = Schema(feats, schema.target)
    X = random_rows(rng, schema, int(rng.integers(0, n_max + 1)))
    return schema, out_of_range(rng, schema, X)


def make_dataset(rng, schema, n):
    X = random_rows(rng, schema, n)
    if schema.target is None or schema.target.kind == REGRESSION:
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, len(schema.target.classes), size=n)
    return Dataset(schema, X, y)


def chain_dataset(n=1200):
    """v = 0..n-1 with alternating labels: CART grows a chain n - 1 levels deep."""
    schema = Schema(
        (FeatureSpec("v", "numeric", range=(0.0, float(n - 1))),),
        TargetSpec("label", CLASSIFICATION, classes=("0", "1")),
    )
    return Dataset(schema, np.arange(n, dtype=float).reshape(-1, 1), np.arange(n) % 2)


def grow_tree(X, y, schema):
    """One explainer tree grown on every row of X by cart.grow_trees, under
    the task and classes of the schema's target."""
    return cart.grow_trees(X, y, schema, [np.arange(len(y))], [None])[0]


def tree_leaves(tree, rows):
    """The leaf each row reaches from the root of a one-tree table."""
    return cart.route(cart.route_plan(tree, [0]), np.atleast_2d(rows))[0]


def tree_predictions(tree, rows):
    """The tree's prediction for each row: its leaf's pred (a class index or a value)."""
    return tree.table.pred[tree_leaves(tree, rows)]
