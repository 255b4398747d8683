import numpy as np
import pytest

from araucana import tabular
from araucana.gower import distance, distances_many, majority_vote, nearest
from araucana.tabular import FeatureSpec, Schema, SchemaError

from conftest import out_of_range, random_mixed_schema, random_rows


def test_identity(age_sex_schema):
    a = np.array([30.0, 0.0])
    assert distance(age_sex_schema, a, a) == 0.0


def test_hand_computed_age_sex_case(age_sex_schema):
    # (|30-50|/100 + 1) / 2 = 0.6
    d = distance(age_sex_schema, np.array([30.0, 0.0]), np.array([50.0, 1.0]))
    assert abs(d - 0.6) <= 1e-12


def test_all_categorical_maximal():
    schema = Schema(
        (
            FeatureSpec("a", "categorical", categories=("x", "y")),
            FeatureSpec("b", "categorical", categories=("u", "v", "w")),
        )
    )
    assert distance(schema, np.array([0.0, 0.0]), np.array([1.0, 2.0])) == 1.0


def test_constant_numeric_contributes_zero():
    schema = Schema(
        (
            FeatureSpec("c", "numeric", range=(3.0, 3.0)),
            FeatureSpec("a", "numeric", range=(0.0, 10.0)),
        )
    )
    d = distance(schema, np.array([3.0, 0.0]), np.array([3.0, 5.0]))
    assert abs(d - 0.25) <= 1e-12  # (0 + 0.5) / 2


def test_out_of_range_values_clamped(age_sex_schema):
    # 1e6 clamps to 100, so the numeric part is |0-100|/100 = 1
    d = distance(age_sex_schema, np.array([0.0, 0.0]), np.array([1e6, 0.0]))
    assert abs(d - 0.5) <= 1e-12


def test_symmetry_range_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        schema = random_mixed_schema(rng)
        rows = random_rows(rng, schema, 40)
        for _ in range(10):
            i, j = rng.integers(0, len(rows), size=2)
            a, b = rows[i], rows[j]
            d_ab = distance(schema, a, b)
            d_ba = distance(schema, b, a)
            assert d_ab == d_ba
            assert -1e-12 <= d_ab <= 1 + 1e-12
            assert distance(schema, a, a) == 0.0


def test_monotone_in_single_numeric_gap(age_sex_schema):
    base = np.array([10.0, 1.0])
    last = -1.0
    for age in np.linspace(10, 100, 13):
        d = distance(age_sex_schema, base, np.array([age, 1.0]))
        assert d >= last - 1e-15
        last = d


def test_one_query_distances_match_distance_and_edges(age_sex_schema):
    rng = np.random.default_rng(7)
    x = np.array([40.0, 0.0])
    rows = np.column_stack([rng.uniform(0, 100, 20), rng.integers(0, 2, 20).astype(float)])
    batch = distances_many(age_sex_schema, x[None], rows)[0]
    loop = [distance(age_sex_schema, x, r) for r in rows]
    np.testing.assert_allclose(batch, loop, rtol=0, atol=0)
    assert distances_many(age_sex_schema, x[None], np.empty((0, 2))).tolist() == [[]]
    np.testing.assert_array_equal(distances_many(age_sex_schema, x[None], x[None]), [[0.0]])


def test_validation_errors(age_sex_schema):
    with pytest.raises(SchemaError):
        distance(age_sex_schema, np.array([30.0, 9.0]), np.array([30.0, 0.0]))


def _formula_distances(schema, x, rows):
    """One query against all rows with out-of-place arithmetic: the unchunked
    formula, with the ranges read off the feature specs and a constant
    feature's term zeroed explicitly."""
    num = np.array([f.is_numeric for f in schema.features], dtype=bool)
    lo, hi = np.array([f.range for f in schema.features if f.is_numeric]).reshape(-1, 2).T
    xn = np.clip(x[num], lo, hi)
    rn = np.clip(rows[:, num], lo, hi)
    num_diff = np.abs(rn - xn) / np.where(hi > lo, hi - lo, 1.0) * (hi > lo)
    cat_diff = rows[:, ~num] != x[~num]
    return (num_diff.sum(axis=1) + cat_diff.sum(axis=1)) / schema.n_features


def _with_constant_features(rng, schema):
    """schema plus 1-2 constant numeric features at random positions."""
    feats = list(schema.features)
    for i in range(int(rng.integers(1, 3))):
        v = float(rng.uniform(-3, 3))
        feats.insert(int(rng.integers(0, len(feats) + 1)),
                     FeatureSpec(f"const{i}", "numeric", range=(v, v)))
    return Schema(tuple(feats), schema.target)


# the ids name the metric, Gower
@pytest.mark.parametrize("budget", [1, 2**40], ids=lambda budget: f"gower-{budget}")
def test_distances_many_rows_equal_one_query_calls(monkeypatch, budget):
    # budget=1: one query per chunk; budget=2**40: the whole batch in one chunk
    monkeypatch.setattr(tabular, "WORK_BYTES", budget)
    rng = np.random.default_rng(23)
    for _ in range(30):
        schema = _with_constant_features(rng, random_mixed_schema(rng))
        rows = out_of_range(rng, schema, random_rows(rng, schema, int(rng.integers(1, 40))))
        X = out_of_range(rng, schema, random_rows(rng, schema, int(rng.integers(0, 12))))
        X[: len(X) // 2] = rows[rng.integers(0, len(rows), len(X) // 2)]
        block = distances_many(schema, X, rows)
        assert block.shape == (len(X), len(rows))
        for i, x in enumerate(X):
            assert block[i].tobytes() == distances_many(schema, x[None], rows)[0].tobytes()
            assert block[i].tobytes() == _formula_distances(schema, x, rows).tobytes()


def test_majority_vote_takes_the_most_named_value_ties_to_the_lowest():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n_values = int(rng.integers(1, 5))
        votes = rng.integers(0, n_values, size=(int(rng.integers(0, 6)), int(rng.integers(1, 6))))
        want = [max(range(n_values), key=lambda v: (list(row).count(v), -v)) for row in votes]
        np.testing.assert_array_equal(majority_vote(votes, n_values), np.array(want, dtype=int))


def test_nearest_is_stable_argsort_prefix():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        # few distinct values: many exact ties, also across the k-th distance
        d = rng.integers(0, int(rng.integers(1, 6)), size=(int(rng.integers(0, 6)), n)) / 4
        for k in (1, 2, n // 2 + 1, n, n + 3):
            want = np.argsort(d, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(nearest(d, k), want)
            if len(d):
                np.testing.assert_array_equal(nearest(d[0], k), want[0])
