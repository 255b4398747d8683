import warnings

import numpy as np
import pytest

from araucana import tabular
from araucana.smote import (
    SmoteConfig,
    _class_neighbor_order,
    _mismatch_penalty,
    smote_nc,
)
from araucana.tabular import FeatureSpec, Schema, TargetSpec

from conftest import random_mixed_schema, random_rows
from reference_smote import mismatch_penalty, neighbor_order, smote_nc as reference_smote_nc


def mixed_schema():
    return Schema(
        (
            FeatureSpec("num", "numeric", range=(0.0, 10.0)),
            FeatureSpec("cat", "categorical", categories=("A", "B")),
        ),
        TargetSpec("label", "classification", classes=("0", "1")),
    )


def test_two_member_minority_segment_and_unanimous_category():
    schema = mixed_schema()
    rows = np.array([[2.0, 0.0], [4.0, 0.0], [1.0, 1.0], [5.0, 1.0], [7.0, 1.0], [9.0, 1.0]])
    labels = np.array([0, 0, 1, 1, 1, 1])
    syn, syn_y, notes = smote_nc(rows, labels, schema, SmoteConfig(k_neighbors=1, seed=4))
    assert notes == []
    assert len(syn) == 2  # 4 - 2
    assert (syn_y == 0).all()
    assert ((syn[:, 0] >= 2.0) & (syn[:, 0] <= 4.0)).all()
    assert (syn[:, 1] == 0.0).all()  # cat A everywhere


def test_balanced_classes_yield_nothing():
    schema = mixed_schema()
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [4.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    syn, syn_y, notes = smote_nc(rows, labels, schema, SmoteConfig(seed=1))
    assert len(syn) == 0 and len(syn_y) == 0 and notes == []


def test_minority_of_three_numeric_brute_force():
    """Oracle: every synthetic value must lie on some seed-neighbor segment."""
    schema = Schema(
        (FeatureSpec("v", "numeric", range=(0.0, 100.0)),),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    minority = [3.0, 10.0, 40.0]
    rows = np.array([[v] for v in minority] + [[50.0 + i] for i in range(9)])
    labels = np.array([0, 0, 0] + [1] * 9)
    segments = [
        (min(a, b), max(a, b)) for i, a in enumerate(minority) for b in minority[i + 1:]
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the note is returned, not warned
        syn, _, notes = smote_nc(rows, labels, schema, SmoteConfig(k_neighbors=5, seed=9))
    assert notes == ["class 0: k_neighbors reduced to 2 (class size 3)"]
    assert len(syn) == 6
    for v in syn[:, 0]:
        assert any(lo <= v <= hi for lo, hi in segments)
        assert min(minority) <= v <= max(minority)


def test_class_neighbors_are_stable_argsort_prefix_without_self():
    # duplicates at distance 0 with a lower index come before the row itself
    schema = Schema((FeatureSpec("v", "numeric", range=(0.0, 10.0)),),
                    TargetSpec("label", "classification", classes=("0", "1")))
    rows = np.array([[5.0], [5.0], [5.1], [5.0]])
    assert _class_neighbor_order(rows, schema, np.arange(4), 3)[1].tolist() == [0, 3, 2]
    rng = np.random.default_rng(23)
    for _ in range(200):
        schema = random_mixed_schema(rng)
        n = int(rng.integers(2, 25))
        rows = random_rows(rng, schema, n)
        few = rng.random(n) < 0.5  # duplicated rows: distance ties
        rows[few] = rows[rng.integers(0, min(3, n), size=few.sum())]
        members = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        want = neighbor_order(rows, schema, members)
        for k in range(1, len(members)):
            np.testing.assert_array_equal(_class_neighbor_order(rows, schema, members, k),
                                          want[:, :k])


def test_class_neighbors_in_blocks_of_one_and_three_rows(monkeypatch):
    # a block holds tabular.WORK_BYTES // (8 m) member rows, at least one
    rng = np.random.default_rng(29)
    for trial in range(60):
        n_num = 10 if trial % 3 == 0 else None  # ten numerics: numpy's pairwise sums
        schema = random_mixed_schema(rng, n_num=n_num)
        n = int(rng.integers(2, 30))
        rows = random_rows(rng, schema, n)
        rows[rng.random(n) < 0.3] = rows[0]
        members = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        norm = schema.scaled_numeric(rows[members])
        assert _mismatch_penalty(norm) == mismatch_penalty(norm)
        want = neighbor_order(rows, schema, members)
        k = int(rng.integers(1, len(members)))
        for block_rows in (1, 3):
            monkeypatch.setattr(tabular, "WORK_BYTES", 8 * block_rows * len(members))
            np.testing.assert_array_equal(_class_neighbor_order(rows, schema, members, k),
                                          want[:, :k])


def _assert_as_reference(rows, labels, schema, cfg):
    got = smote_nc(rows, labels, schema, cfg)
    want = reference_smote_nc(rows, labels, schema, cfg.k_neighbors, cfg.fixed_total, cfg.seed)
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    return got


def test_array_passes_equal_the_per_row_loop():
    rng = np.random.default_rng(31)
    seen = {"skip": 0, "reduced": 0, "synthetic": 0}
    for trial in range(240):
        kind = trial % 4  # mixed, no numeric, no categorical, and ten numerics
        schema = random_mixed_schema(rng, n_num=(None, 0, None, 10)[kind],
                                     n_cat=(None, None, 0, None)[kind],
                                     n_classes=int(rng.integers(2, 4)))
        n = int(rng.integers(1, 40))
        rows = random_rows(rng, schema, n)
        dup = rng.random(n) < 0.3  # duplicated rows: distance ties
        rows[dup] = rows[rng.integers(0, min(3, n), size=dup.sum())]
        for j, f in enumerate(schema.features):
            if not f.is_numeric and trial % 2:  # codes that skip values: only 0 and the last
                rows[:, j] = np.where(rows[:, j] > 0, len(f.categories) - 1, 0)
        labels = rng.choice(len(schema.target.classes), size=n,
                            p=rng.dirichlet(np.ones(len(schema.target.classes))))
        sizes = np.bincount(labels)
        # no total, 0, past the majority, and one class's size: that class is at its total
        total = (None, 0, int(sizes.max() + rng.integers(1, 20)),
                 int(rng.choice(sizes[sizes > 0])))[trial % 4]
        cfg = SmoteConfig(k_neighbors=int(rng.integers(1, 7)), fixed_total=total,
                          seed=int(rng.integers(1e6)))
        _, syn_y, notes = _assert_as_reference(rows, labels, schema, cfg)
        seen["skip"] += any("skipping" in note for note in notes)
        seen["reduced"] += any("reduced" in note for note in notes)
        seen["synthetic"] += len(syn_y) > 0
    assert min(seen.values()) >= 10, seen  # every branch ran


def test_categorical_value_closure_under_neighbors():
    """Synthetic categories come from the seed's k nearest same-class neighbors."""
    schema = Schema(
        (
            FeatureSpec("num", "numeric", range=(0.0, 10.0)),
            FeatureSpec("cat", "categorical", categories=("A", "B", "C")),
        ),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    # minority clustered at num ~ 1 with cats A/A/B; the C row sits far away
    rows = np.array(
        [[1.0, 0.0], [1.1, 0.0], [0.9, 1.0], [9.0, 2.0]] + [[5.0 + i, 0.0] for i in range(8)]
    )
    labels = np.array([0, 0, 0, 0] + [1] * 8)
    syn, _, _ = smote_nc(rows, labels, schema, SmoteConfig(k_neighbors=2, seed=2))
    # k=2 neighborhoods of the clustered seeds never include the C outlier
    assert set(np.unique(syn[:, 1])) <= {0.0, 1.0}


def test_label_purity_and_exact_balance_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        schema = random_mixed_schema(rng, n_classes=int(rng.integers(2, 4)))
        n = int(rng.integers(12, 40))
        rows = random_rows(rng, schema, n)
        labels = rng.integers(0, len(schema.target.classes), size=n)
        # ensure every class exists with >= 2 members
        labels[:2] = 0
        labels[2:4] = 1
        cfg = SmoteConfig(k_neighbors=int(rng.integers(1, 6)), seed=int(rng.integers(1e6)))
        counts = np.bincount(labels, minlength=len(schema.target.classes))
        if (counts == 1).any():
            continue
        syn, syn_y, notes = smote_nc(rows, labels, schema, cfg)
        # a class that is oversampled with fewer rows than k + 1 draws from all the others
        assert notes == [f"class {c}: k_neighbors reduced to {n - 1} (class size {n})"
                         for c, n in enumerate(counts.tolist())
                         if 0 < n < counts.max() and n <= cfg.k_neighbors]
        after = counts + np.bincount(syn_y, minlength=len(counts))
        present = counts > 0
        assert (after[present] == counts.max()).all()
        # determinism
        syn2, syn_y2, _ = smote_nc(rows, labels, schema, cfg)
        np.testing.assert_array_equal(syn, syn2)
        np.testing.assert_array_equal(syn_y, syn_y2)


def test_singleton_class_skipped_with_note():
    schema = mixed_schema()
    rows = np.array([[1.0, 0.0], [5.0, 1.0], [6.0, 1.0], [7.0, 1.0]])
    labels = np.array([0, 1, 1, 1])
    syn, syn_y, notes = smote_nc(rows, labels, schema, SmoteConfig(seed=0))
    assert notes == ["class 0 has 1 row(s); skipping oversampling"]
    assert len(syn) == 0


def test_fixed_total_policy():
    schema = mixed_schema()
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [4.0, 1.0], [5.0, 1.0]])
    labels = np.array([0, 0, 1, 1, 1])
    cfg = SmoteConfig(k_neighbors=1, fixed_total=6, seed=3)
    syn, syn_y, _ = smote_nc(rows, labels, schema, cfg)
    after = np.bincount(labels, minlength=2) + np.bincount(syn_y, minlength=2)
    assert after.tolist() == [6, 6]


def test_regression_labels_rejected():
    schema = mixed_schema()
    rows = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="integer class labels"):
        smote_nc(rows, np.array([0.5, 1.5]), schema, SmoteConfig(seed=0))


def test_all_categorical_penalty_is_defined():
    schema = Schema(
        (
            FeatureSpec("c0", "categorical", categories=("x", "y")),
            FeatureSpec("c1", "categorical", categories=("u", "v")),
        ),
        TargetSpec("label", "classification", classes=("0", "1")),
    )
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1, 1, 1])
    syn, syn_y, _ = smote_nc(rows, labels, schema, SmoteConfig(k_neighbors=1, seed=1))
    assert len(syn) == 2
    for v in syn.ravel():
        assert v in (0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ValueError):
        SmoteConfig(fixed_total=-1)
