"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight scenarios (1 and 2) drive the CLI end to end at the stated
sizes and must finish well inside their runtime budgets.
"""

import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from araucana.cli import main
from araucana.explain import ExplainConfig, explain_instance
from araucana.gower import distance
from araucana.oracle import BuiltinOracle, ForestConfig, train_forest, train_knn
from araucana.smote import SmoteConfig, smote_nc
from araucana.tabular import (
    Dataset,
    FeatureSpec,
    Schema,
    SynthSpec,
    TargetSpec,
    synth_dataset,
)

from conftest import grow_tree, random_mixed_schema, random_rows, tree_predictions

STUB = Path(__file__).parent / "stub_oracle.py"


def run_cli(args):
    return main([str(a) for a in args])


def report_passed(n, message):
    print(f"[PASS] criterion {n}: {message}")


def read_summary(out_dir):
    lines = (Path(out_dir) / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_1_perfect_fidelity_scaled(tmp_path):
    started = time.monotonic()
    data_dir = tmp_path / "data"
    assert run_cli(["synth", "--gen", "imbalanced_mixed", "--rows", 2400,
                    "--minority-frac", 0.14, "--seed", 42, "--out", data_dir]) == 0
    ds_rows = np.loadtxt(data_dir / "data.csv", delimiter=",", skiprows=1,
                         usecols=range(4), dtype=float)
    assert len(np.unique(ds_rows, axis=0)) == len(ds_rows)  # unique feature vectors

    out = tmp_path / "eval"
    code = run_cli(["evaluate", "--data", data_dir / "data.csv",
                    "--schema", data_dir / "schema.json",
                    "--oracle", "builtin:forest",
                    "--test-frac", 400 / 2400,
                    "--explainers", "araucana",
                    "--seed", 42, "--out", out])
    assert code == 0
    (summary,) = read_summary(out)
    assert summary["total"] == "400"
    assert summary["agreements"] == "400"
    assert float(summary["fidelity"]) == 1.0  # exact
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report_passed(1, f"fidelity 1.0 on 400/2000 imbalanced_mixed in {elapsed:.0f}s")


def test_criterion_2_tree_vs_linear_gap(tmp_path):
    started = time.monotonic()
    data_dir = tmp_path / "data"
    assert run_cli(["synth", "--gen", "xor_mixed", "--rows", 1200,
                    "--seed", 7, "--out", data_dir]) == 0
    out = tmp_path / "eval"
    code = run_cli(["evaluate", "--data", data_dir / "data.csv",
                    "--schema", data_dir / "schema.json",
                    "--oracle", "builtin:forest",
                    "--test-frac", 200 / 1200,
                    "--explainers", "araucana,linear",
                    "--seed", 7, "--out", out])
    assert code == 0
    fid = {s["explainer"]: float(s["fidelity"]) for s in read_summary(out)}
    assert fid["araucana"] == 1.0
    assert fid["araucana"] - fid["linear"] >= 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report_passed(
        2, f"araucana {fid['araucana']:.3f} vs linear {fid['linear']:.3f} in {elapsed:.0f}s"
    )


def test_criterion_3_fidelity_property_200_pairs():
    rng = np.random.default_rng(2024)
    checked = 0
    violations = []
    for gen, oracle_kind, ds_seed in itertools.product(
        ("xor_mixed", "moons2d", "imbalanced_mixed"), ("forest", "knn"), (11, 23)
    ):
        ds = synth_dataset(SynthSpec(gen, 150), seed=ds_seed)
        if oracle_kind == "forest":
            oracle = BuiltinOracle(train_forest(ds, ForestConfig(n_trees=15, seed=ds_seed)))
        else:
            oracle = BuiltinOracle(train_knn(ds, k=5))
        probes = synth_dataset(SynthSpec(gen, 150), seed=ds_seed + 1000)
        for i in rng.integers(0, 150, size=17):
            x = probes.X[i]
            cfg = ExplainConfig(
                n_neighbors=40, smote=SmoteConfig(seed=int(i)), seed=int(i)
            )
            expl = explain_instance(ds, x, oracle, cfg)
            dup = (expl.explainer_set.X == x).all(axis=1)
            labels = set(expl.explainer_set.y[dup].tolist())
            unique = len(labels) <= 1
            checked += 1
            if unique and not expl.faithful:
                violations.append((gen, oracle_kind, ds_seed, int(i)))
    assert checked >= 200
    assert violations == []
    report_passed(3, f"faithful on all {checked} unique-query (dataset, query) pairs")


def _binary_cat_schema(p):
    feats = tuple(
        FeatureSpec(f"b{i}", "categorical", categories=("f", "t")) for i in range(p)
    )
    return Schema(feats, TargetSpec("label", "classification", classes=("0", "1")))


def test_criterion_4_cart_oracle_equivalence_exhaustive():
    total = 0
    for p in (1, 2, 3):
        schema = _binary_cat_schema(p)
        vertices = np.array(list(itertools.product((0.0, 1.0), repeat=p)))
        n_vertices = len(vertices)
        # independent oracle: all boolean function tables on the p-cube
        tables = np.array(list(itertools.product((0, 1), repeat=n_vertices)))
        for subset_bits in range(1, 2**n_vertices):
            members = [v for v in range(n_vertices) if subset_bits >> v & 1]
            X = vertices[members]
            for labeling in itertools.product((0, 1), repeat=len(members)):
                y = np.array(labeling)
                best = (tables[:, members] != y).sum(axis=1).min()
                tree = grow_tree(X, y, schema)
                err = int((tree_predictions(tree, X) != y).sum())
                assert best == 0  # consistent labels are always realizable
                assert err == best, f"p={p} subset={subset_bits} labels={labeling}"
                total += 1
    report_passed(4, f"zero training error on all {total} enumerable datasets")


def test_criterion_5_gower_suite():
    # hand-computed case first
    schema = Schema(
        (
            FeatureSpec("age", "numeric", range=(0.0, 100.0)),
            FeatureSpec("sex", "categorical", categories=("M", "F")),
        )
    )
    hand = distance(schema, np.array([30.0, 0.0]), np.array([50.0, 1.0]))
    assert abs(hand - 0.6) <= 1e-12

    rng = np.random.default_rng(99)
    pairs = 0
    while pairs < 1000:
        sch = random_mixed_schema(rng)
        rows = random_rows(rng, sch, 50)
        for _ in range(25):
            i, j = rng.integers(0, 50, size=2)
            a, b = rows[i], rows[j]
            d_ab = distance(sch, a, b)
            assert abs(d_ab - distance(sch, b, a)) <= 1e-12
            assert -1e-12 <= d_ab <= 1.0 + 1e-12
            assert distance(sch, a, a) <= 1e-12
            pairs += 1
    report_passed(5, f"symmetry/range/identity over {pairs} pairs, hand case 0.6")


def test_criterion_6_smote_property_suite():
    rng = np.random.default_rng(77)
    configs = 0
    while configs < 100:
        schema = random_mixed_schema(rng, n_classes=int(rng.integers(2, 4)))
        n = int(rng.integers(14, 50))
        rows = random_rows(rng, schema, n)
        labels = rng.integers(0, len(schema.target.classes), size=n)
        counts = np.bincount(labels, minlength=len(schema.target.classes))
        if (counts == 1).any() or (counts == 0).any():
            continue
        cfg = SmoteConfig(k_neighbors=int(rng.integers(1, 7)), seed=int(rng.integers(1e9)))
        syn, syn_y, notes = smote_nc(rows, labels, schema, cfg)
        num = schema.numeric_mask()
        for cls in np.unique(labels):
            cls_rows = rows[labels == cls]
            mine = syn[syn_y == cls]
            if len(mine) == 0:
                continue
            # numeric convexity within the class bounding box
            assert (mine[:, num] >= cls_rows[:, num].min(axis=0) - 1e-12).all()
            assert (mine[:, num] <= cls_rows[:, num].max(axis=0) + 1e-12).all()
            # categorical closure within the class's observed values
            for j in np.flatnonzero(~num):
                assert set(mine[:, j]) <= set(cls_rows[:, j])
        # exact balance
        after = counts + np.bincount(syn_y, minlength=len(counts))
        assert (after == counts.max()).all()
        # determinism
        syn2, syn_y2, notes2 = smote_nc(rows, labels, schema, cfg)
        assert np.array_equal(syn, syn2) and np.array_equal(syn_y, syn_y2) and notes == notes2
        configs += 1
    report_passed(6, f"convexity/closure/purity/balance/determinism over {configs} configs")


def test_criterion_7_regression_mode():
    base = synth_dataset(SynthSpec("imbalanced_mixed", 400), seed=31)
    schema = Schema(base.schema.features, TargetSpec("target", "regression"))
    y = base.X[:, 0] * np.sin(base.X[:, 1]) + 0.5 * base.X[:, 2] ** 2 + base.X[:, 3]
    train = Dataset(schema, base.X, y)
    oracle = BuiltinOracle(train_forest(train, ForestConfig(n_trees=30, seed=8)))

    probes = synth_dataset(SynthSpec("imbalanced_mixed", 400), seed=32)
    rng = np.random.default_rng(4)
    checked = 0
    for i in rng.integers(0, 400, size=100):
        x = probes.X[i]
        cfg = ExplainConfig(n_neighbors=50, seed=int(i))
        expl = explain_instance(train, x, oracle, cfg)
        assert expl.config["smote"] == "off (regression task)"
        dup = (expl.explainer_set.X == x).all(axis=1)
        if len(np.unique(expl.explainer_set.y[dup])) > 1:
            continue
        pred = tree_predictions(expl.tree, x)[0]
        want = float(expl.oracle_label)
        eps = 1e-6 * abs(want) + 1e-9
        assert abs(pred - want) <= eps
        assert expl.faithful
        checked += 1
    assert checked == 100
    report_passed(7, f"regression tree matches the oracle within epsilon on {checked} queries")


def test_criterion_8_subprocess_conformance(tmp_path, capsys):
    from araucana.oracle import SubprocessOracle

    ds = synth_dataset(SynthSpec("moons2d", 30), seed=3)
    oracle = SubprocessOracle(
        f"{sys.executable} {STUB} --mode threshold --value 0.8",
        ds.schema, "classification",
    )
    try:
        batch = oracle.predict_batch(ds.X)
        loop = np.concatenate([oracle.predict_batch(r.reshape(1, -1)) for r in ds.X])
        assert np.array_equal(batch, loop)
    finally:
        oracle.close()

    # child dying mid-run surfaces as exit 1 with an oracle-failure message
    data_dir = tmp_path / "d"
    assert run_cli(["synth", "--gen", "moons2d", "--rows", 120, "--seed", 5,
                    "--out", data_dir]) == 0
    code = run_cli(["explain", "--data", data_dir / "data.csv",
                    "--schema", data_dir / "schema.json",
                    "--oracle",
                    f"cmd:{sys.executable} {STUB} --mode threshold --value 0.8 --die-after 1",
                    "--index", 0, "--seed", 1])
    err = capsys.readouterr().err
    assert code == 1
    assert "oracle" in err.lower()
    report_passed(8, "batch/loop equivalence and child-death propagation")


def test_criterion_9_evaluate_determinism(tmp_path):
    data_dir = tmp_path / "d"
    assert run_cli(["synth", "--gen", "imbalanced_mixed", "--rows", 400,
                    "--seed", 13, "--out", data_dir]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(["evaluate", "--data", data_dir / "data.csv",
                        "--schema", data_dir / "schema.json",
                        "--oracle", "builtin:forest", "--trees", 20,
                        "--test-frac", 0.2, "--n-neighbors", 40,
                        "--explainers", "araucana,linear",
                        "--seed", 13, "--out", out])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "per_instance.csv").read_bytes() == (b / "per_instance.csv").read_bytes()
    report_passed(9, "byte-identical summary.csv and per_instance.csv across reruns")
