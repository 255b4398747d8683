import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from araucana import cli
from araucana.cli import main
from araucana.tabular import (
    Dataset,
    Schema,
    SynthSpec,
    TargetSpec,
    load_dataset,
    read_csv,
    save_dataset,
    synth_dataset,
)

from conftest import DEEP_JSON_REFUSED, chain_dataset

STUB = Path(__file__).parent / "stub_oracle.py"


def run(args):
    return main([str(a) for a in args])


def synth_dir(tmp_path, gen="imbalanced_mixed", rows=150, seed=1, extra=()):
    out = tmp_path / f"{gen}-{rows}-{seed}"
    code = run(["synth", "--gen", gen, "--rows", rows, "--seed", seed, "--out", out, *extra])
    assert code == 0
    return out


def test_synth_writes_artifacts_and_is_deterministic(tmp_path):
    out = synth_dir(tmp_path, "xor_mixed", 80, 7)
    assert (out / "data.csv").exists()
    assert (out / "schema.json").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert set(manifest["artifacts"]) == {"data.csv", "schema.json"}

    out2 = tmp_path / "again"
    assert run(["synth", "--gen", "xor_mixed", "--rows", 80, "--seed", 7,
                "--out", out2]) == 0
    assert (out / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()


def test_synth_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--rows", 10, "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_synth_unknown_generator_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--gen", "blobs", "--rows", 10, "--out", tmp_path / "x"])
    assert exc.value.code == 2


def test_train_forest_xor_accuracy(tmp_path, capsys):
    data = synth_dir(tmp_path, "xor_mixed", 500, 7)
    out = tmp_path / "model"
    code = run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--seed", 3, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    acc = float(printed.split("training accuracy:")[1].split()[0])
    assert acc >= 0.95
    assert (out / "model.json").exists()
    assert (out / "manifest.json").exists()


def test_train_knn_k1_perfect_on_distinct_rows(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 120, 2)
    code = run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--model", "knn", "--k", 1, "--out", tmp_path / "m"])
    assert code == 0
    acc = float(capsys.readouterr().out.split("training accuracy:")[1].split()[0])
    assert acc == 1.0


def test_train_missing_target_column_exit_1(tmp_path, capsys):
    p = tmp_path / "bare.csv"
    p.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    code = run(["train", "--data", p, "--target", "label", "--out", tmp_path / "m"])
    assert code == 1
    assert "label" in capsys.readouterr().err


def test_explain_defaults_and_json_schema(tmp_path, capsys):
    data = synth_dir(tmp_path, "imbalanced_mixed", 200, 5)
    capsys.readouterr()  # drop the synth chatter
    out = tmp_path / "expl"
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:forest", "--trees", 10, "--index", 3,
                "--format", "json", "--seed", 5, "--out", out])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["n_neighbors"] == 100
    assert doc["config"]["distance"] == "gower"
    assert doc["config"]["smote"]["policy"] == "balance"
    assert doc["config"]["cart"] == {"criterion": "gini", "min_samples_split": 2,
                                     "max_depth": None}
    assert list(doc) == ["query", "oracle_label", "rule", "tree", "tree_stats",
                         "faithful", "config", "seed"]
    on_disk = json.loads((out / "explanation.json").read_text())
    assert on_disk == doc


def test_explain_fixed_policy_echo(tmp_path, capsys):
    data = synth_dir(tmp_path, "imbalanced_mixed", 200, 5)
    rows = []
    for total in (40, 0):
        capsys.readouterr()
        code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                    "--oracle", "builtin:forest", "--trees", 10, "--index", 3,
                    "--smote-policy", f"fixed:{total}", "--format", "json", "--seed", 5])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["config"]["smote"].items()) == [
            ("policy", "fixed"), ("k_neighbors", 5), ("fixed_total", total)]
        n, stack = 0, [doc["tree"]]  # the explainer tree's rows
        while stack:
            node = stack.pop()
            if "leaf" in node:
                n += sum(node["leaf"]["counts"])
            else:
                stack += [node["left"], node["right"]]
        rows.append(n)
    assert rows[0] > rows[1] == 101  # 100 neighbors and the query, no synthetics at 0


def test_smote_policy_total_must_be_ascii_digits(tmp_path, capsys):
    # '²' and '٣' pass str.isdigit(); the first is no int() literal at all
    data = synth_dir(tmp_path, "xor_mixed", 200, 1)
    for policy in ("fixed:²", "fixed:٣", "fixed:", "fixed:-1", "fixed:+3", "fixed: 3", "Fixed:3"):
        with pytest.raises(SystemExit) as exc:
            run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                 "--oracle", "builtin:knn", "--index", 0, "--smote-policy", policy])
        assert exc.value.code == 2
        assert "expected balance, fixed:<N>, or off" in capsys.readouterr().err


def test_explain_constant_oracle_always_rule(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 60, 3)
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", f'cmd:{sys.executable} {STUB} --mode constant --value 0',
                "--index", 0, "--seed", 1])
    assert code == 0
    out = capsys.readouterr().out
    assert "IF (always) THEN 0" in out
    assert "faithful=true" in out


def test_explain_instance_json_and_bad_instance(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 60, 3)
    ds = load_dataset(data / "data.csv", data / "schema.json")
    inst = ds.schema.decode_row(ds.X[4])
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", json.dumps(inst), "--seed", 1])
    assert code == 0
    # invalid instances are usage errors
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", '["what"]', "--seed", 1])
    assert code == 2
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--index", 5000, "--seed", 1])
    assert code == 2


@pytest.mark.parametrize("instance, feature", [
    ('[NaN, 0.5, "a", "b"]', "num0"),
    ('[0.5, Infinity, "a", "b"]', "num1"),
    ('[1e400, 0.5, "a", "b"]', "num0"),
    (f'[{10 ** 400}, 0.5, "a", "b"]', "num0"),
    ('[true, 0.5, "a", "b"]', "num0"),
    ('{"num0": 0.5, "num1": 0.5, "cat0": "a", "cat1": "b", "cat9": "a"}', "cat9"),
])
def test_explain_bad_instance_value_exits_2(tmp_path, capsys, instance, feature):
    # a non-finite or boolean number, or a feature the schema lacks, is a usage
    # error that names the feature; none of these may be read as some other value
    data = synth_dir(tmp_path, "xor_mixed", 60, 3)
    capsys.readouterr()
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", instance])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --instance" if instance[0] == "{" else "error: feature ")
    assert repr(feature) in err and "np." not in err


@pytest.mark.parametrize("selector", [["--index", 60], ["--instance", '[NaN, 0.5, "a", "b"]']])
def test_explain_bad_selector_exits_2_before_the_oracle_is_built(tmp_path, capsys, monkeypatch,
                                                               selector):
    # a bad --index or --instance is read before the built-in forest trains
    data = synth_dir(tmp_path, "xor_mixed", 60, 3)

    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle was built before the selector was read")

    monkeypatch.setattr(cli, "_build_oracle", no_oracle)
    capsys.readouterr()
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:forest", *selector])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--rows", "0", "argument --rows: must be positive, got 0"),
    ("--num-features", "-1", "argument --num-features: must be >= 0, got -1"),
    ("--cat-features", "two", "argument --cat-features: 'two' is not an integer"),
])
def test_integer_flag_out_of_its_range_is_a_usage_error(tmp_path, capsys, flag, value, message):
    args = {"--rows": "10", "--num-features": "2", "--cat-features": "2", flag: value}
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--gen", "xor_mixed", *(a for kv in args.items() for a in kv),
             "--out", tmp_path / "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(message)


def _regression_data(tmp_path, scale=1.0):
    """data.csv and schema.json of 150 imbalanced_mixed rows with a
    regression target y, times scale (past 2**53 every label is whole, and
    inference would read the column as classes)."""
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 150), seed=5)
    ds = Dataset(Schema(ds.schema.features, TargetSpec("y", "regression")), ds.X,
                 (1.5 + ds.X[:, 0] - ds.X[:, 1]) * scale)
    save_dataset(ds, tmp_path / "data.csv", tmp_path / "schema.json")
    return ["--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json"]


@pytest.mark.parametrize("damage", ["label NaN", "label true", "label inf", "row NaN"])
def test_knn_model_file_with_a_bad_value_exits_1(tmp_path, capsys, damage):
    # a regression k-NN file took a NaN, true or "inf" label and predicted
    # nan, 1.0 or inf with it
    data = _regression_data(tmp_path)
    assert run(["train", *data, "--model", "knn", "--out", tmp_path / "m"]) == 0
    path = tmp_path / "m" / "model.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if damage == "row NaN":
        doc["rows"][2][0] = float("nan")
    else:
        doc["labels"][2] = {"label NaN": float("nan"), "label true": True, "label inf": "inf"}[damage]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = run(["explain", *data, "--oracle", f"file:{path}", "--index", 0])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: malformed model file {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "explain"])
def test_labels_whose_square_sums_overflow_exit_1(tmp_path, capsys, command):
    data = _regression_data(tmp_path, scale=1e200)
    more = ["--out", tmp_path / "m"] if command == "train" else \
        ["--oracle", "builtin:knn", "--index", 0]
    code = run([command, *data, *more])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: regression label ") and err.count("\n") == 1
    assert "too large" in err and "Traceback" not in err


def test_synth_zero_rows_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--gen", "moons2d", "--rows", 0, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    # cross-flag constraint violations are usage errors too
    code = run(["synth", "--gen", "xor_mixed", "--rows", 10, "--cat-features", 1,
                "--out", tmp_path / "y"])
    assert code == 2
    # so are zero counts for the built-in black boxes
    data = synth_dir(tmp_path, "moons2d", 30, 1)
    for flag in ("--trees", "--k"):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                 flag, 0, "--out", tmp_path / "m"])
        assert exc.value.code == 2


def test_explain_too_deep_tree_exits_1(tmp_path, capsys):
    # a 1-NN oracle relabels the chain exactly, so the surrogate is 1,199 levels deep
    save_dataset(chain_dataset(1200), tmp_path / "data.csv", tmp_path / "schema.json")
    code = run(["explain", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
                "--oracle", "builtin:knn", "--k", 1, "--n-neighbors", 1200,
                "--smote-policy", "off", "--index", 0, "--format", "json"])
    if DEEP_JSON_REFUSED:
        assert code == 1
        assert capsys.readouterr().err == "error: tree too deep to nest as JSON\n"
    else:
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tree_stats"]["depth"] == 1199


def _damage(doc, how) -> str:
    """Give a forest model document one defect; return words of the error."""
    feat, right = doc["feature"], doc["right"]
    split = feat.index(max(feat))  # a split node
    if how == "feature":
        feat[split] = 99  # routing read another row's value, or raised IndexError
        return "a feature outside"
    if how == "right":
        right[split] = split  # routing would loop or go back
        return "not after its left child"
    if how == "shared":  # two splits with one right child: no longer a tree
        i = next(i for i in range(len(feat) - 1) if min(feat[i], feat[i + 1]) >= 0)
        right[i] = right[i + 1]
        return "child of no split or of two"
    if how == "roots":
        doc["roots"][1] = 0
        return "roots must"
    if how == "value":
        doc["value"].pop()
        return "values"
    if how == "counts":
        doc["counts"].pop()
        return "counts for"
    if how == "type":
        doc["value"][0] = "0.5"
        return "'value' is not a list of numbers"
    if how == "prediction":
        doc["prediction"][0] = 2  # a 2-class forest
        return "a class index outside"
    if how.startswith("category"):  # a split on cat0 (2 categories) or cat1 (3)
        doc["value"][next(i for i, f in enumerate(feat) if f >= 4)] = float(how[8:])
        return "not a category index"  # every row went right
    del doc["format"]
    return "model format 1"


@pytest.mark.parametrize("how", ["feature", "right", "shared", "roots", "value", "counts",
                                 "type", "prediction", "category9", "category0.5",
                                 "category-1", "format"])
def test_evaluate_damaged_model_file_exits_1(tmp_path, capsys, how):
    data = synth_dir(tmp_path, "imbalanced_mixed", 120, 2)
    assert run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--trees", 3, "--out", tmp_path / "m"]) == 0
    path = tmp_path / "m" / "model.json"
    doc = json.loads(path.read_text())
    words = _damage(doc, how)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", f"file:{path}", "--test-frac", 0.1])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and words in err and "Traceback" not in err
    if how != "format":
        assert err.startswith(f"error: malformed model file {path}: ")


def test_explain_oracle_death_exit_1(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 80, 4)
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle",
                f'cmd:{sys.executable} {STUB} --mode threshold --value 0.8 --die-after 1',
                "--index", 1, "--seed", 0])
    assert code == 1
    assert "oracle" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("token", ["Infinity", "NaN", "1e400", "true"])
def test_explain_non_finite_or_boolean_class_reply_exits_1(tmp_path, capsys, token):
    data = synth_dir(tmp_path, "xor_mixed", 80, 4)
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", f"cmd:{sys.executable} {STUB} --token {token}", "--index", 1])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prediction" in err


def test_evaluate_aborts_on_a_garbage_smote_relabel(tmp_path, capsys):
    # the child answers NaN only to its second request, the first test row's
    # SMOTE batch; that row used to be excluded as an explainer failure
    data = synth_dir(tmp_path, "moons2d", 80, 4)
    out = tmp_path / "ev"
    code = run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle",
                f"cmd:{sys.executable} {STUB} --mode threshold --value 0.8 --token NaN --token-on 2",
                "--test-frac", 0.2, "--n-neighbors", 30, "--out", out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "excluded failures" not in captured.out
    assert not (out / "summary.csv").exists()


def test_precomputed_oracle_requires_smote_off(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 50, 6)
    ds = load_dataset(data / "data.csv", data / "schema.json")
    # add an imbalanced prediction column so SMOTE actually synthesizes rows
    csv_p = tmp_path / "with_pred.csv"
    header = ds.schema.feature_names + [ds.schema.target.name, "pred"]
    import csv as csv_mod

    with csv_p.open("w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(header)
        for i, (r, l) in enumerate(zip(ds.X, ds.y)):
            w.writerow([repr(v) if isinstance(v, float) else v
                        for v in ds.schema.decode_row(r)]
                       + [ds.schema.decode_label(l), "1" if i < 10 else "0"])

    args = ["explain", "--data", csv_p, "--schema", data / "schema.json",
            "--oracle", "precomputed:pred", "--index", 2, "--seed", 1]
    code = run(args)
    assert code == 1
    assert "synthetic instances" in capsys.readouterr().err
    code = run(args + ["--smote-policy", "off"])
    assert code == 0
    assert "faithful=true" in capsys.readouterr().out


def test_evaluate_summary_and_determinism(tmp_path, capsys):
    data = synth_dir(tmp_path, "imbalanced_mixed", 260, 9)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run(["evaluate", "--data", data / "data.csv", "--schema",
                    data / "schema.json", "--oracle", "builtin:forest", "--trees", 10,
                    "--test-frac", 0.2, "--n-neighbors", 40,
                    "--explainers", "araucana,linear", "--seed", 11, "--out", out])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    assert (outs[0] / "per_instance.csv").read_bytes() == \
        (outs[1] / "per_instance.csv").read_bytes()
    table = capsys.readouterr().out
    assert "araucana" in table and "linear" in table
    lines = (outs[0] / "summary.csv").read_text().splitlines()
    assert lines[0] == "explainer,agreements,total,fidelity"
    ara = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert ara["fidelity"] == "1.000000"


def test_evaluate_unknown_explainer_exits_2(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 50, 1)
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
             "--oracle", "builtin:knn", "--test-frac", 0.2,
             "--explainers", "araucana,shapley"])
    assert exc.value.code == 2
    assert "araucana" in capsys.readouterr().err  # lists the valid names


def test_evaluate_with_separate_test_file(tmp_path):
    train_dir = synth_dir(tmp_path, "moons2d", 100, 2)
    test_ds = synth_dataset(SynthSpec("moons2d", 20), seed=77)
    test_csv = tmp_path / "test.csv"
    save_dataset(test_ds, test_csv)
    out = tmp_path / "ev"
    code = run(["evaluate", "--data", train_dir / "data.csv", "--schema",
                train_dir / "schema.json", "--test", test_csv,
                "--oracle", "builtin:knn", "--n-neighbors", 30,
                "--seed", 3, "--out", out])
    assert code == 0
    assert (out / "per_instance.csv").read_text().count("\n") == 21  # header + 20


def _xor_train_csv(tmp_path):
    ds = synth_dataset(SynthSpec("xor_mixed", 200), seed=3)
    save_dataset(ds, tmp_path / "train.csv")
    return ds


def test_evaluate_test_file_encoded_under_training_schema(tmp_path):
    # the test file holds only cat0 == "b"; inferred on its own, "b" would be
    # category 0, which the training schema reads as "a"
    ds = _xor_train_csv(tmp_path)
    rows = np.flatnonzero(ds.X[:, ds.schema.feature_names.index("cat0")] == 1)[:15]
    save_dataset(Dataset(ds.schema, ds.X[rows], ds.y[rows]), tmp_path / "test.csv")
    out = tmp_path / "ev"
    code = run(["evaluate", "--data", tmp_path / "train.csv", "--target", "label",
                "--test", tmp_path / "test.csv", "--oracle", "builtin:knn", "--k", 1,
                "--n-neighbors", 30, "--seed", 2, "--out", out])
    assert code == 0
    # a 1-NN oracle labels a training row with its own label
    got = [line.split(",")[2] for line in
           (out / "per_instance.csv").read_text().splitlines()[1:]]
    assert got == [ds.schema.decode_label(v) for v in ds.y[rows]]


def test_evaluate_test_file_unknown_category_or_extra_column_exits_1(tmp_path, capsys):
    _xor_train_csv(tmp_path)
    header, rows = read_csv(tmp_path / "train.csv")
    c = header.index("cat0")
    bad = {"unknown category 'z'": (header, [r[:c] + ["z"] + r[c + 1:] for r in rows[:5]]),
           "['extra'] not in schema": (header + ["extra"], [r + ["1"] for r in rows[:5]])}
    for message, (head, body) in bad.items():
        with (tmp_path / "test.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([head, *body])
        code = run(["evaluate", "--data", tmp_path / "train.csv", "--target", "label",
                    "--test", tmp_path / "test.csv", "--oracle", "builtin:knn"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "ignore=" not in err  # a library argument that no flag sets


def test_precomputed_query_outside_dataset_exits_1_without_smote_advice(tmp_path, capsys):
    ds = _xor_train_csv(tmp_path)
    header, rows = read_csv(tmp_path / "train.csv")
    with (tmp_path / "pred.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([header + ["pred"], *(r + [r[-1]] for r in rows)])
    assert [0.5, 0.5, "a", "b"] not in [ds.schema.decode_row(r) for r in ds.X]
    code = run(["explain", "--data", tmp_path / "pred.csv", "--target", "label",
                "--oracle", "precomputed:pred", "--smote-policy", "off",
                "--instance", '[0.5, 0.5, "a", "b"]'])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "outside its dataset" in err
    assert "--smote-policy off" not in err  # SMOTE is already off; it cannot help


def test_precomputed_non_finite_cell_exits_1(tmp_path, capsys):
    ds = synth_dataset(SynthSpec("moons2d", 30), seed=2)
    target = {"classification": [ds.schema.decode_label(v) for v in ds.y],
              "regression": [repr(0.5 + float(v)) for v in ds.X[:, 0]]}
    for task, labels in target.items():
        p = tmp_path / f"{task}.csv"
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(ds.schema.feature_names + ["y", "pred"])
            for i, (r, label) in enumerate(zip(ds.X, labels)):
                w.writerow([repr(v) for v in r] + [label, "inf" if i == 3 else label])
        code = run(["explain", "--data", p, "--target", "y", "--oracle", "precomputed:pred",
                    "--smote-policy", "off", "--index", 0])
        err = capsys.readouterr().err
        assert code == 1, task
        assert err.startswith("error: ") and "'inf'" in err, task


def test_evaluate_precomputed_covers_test_split(tmp_path):
    data = synth_dir(tmp_path, "moons2d", 80, 12)
    ds = load_dataset(data / "data.csv", data / "schema.json")
    csv_p = tmp_path / "with_pred.csv"
    import csv as csv_mod

    with csv_p.open("w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(ds.schema.feature_names + [ds.schema.target.name, "pred"])
        for r, l in zip(ds.X, ds.y):
            w.writerow([repr(v) if isinstance(v, float) else v
                        for v in ds.schema.decode_row(r)]
                       + [ds.schema.decode_label(l), ds.schema.decode_label(l)])
    out = tmp_path / "ev"
    code = run(["evaluate", "--data", csv_p, "--schema", data / "schema.json",
                "--oracle", "precomputed:pred", "--smote-policy", "off",
                "--test-frac", 0.25, "--n-neighbors", 30, "--seed", 4, "--out", out])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[1].startswith("araucana,20,20,")


def test_oracle_file_roundtrip_via_cli(tmp_path, capsys):
    data = synth_dir(tmp_path, "imbalanced_mixed", 150, 8)
    model_dir = tmp_path / "model"
    assert run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--trees", 8, "--seed", 2, "--out", model_dir]) == 0
    capsys.readouterr()
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", f"file:{model_dir / 'model.json'}", "--index", 0, "--seed", 1])
    assert code == 0
    assert "IF" in capsys.readouterr().out


def test_bad_oracle_spec_exits_2(tmp_path):
    data = synth_dir(tmp_path, "moons2d", 30, 1)
    with pytest.raises(SystemExit) as exc:
        run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
             "--oracle", "magic:wand", "--index", 0])
    assert exc.value.code == 2
