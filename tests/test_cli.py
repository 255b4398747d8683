import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from araucana import cli, tabular
from araucana.cli import main
from araucana.explain import ExplainConfig, explain_instance
from araucana.fidelity import evaluate_fidelity
from araucana.oracle import BuiltinOracle, load_model
from araucana.smote import SmoteConfig
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

from conftest import chain_dataset

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


@pytest.mark.parametrize("key, value, words", [
    ("categories", "ab", "feature 'cat0': categories must be a list of strings, not 'ab'"),
    ("categories", ["a", 1], "feature 'cat0': categories must be a list of strings"),
    ("range", "01", "feature 'num0': range must be two numbers, not '01'"),
    ("range", [0, 1, 2], "feature 'num0': range must be two numbers, not [0, 1, 2]"),
    ("range", [False, True], "feature 'num0': range must be two numbers"),
    ("range", ["0", "1"], "feature 'num0': range must be two numbers"),
    ("range", [0, 10**400], "int too large to convert to float"),
    ("name", 5, "a feature name must be a string, not 5"),
    ("classes", [0, 1], "target 'label': classes must be a list of strings, not [0, 1]"),
    ("target name", 5, "the target name must be a string, not 5"),
], ids=["categories-text", "categories-number", "range-text", "range-three", "range-booleans",
        "range-strings", "range-huge-int", "feature-name", "classes-numbers", "target-name"])
def test_schema_document_of_wrong_json_types_is_refused(tmp_path, capsys, key, value, words):
    # each was read before: "ab" as the categories a and b, "01" as the range
    # (0.0, 1.0), and [0, 1] as classes that no CSV label names, so the data
    # was blamed; [0, 1, 2] raised "too many values to unpack"
    data = synth_dir(tmp_path, "imbalanced_mixed", 60, 1)
    doc = json.loads((data / "schema.json").read_text())
    entry = {"categories": doc["features"][4], "classes": doc["target"],
             "target name": doc["target"]}.get(key, doc["features"][0])
    entry[key.split()[-1]] = value
    with pytest.raises(tabular.DataError, match="^malformed schema document: ") as exc:
        Schema.from_dict(doc)
    assert words in str(exc.value)
    (data / "schema.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--out", tmp_path / "m"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {exc.value}\n"
    assert not (tmp_path / "m").exists()


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
    assert list(doc) == ["format", "query", "oracle_label", "rule", "tree", "tree_stats",
                         "faithful", "config", "seed"]
    on_disk = json.loads((out / "explanation.json").read_text())
    assert on_disk == doc
    # the text format prints other bytes, but writes the same explanation.json
    other = tmp_path / "expl-text"
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:forest", "--trees", 10, "--index", 3,
                "--format", "text", "--seed", 5, "--out", other])
    assert code == 0
    assert capsys.readouterr().out.startswith("IF ")
    assert (other / "explanation.json").read_bytes() == (out / "explanation.json").read_bytes()


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
        rows.append(sum(doc["tree"]["counts"]))  # the explainer tree's rows
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
    ds = load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    inst = ds.schema.decode_rows(ds.X[4:5])[0]
    capsys.readouterr()
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", json.dumps(inst), "--seed", 1])
    assert code == 0
    # an object naming every feature is the same instance as the array
    array_out = capsys.readouterr().out
    named = json.dumps(dict(zip(reversed(ds.schema.feature_names), reversed(inst))))
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", named, "--seed", 1])
    assert code == 0
    assert capsys.readouterr().out == array_out
    # invalid instances are usage errors
    code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--instance", '["what"]', "--seed", 1])
    assert code == 2
    for instance, words in (('[0.5,', "--instance is not valid JSON: "),
                            ('0.5', "--instance must be a JSON array or object")):
        capsys.readouterr()
        code = run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                    "--oracle", "builtin:knn", "--instance", instance, "--seed", 1])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {words}")
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
    ('{"num0": 0.5, "num1": 0.5, "cat0": "a"}', "cat1"),
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


@pytest.mark.parametrize("flag, value, message", [
    ("--oracle", "builtin:svm", "'builtin:svm': builtin oracles are forest and knn"),
    ("--oracle", "cmd:", "'cmd:': missing argument after 'cmd:'"),
    ("--oracle", "file:", "'file:': missing argument after 'file:'"),
    ("--test-frac", "abc", "'abc' is not a number"),
    ("--test-frac", "0", "must be in (0, 1), got 0.0"),
    ("--test-frac", "1.5", "must be in (0, 1), got 1.5"),
])
def test_oracle_or_test_frac_flag_refused_is_a_usage_error(tmp_path, capsys, flag, value, message):
    # refused while the flags are parsed, before --data is read
    args = {"--oracle": "builtin:knn", "--test-frac": "0.2", flag: value}
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--data", tmp_path / "absent.csv",
             *(a for kv in args.items() for a in kv)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"argument {flag}: {message}")


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


def test_knn_training_mse_past_the_float_range_reads_inf(tmp_path, capsys):
    # the squared errors of a 1e200-scaled target overflow; numpy's warning
    # would end the run under -W error::RuntimeWarning
    data = _regression_data(tmp_path, scale=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["train", *data, "--model", "knn", "--out", tmp_path / "m"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "training mse: inf"


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


@pytest.mark.parametrize("command", [
    ["explain", "--oracle", "builtin:knn", "--index", 3],
    ["train", "--model", "knn"],
    ["evaluate", "--oracle", "builtin:forest", "--trees", 3, "--test-frac", 0.2,
     "--explainers", "araucana,linear"],
])
def test_numeric_range_wider_than_the_float_maximum_exits_1(tmp_path, capsys, command):
    # the span of column a, inferred from these rows, is past the float
    # maximum, so every Gower distance on it would be NaN
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, 60) * 1.7e308
    rows = [f"{float(a[i])!r},{rng.random()!r},{i % 2}" for i in range(60)]
    (tmp_path / "d.csv").write_text("a,b,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = ["--out", tmp_path / "o"] if command[0] == "train" else []
    code = run([*command, "--data", tmp_path / "d.csv", "--target", "y", *out])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: feature 'a': range ") and captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["train"],
    ["explain", "--oracle", "builtin:knn", "--index", 0],
    ["evaluate", "--oracle", "builtin:knn", "--test-frac", 0.2],
])
def test_target_beside_a_schema_exits_2(tmp_path, capsys, command):
    # the schema names its own target, so --target num0 would do nothing
    data = synth_dir(tmp_path, "imbalanced_mixed", 60, 1)
    with pytest.raises(SystemExit) as exc:
        run([*command, "--data", data / "data.csv", "--schema", data / "schema.json",
             "--target", "num0", "--out", tmp_path / "o"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_synth_zero_rows_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--gen", "moons2d", "--rows", 0, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    # cross-flag constraint violations are usage errors too
    code = run(["synth", "--gen", "xor_mixed", "--rows", 10, "--cat-features", 1,
                "--out", tmp_path / "y"])
    assert code == 2
    # xor_mixed's labels are a parity, so a minority fraction would do nothing
    code = run(["synth", "--gen", "xor_mixed", "--rows", 10, "--minority-frac", 0.2,
                "--out", tmp_path / "z"])
    assert code == 2
    assert not (tmp_path / "z").exists()
    # so are zero counts for the built-in black boxes
    data = synth_dir(tmp_path, "moons2d", 30, 1)
    for flag in ("--trees", "--k"):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", data / "data.csv", "--schema", data / "schema.json",
                 flag, 0, "--out", tmp_path / "m"])
        assert exc.value.code == 2


def test_explain_renders_a_1199_level_tree_as_json(tmp_path, capsys):
    # a 1-NN oracle relabels the chain exactly, so the surrogate is 1,199 levels deep
    save_dataset(chain_dataset(1200), tmp_path / "data.csv", tmp_path / "schema.json")
    code = run(["explain", "--data", tmp_path / "data.csv", "--schema", tmp_path / "schema.json",
                "--oracle", "builtin:knn", "--k", 1, "--n-neighbors", 1200,
                "--smote-policy", "off", "--index", 0, "--format", "json"])
    assert code == 0
    # the tree's columns nest at a fixed depth: the text grows with the node
    # count, and json reads it at its default recursion limit
    out = capsys.readouterr().out
    assert len(out.encode()) < 1_000_000
    assert json.loads(out)["tree_stats"]["depth"] == 1199


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
    if how == "negative":  # loaded, a leaf's class counts used to read -25
        doc["counts"] = [-c for c in doc["counts"]]
        return "a leaf's counts is negative"
    if how.startswith("category"):  # a split on cat0 (2 categories) or cat1 (3)
        doc["value"][next(i for i, f in enumerate(feat) if f >= 4)] = float(how[8:])
        return "not a category index"  # every row went right
    del doc["format"]
    return "model format 1"


@pytest.mark.parametrize("how", ["feature", "right", "shared", "roots", "value", "counts",
                                 "type", "prediction", "negative", "category9", "category0.5",
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


@pytest.mark.parametrize("explainer", ["araucana", "linear"])
def test_evaluate_exits_1_when_an_explainer_fails(tmp_path, capsys, monkeypatch, explainer):
    # every test row is scored or the run fails, with the error's own line
    from araucana import explain, fidelity

    def broken(*args, **kwargs):
        raise ValueError(f"{explainer} broke")

    data = synth_dir(tmp_path, "moons2d", 80, 4)
    capsys.readouterr()
    monkeypatch.setattr(*((explain, "smote_nc") if explainer == "araucana"
                          else (fidelity, "fit_linear_explainer")), broken)
    out = tmp_path / "ev"
    code = run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--test-frac", 0.2, "--n-neighbors", 30,
                "--explainers", "araucana,linear", "--out", out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {explainer} broke\n"
    assert not out.exists()


def test_precomputed_oracle_requires_smote_off(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 50, 6)
    ds = load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    # add an imbalanced prediction column so SMOTE actually synthesizes rows
    csv_p = tmp_path / "with_pred.csv"
    header = ds.schema.feature_names + [ds.schema.target.name, "pred"]
    import csv as csv_mod

    with csv_p.open("w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(header)
        for i, (r, l) in enumerate(zip(ds.schema.decode_rows(ds.X), ds.y)):
            w.writerow([repr(v) if isinstance(v, float) else v for v in r]
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


def test_evaluate_repeated_explainer_exits_2(tmp_path, capsys):
    # one name twice would score every test row twice under that name
    data = synth_dir(tmp_path, "moons2d", 50, 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
             "--oracle", "builtin:knn", "--test-frac", 0.2,
             "--explainers", "araucana,araucana,linear"])
    assert exc.value.code == 2
    assert "explainer 'araucana' is listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "explain", "evaluate"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    data = synth_dir(tmp_path, "moons2d", 40, 1)
    files = ["--data", data / "data.csv", "--schema", data / "schema.json"]
    # SMOTE off: no draw would ever reject the seed
    explain = [*files, "--oracle", "builtin:knn", "--smote-policy", "off"]
    flags = {"synth": ["--gen", "moons2d", "--rows", 10, "--out", tmp_path / "s"],
             "train": [*files, "--out", tmp_path / "t"],
             "explain": [*explain, "--index", 0],
             "evaluate": [*explain, "--test-frac", 0.5]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, *flags, "--seed", -3])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -3" in capsys.readouterr().err


def test_evaluate_prints_each_smote_note_as_one_line(tmp_path, capsys):
    # the notes evaluate_fidelity returns, one plain line each, and nothing else
    data = synth_dir(tmp_path, "imbalanced_mixed", 300, 1)
    files = ["--data", data / "data.csv", "--schema", data / "schema.json"]
    assert run(["train", *files, "--trees", 5, "--seed", 2, "--out", tmp_path / "m"]) == 0
    model = tmp_path / "m" / "model.json"
    capsys.readouterr()
    assert run(["evaluate", *files, "--oracle", f"file:{model}", "--n-neighbors", 30,
                "--test-frac", 0.3, "--seed", 9]) == 0
    err = capsys.readouterr().err

    ds = tabular.load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    train, test = cli._split_test_frac(ds, 0.3, 9)
    cfg = ExplainConfig(n_neighbors=30, smote=SmoteConfig(seed=9), seed=9)
    notes = evaluate_fidelity(train, test, BuiltinOracle(load_model(model)), ["araucana"],
                              cfg).notes
    assert notes
    assert err == "".join(f"note: SMOTE-NC on test row {i}: {note}\n" for i, note in notes)


def test_explain_prints_its_smote_notes(tmp_path, capsys):
    data = synth_dir(tmp_path, "imbalanced_mixed", 300, 1)
    files = ["--data", data / "data.csv", "--schema", data / "schema.json"]
    ds = tabular.load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    assert run(["train", *files, "--trees", 5, "--seed", 2, "--out", tmp_path / "m"]) == 0
    model = tmp_path / "m" / "model.json"
    oracle = BuiltinOracle(load_model(model))
    cfg = ExplainConfig(n_neighbors=20, smote=SmoteConfig(seed=4), seed=4)
    # the first row whose neighborhood SMOTE-NC has a note on
    notes, index = [], -1
    while not notes:
        index += 1
        notes = explain_instance(ds, ds.X[index], oracle, cfg).smote_notes
    capsys.readouterr()
    assert run(["explain", *files, "--oracle", f"file:{model}", "--n-neighbors", 20,
                "--index", index, "--seed", 4]) == 0
    assert capsys.readouterr().err == "".join(f"note: SMOTE-NC: {note}\n" for note in notes)


def test_explain_notes_a_clamped_neighborhood(tmp_path, capsys):
    data = synth_dir(tmp_path, "moons2d", 60, 1)
    capsys.readouterr()
    assert run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
                "--oracle", "builtin:knn", "--n-neighbors", 10_000, "--smote-policy", "off",
                "--index", 3, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "note: n_neighbors=10000 exceeds the training size 60; using 60\n"
    assert json.loads(captured.out)["config"]["n_neighbors"] == 60


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


def test_evaluate_header_only_test_file_reads_nan(tmp_path, capsys):
    # no test row: every summary has total 0 and fidelity nan, in the CSV and the table
    train_dir = synth_dir(tmp_path, "moons2d", 60, 2)
    header, _ = read_csv(train_dir / "data.csv")
    (tmp_path / "test.csv").write_text(",".join(header) + "\n", encoding="utf-8")
    out = tmp_path / "ev"
    capsys.readouterr()
    code = run(["evaluate", "--data", train_dir / "data.csv", "--schema",
                train_dir / "schema.json", "--test", tmp_path / "test.csv",
                "--oracle", "builtin:knn", "--explainers", "araucana,linear", "--out", out])
    assert code == 0
    assert (out / "summary.csv").read_text().splitlines()[1:] == ["araucana,0,0,nan",
                                                                  "linear,0,0,nan"]
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split() for row in rows] == [["araucana", "0", "0", "nan"],
                                             ["linear", "0", "0", "nan"]]


@pytest.mark.parametrize("flags, words", [
    (["--oracle", "builtin:knn", "--test-frac", 0.01],
     "--test-frac 0.01 leaves an empty split for 20 rows"),
    (["--oracle", "precomputed:pred", "--smote-policy", "off", "--test-frac", 0.5],
     "prediction column 'pred' not found in "),
])
def test_evaluate_empty_split_or_missing_prediction_column_exits_1(tmp_path, capsys, flags,
                                                                   words):
    data = synth_dir(tmp_path, "moons2d", 20, 2)
    capsys.readouterr()
    code = run(["evaluate", "--data", data / "data.csv", "--schema", data / "schema.json",
                *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {words}")


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
    assert [0.5, 0.5, "a", "b"] not in ds.schema.decode_rows(ds.X)
    code = run(["explain", "--data", tmp_path / "pred.csv", "--target", "label",
                "--oracle", "precomputed:pred", "--smote-policy", "off",
                "--instance", '[0.5, 0.5, "a", "b"]'])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "outside its dataset" in err
    assert "--smote-policy off" not in err  # SMOTE is already off; it cannot help


@pytest.mark.parametrize("command", [["explain", "--index", 0],
                                     ["evaluate", "--test-frac", 0.25, "--n-neighbors", 30]])
def test_precomputed_oracle_parses_the_data_csv_once(tmp_path, monkeypatch, command):
    # the prediction column comes from the parse that built the dataset
    _xor_train_csv(tmp_path)
    header, rows = read_csv(tmp_path / "train.csv")
    with (tmp_path / "pred.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([header + ["pred"], *(r + [r[-1]] for r in rows)])
    parsed = []

    def counting_read_csv(path):
        parsed.append(Path(path))
        return read_csv(path)

    monkeypatch.setattr(cli, "read_csv", counting_read_csv)
    monkeypatch.setattr(tabular, "read_csv", counting_read_csv)
    code = run([command[0], "--data", tmp_path / "pred.csv", "--target", "label",
                "--oracle", "precomputed:pred", "--smote-policy", "off", *command[1:]])
    assert code == 0
    assert parsed == [tmp_path / "pred.csv"]


def test_explain_on_an_empty_training_set_exits_1(tmp_path, capsys):
    # a neighborhood needs a training row; the header-only CSV is read under
    # the schema, and its empty precomputed column is an oracle for no row
    ds = _xor_train_csv(tmp_path)
    header, _ = read_csv(tmp_path / "train.csv")
    (tmp_path / "empty.csv").write_text(",".join(header + ["pred"]) + "\n", encoding="utf-8")
    ds.schema.save(tmp_path / "schema.json")
    code = run(["explain", "--data", tmp_path / "empty.csv", "--schema", tmp_path / "schema.json",
                "--oracle", "precomputed:pred", "--smote-policy", "off",
                "--instance", '[0.5, 0.5, "a", "b"]'])
    assert code == 1
    assert capsys.readouterr().err == ("error: the training set is empty: "
                                       "a neighborhood needs at least one row\n")


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
    ds = load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    csv_p = tmp_path / "with_pred.csv"
    import csv as csv_mod

    with csv_p.open("w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(ds.schema.feature_names + [ds.schema.target.name, "pred"])
        for r, l in zip(ds.schema.decode_rows(ds.X), ds.y):
            w.writerow([repr(v) if isinstance(v, float) else v for v in r]
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


def _data_flags(data):
    return ["--data", data / "data.csv", "--schema", data / "schema.json"]


def _unlabelled_copy(data, out):
    """The synth run in data without its label column and its schema's target."""
    ds = load_dataset(data / "data.csv", schema=Schema.load(data / "schema.json"))
    out.mkdir()
    save_dataset(Dataset(Schema(ds.schema.features), ds.X), out / "data.csv", out / "schema.json")
    return out


@pytest.mark.parametrize("model", ["forest", "knn"])
def test_a_model_file_explains_and_evaluates_unlabelled_data_as_labelled(tmp_path, capsys,
                                                                         model):
    # the model's schema states the task: the CLI refused a --data without a
    # target for every oracle
    data = synth_dir(tmp_path, "imbalanced_mixed", 150, 8)
    bare = _unlabelled_copy(data, tmp_path / "bare")
    assert run(["train", *_data_flags(data), "--model", model, "--trees", 8, "--seed", 2,
                "--out", tmp_path / "model"]) == 0
    oracle = ["--oracle", f"file:{tmp_path / 'model' / 'model.json'}", "--seed", 3]
    outputs = []
    for d in (data, bare):
        capsys.readouterr()
        assert run(["explain", *_data_flags(d), *oracle, "--index", 5, "--format", "json"]) == 0
        explanation = capsys.readouterr().out
        out = tmp_path / f"evaluate-{d.name}"
        assert run(["evaluate", *_data_flags(d), *oracle, "--test-frac", 0.1,
                    "--explainers", "araucana,linear", "--out", out]) == 0
        outputs.append([explanation, (out / "summary.csv").read_bytes(),
                        (out / "per_instance.csv").read_bytes()])
    assert outputs[0] == outputs[1]


NO_TARGET = "an oracle needs a schema whose target states the task"


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("oracle, message", [
    (f"cmd:{sys.executable} {STUB} --mode constant", NO_TARGET),
    # the label column read as a prediction column: raised AttributeError
    ("precomputed:label", NO_TARGET),
    ("builtin:forest", "training a forest requires a dataset with targets"),
    ("builtin:knn", "training k-NN requires a dataset with targets"),
], ids=["cmd", "precomputed", "forest", "knn"])
def test_an_oracle_without_a_model_file_refuses_unlabelled_data(tmp_path, capsys, command,
                                                                oracle, message):
    data = synth_dir(tmp_path, "moons2d", 40, 1)
    bare = _unlabelled_copy(data, tmp_path / "bare")
    rows = ["--index", 0] if command == "explain" else ["--test-frac", 0.25]
    flags = _data_flags(bare)
    if oracle.startswith("precomputed:"):
        flags = ["--data", data / "data.csv", "--schema", bare / "schema.json",
                 "--smote-policy", "off"]
    assert run([command, *flags, "--oracle", oracle, *rows]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("model, message", [("forest", "training a forest"),
                                            ("knn", "training k-NN")])
def test_train_on_unlabelled_data_exits_1(tmp_path, capsys, model, message):
    bare = _unlabelled_copy(synth_dir(tmp_path, "moons2d", 40, 1), tmp_path / "bare")
    assert run(["train", *_data_flags(bare), "--model", model, "--out", tmp_path / "m"]) == 1
    assert capsys.readouterr().err == f"error: {message} requires a dataset with targets\n"
    assert not (tmp_path / "m").exists()


def test_a_model_file_over_other_features_exits_1(tmp_path, capsys):
    moons = synth_dir(tmp_path, "moons2d", 40, 1)
    other = synth_dir(tmp_path, "imbalanced_mixed", 40, 1)
    assert run(["train", *_data_flags(moons), "--trees", 2, "--out", tmp_path / "m"]) == 0
    capsys.readouterr()
    for command, rows in (("explain", ["--index", 0]), ("evaluate", ["--test-frac", 0.25])):
        code = run([command, *_data_flags(other),
                    "--oracle", f"file:{tmp_path / 'm' / 'model.json'}", *rows])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the oracle's schema has other features than the training set's\n")


def test_bad_oracle_spec_exits_2(tmp_path):
    data = synth_dir(tmp_path, "moons2d", 30, 1)
    with pytest.raises(SystemExit) as exc:
        run(["explain", "--data", data / "data.csv", "--schema", data / "schema.json",
             "--oracle", "magic:wand", "--index", 0])
    assert exc.value.code == 2
