import math
import re

import numpy as np
import pytest

from araucana.tabular import (
    DataError,
    Dataset,
    FeatureSpec,
    Schema,
    SchemaError,
    SynthSpec,
    TargetSpec,
    check_rows,
    dataset_from_cells,
    infer_schema,
    load_dataset,
    read_csv,
    save_dataset,
    synth_dataset,
)

from conftest import (
    EDGE_FLOATS,
    random_decode_case,
    random_mixed_schema,
    random_rows,
    random_scaling_case,
    reference_decode_row,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_inference_numeric_and_categorical(tmp_path):
    p = write(tmp_path, "d.csv", "a,b\n1,x\n2,y\n")
    ds = load_dataset(p)
    assert len(ds) == 2
    a, b = ds.schema.features
    assert a.kind == "numeric" and a.range == (1.0, 2.0)
    assert b.kind == "categorical" and b.categories == ("x", "y")


def test_constant_numeric_column(tmp_path):
    p = write(tmp_path, "d.csv", "a\n1\n1\n")
    ds = load_dataset(p)
    assert ds.schema.features[0].range == (1.0, 1.0)


def test_empty_cell_names_row_and_column(tmp_path):
    p = write(tmp_path, "d.csv", "a,b\n1,x\n,y\n")
    with pytest.raises(DataError, match=r"row 1.*'a'"):
        load_dataset(p)


@pytest.mark.parametrize("text, words", [
    ("", "d.csv: empty file, header row required"),
    ("a,b\n1,x\n2\n", "d.csv: row 1 has 1 cells, header has 2"),
])
def test_read_csv_refuses_an_empty_file_or_a_ragged_row(tmp_path, text, words):
    p = write(tmp_path, "d.csv", text)
    with pytest.raises(DataError, match=f"{re.escape(words)}$"):
        load_dataset(p)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_dataset("/does/not/exist.csv")


def test_unknown_category_with_schema_file(tmp_path, age_sex_schema):
    sp = tmp_path / "s.json"
    age_sex_schema.save(sp)
    p = write(tmp_path, "d.csv", "age,sex,label\n30,M,0\n40,X,1\n")
    with pytest.raises(DataError, match="unknown category 'X'"):
        load_dataset(p, schema=Schema.load(sp))


def test_schema_header_mismatch(tmp_path, age_sex_schema):
    sp = tmp_path / "s.json"
    age_sex_schema.save(sp)
    p = write(tmp_path, "d.csv", "age,label\n30,0\n")
    with pytest.raises(DataError, match="missing"):
        load_dataset(p, schema=Schema.load(sp))
    # a column named twice: each name read its last copy and dropped the others
    schema = Schema.load(sp)
    for text, kw, name in (("age,age,sex,label\n30,40,M,0\n", dict(schema=schema), "age"),
                           ("age,label,label\n30,0,1\n", dict(target="label"), "label"),
                           ("age,sex,label,pred,pred\n30,M,0,1,0\n",
                            dict(schema=schema, ignore=("pred",)), "pred")):
        p = write(tmp_path, "dup.csv", text)
        with pytest.raises(DataError, match=f"dup.csv: column '{name}' is named more than once"):
            load_dataset(p, **kw)


def test_target_beside_a_schema_is_refused(tmp_path, age_sex_schema):
    # the schema names its own target: a second one was silently ignored
    sp = tmp_path / "s.json"
    age_sex_schema.save(sp)
    p = write(tmp_path, "d.csv", "age,sex,label\n30,M,0\n")
    refused = r"^target='age' beside schema: the schema names its own target"
    with pytest.raises(DataError, match=refused):
        load_dataset(p, schema=Schema.load(sp), target="age")
    with pytest.raises(DataError, match=refused):
        load_dataset(p, schema=age_sex_schema, target="age")
    with pytest.raises(DataError, match=refused):
        dataset_from_cells(*read_csv(p), p, schema=age_sex_schema, target="age")
    assert load_dataset(p, schema=Schema.load(sp)).schema.target.name == "label"


def test_extra_columns_rejected_unless_ignored(tmp_path, age_sex_schema):
    sp = tmp_path / "s.json"
    age_sex_schema.save(sp)
    p = write(tmp_path, "d.csv", "age,sex,label,pred\n30,M,0,1\n")
    with pytest.raises(DataError, match="pred"):
        load_dataset(p, schema=Schema.load(sp))
    ds = load_dataset(p, schema=Schema.load(sp), ignore=("pred",))
    assert len(ds) == 1


def test_check_rows_of_one_row(age_sex_schema):
    check_rows(age_sex_schema, np.array([[30.0, 1.0]]))  # conforming
    with pytest.raises(SchemaError, match="2 features"):
        check_rows(age_sex_schema, np.array([[1.0, 0.0, 2.0]]))
    with pytest.raises(SchemaError, match=r"^row 0, feature 'sex' \(index 1\): 5.0 is not a "
                                          r"valid category index \(0..1\)$"):
        check_rows(age_sex_schema, np.array([[30.0, 5.0]]))
    with pytest.raises(SchemaError, match=r"^row 0, feature 'age' \(index 0\): nan is not a "
                                          r"finite number$"):
        check_rows(age_sex_schema, np.array([[np.nan, 0.0]]))
    with pytest.raises(SchemaError, match=r"^row 1, feature 'sex' \(index 1\): 2.5 is not a "
                                          r"valid category index \(0..1\)$"):
        Dataset(age_sex_schema, np.array([[30.0, 1.0], [30.0, 2.5]]))
    # out-of-range numerics are allowed (stored unclamped)
    check_rows(age_sex_schema, np.array([[1234.0, 0.0]]))


@pytest.mark.parametrize("seed", range(40))
def test_check_rows_names_the_one_planted_bad_cell(seed):
    rng = np.random.default_rng(seed)
    schema = random_mixed_schema(rng)
    X = random_rows(rng, schema, int(rng.integers(1, 30)))
    check_rows(schema, X)  # a clean block passes
    Dataset(schema, X)
    r, i = int(rng.integers(len(X))), int(rng.integers(schema.n_features))
    f = schema.features[i]
    bad = [math.nan, math.inf, -math.inf]
    if not f.is_numeric:
        bad += [2.5, -1.0, float(len(f.categories))]
    value = bad[int(rng.integers(len(bad)))]
    X[r, i] = value
    what = "a finite number" if f.is_numeric else \
        rf"a valid category index \(0..{len(f.categories) - 1}\)"
    cell = rf"feature '{f.name}' \(index {i}\): {re.escape(repr(value))} is not {what}$"
    with pytest.raises(SchemaError, match=rf"^row {r}, {cell}"):
        check_rows(schema, X)
    with pytest.raises(SchemaError, match=rf"^row {r}, {cell}"):
        Dataset(schema, X)
    with pytest.raises(SchemaError, match=rf"^row 0, {cell}"):
        check_rows(schema, X[r:r + 1])


@pytest.mark.parametrize("kind, value", [("regression", math.nan), ("regression", math.inf),
                                         ("classification", 2.0),
                                         ("classification", 0.5)])
def test_dataset_refuses_a_bad_target(age_sex_schema, kind, value):
    classes = ("0", "1") if kind == "classification" else None
    schema = Schema(age_sex_schema.features, TargetSpec("label", kind, classes=classes))
    X = np.array([[30.0, 0.0], [50.0, 1.0], [40.0, 1.0]])
    what = "a finite number" if classes is None else r"a valid class index \(0..1\)"
    with pytest.raises(SchemaError, match=rf"^row 1, target 'label': {value!r} is not {what}$"):
        Dataset(schema, X, np.array([0.0, value, 1.0]))


def test_one_label_rule_for_every_source(tmp_path):
    classes = TargetSpec("label", "classification", classes=("0", "1"))
    # a whole number names an integer-coded class wherever a label comes from
    assert [classes.encode(v) for v in ("1", "1.0", 1, 1.0, "0")] == [1, 1, 1, 1, 0]
    schema = Schema((FeatureSpec("a", "numeric", range=(0.0, 1.0)),), classes)
    assert schema.target.encode("1.0") == 1
    for value in ("2", 0.5, True, "nan", None):
        with pytest.raises(SchemaError, match="unknown class"):
            schema.target.encode(value)
    # a regression label is a finite number, never a boolean
    reg = TargetSpec("t", "regression")
    assert reg.encode("2.5") == 2.5 and reg.encode(3) == 3.0
    for value in ("nan", "inf", math.nan, True, False, "x", 10 ** 400):
        with pytest.raises(SchemaError, match="is not a finite number"):
            reg.encode(value)
    p = write(tmp_path, "d.csv", "a,t\n0.5,0.25\n0.7,inf\n")
    with pytest.raises(DataError, match=r"d.csv: row 1, column 't': 'inf' is not a finite number$"):
        load_dataset(p, schema=Schema(schema.features, reg))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400,
                                   True, False, None, "ten"])
def test_encode_row_takes_finite_numbers_only(age_sex_schema, value):
    with pytest.raises(SchemaError, match=r"^feature 'age': .* is not a finite number$"):
        age_sex_schema.encode_row([value, "M"])
    assert age_sex_schema.encode_row(["2.5", "F"]).tolist() == [2.5, 1.0]


def _typed(rows):
    """Each value of rows with its type and repr, so -0.0 differs from 0.0 and 3.0 from 3."""
    return [[(type(v), repr(v)) for v in row] for row in rows]


def test_decode_rows_equals_the_per_value_decode():
    rng = np.random.default_rng(41)
    one = FeatureSpec("c", "categorical", categories=("only",))
    num = FeatureSpec("n", "numeric", range=(0.0, 1.0))
    edges = np.array(EDGE_FLOATS)[:, None]
    cases = [random_decode_case(rng) for _ in range(60)] + [
        (Schema(()), np.empty((3, 0))),  # no features: one empty list per row
        (Schema((num, one)), np.empty((0, 2))),  # no rows
        (Schema((num, one)), np.hstack([edges, np.zeros_like(edges)])),
    ]
    for schema, X in cases:
        got = schema.decode_rows(X)
        assert type(got) is list and all(type(row) is list for row in got)
        assert _typed(got) == _typed([reference_decode_row(schema, x) for x in X])
    assert Schema(()).decode_rows(np.empty((3, 0))) == [[], [], []]
    assert _typed(Schema((num, one)).decode_rows([[-0.0, 0.0]])) == _typed([[-0.0, "only"]])


def test_scaled_numeric_is_the_clipped_range_formula_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        schema, X = random_scaling_case(rng)
        cols = []
        for j, f in enumerate(schema.features):
            if f.is_numeric:
                lo, hi = f.range
                cols.append((np.clip(X[:, j], lo, hi) - lo) / (hi - lo) if hi > lo
                            else np.zeros(len(X)))
        want = np.column_stack(cols) if cols else np.empty((len(X), 0))
        got = schema.scaled_numeric(X)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_numeric_layout_is_cached_and_read_only():
    rng = np.random.default_rng(43)
    for _ in range(20):
        schema, _ = random_scaling_case(rng, n_max=0)
        mask, lo, hi, span = schema.numeric_layout
        assert schema.numeric_layout[0] is mask and schema.numeric_mask() is mask
        assert mask.tolist() == [f.is_numeric for f in schema.features]
        ranges = [f.range for f in schema.features if f.is_numeric]
        assert list(zip(lo.tolist(), hi.tolist())) == ranges
        assert span.tolist() == [b - a if b > a else 1.0 for a, b in ranges]
        for a in (mask, lo, hi, span):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_schema_invariants():
    with pytest.raises(SchemaError):
        Schema((FeatureSpec("a", "numeric", range=(0, 1)),
                FeatureSpec("a", "numeric", range=(0, 1))))
    with pytest.raises(SchemaError):
        TargetSpec("t", "classification", classes=("only",))
    with pytest.raises(SchemaError):
        FeatureSpec("a", "categorical", categories=())
    with pytest.raises(SchemaError):
        FeatureSpec("a", "numeric", range=(2.0, 1.0))


@pytest.mark.parametrize("target", ["classes", "regression", "classes_written_as_1.0"])
def test_roundtrip_identical(tmp_path, target):
    ds = synth_dataset(SynthSpec("imbalanced_mixed", 60), seed=3)
    if target == "regression":
        schema = Schema(ds.schema.features, TargetSpec("label", "regression"))
        ds = Dataset(schema, ds.X, np.random.default_rng(4).standard_normal(len(ds)) * 1e3)
    csv_p, sch_p = tmp_path / "d.csv", tmp_path / "s.json"
    save_dataset(ds, csv_p, sch_p)
    if target == "classes_written_as_1.0":
        # an integer-coded class column as a float writer leaves it: "1.0" is class "1"
        text = csv_p.read_text(encoding="utf-8")
        csv_p.write_text(re.sub(r",([01])$", r",\1.0", text, flags=re.M), encoding="utf-8")
        assert read_csv(csv_p)[1][0][-1] in ("0.0", "1.0")
    back = load_dataset(csv_p, schema=Schema.load(sch_p))
    assert back.schema == ds.schema
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)


def test_inference_idempotent_on_written_dataset(tmp_path):
    ds = synth_dataset(SynthSpec("xor_mixed", 40), seed=9)
    csv_p = tmp_path / "d.csv"
    save_dataset(ds, csv_p)
    from araucana.tabular import read_csv

    header, rows = read_csv(csv_p)
    inferred = infer_schema(header, rows, target="label")
    for orig, got in zip(ds.schema.features, inferred.features):
        assert got.kind == orig.kind
        if orig.kind == "categorical":
            assert set(got.categories) <= set(orig.categories)


def test_synth_determinism():
    spec = SynthSpec("moons2d", 50, minority_frac=0.3)
    a = synth_dataset(spec, seed=11)
    b = synth_dataset(spec, seed=11)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    c = synth_dataset(spec, seed=12)
    assert not np.array_equal(a.X, c.X)


def test_xor_labels_are_xor_of_the_two_categoricals():
    ds = synth_dataset(SynthSpec("xor_mixed", 8, n_numeric=0, n_categorical=2), seed=7)
    want = (ds.X[:, 0].astype(int) ^ ds.X[:, 1].astype(int))
    np.testing.assert_array_equal(ds.y, want)


def _binom_99_interval(n, p):
    """Exact central 99% interval of Binomial(n, p) (independent oracle)."""
    logp, log1p = math.log(p), math.log1p(-p)
    cdf, lo, hi = 0.0, None, None
    for k in range(n + 1):
        lpmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * logp + (n - k) * log1p)
        cdf += math.exp(lpmf)
        if lo is None and cdf >= 0.005:
            lo = k
        if hi is None and cdf >= 0.995:
            hi = k
            break
    return lo, hi


def test_imbalanced_minority_count_binomial():
    lo, hi = _binom_99_interval(1000, 0.14)
    assert (lo, hi) == (112, 169)  # frozen from the oracle above
    counts = []
    for seed in range(10):
        ds = synth_dataset(SynthSpec("imbalanced_mixed", 1000), seed=seed)
        counts.append(int(ds.y.sum()))
        assert lo <= counts[-1] <= hi
    assert len(set(counts)) > 1  # seeds actually vary the draw


def test_moons_minority_count_exact():
    ds = synth_dataset(SynthSpec("moons2d", 100, minority_frac=0.2), seed=1)
    assert int(ds.y.sum()) == 20


def test_unknown_generator_and_bad_rows():
    with pytest.raises(DataError, match="unknown generator"):
        SynthSpec("nope", 10)
    with pytest.raises(DataError, match="positive"):
        SynthSpec("moons2d", 0)
    # xor_mixed's labels are a parity: a minority fraction would do nothing
    with pytest.raises(DataError, match="parity"):
        SynthSpec("xor_mixed", 10, minority_frac=0.2)
    with pytest.raises(DataError, match="minority_frac"):
        synth_dataset(SynthSpec("moons2d", 10, minority_frac=0.9), seed=0)


def test_dataset_invariants(age_sex_schema):
    X = np.array([[30.0, 0.0], [50.0, 1.0]])
    with pytest.raises(SchemaError, match="targets"):
        Dataset(age_sex_schema, X, np.array([0]))
    ds = Dataset(age_sex_schema, X, np.array([0, 1]))
    assert len(ds) == 2 and ds.task == "classification"


def test_schema_json_field_names(age_sex_schema):
    d = age_sex_schema.to_dict()
    assert list(d) == ["features", "target"]
    assert list(d["features"][0]) == ["name", "kind", "range"]
    assert list(d["features"][1]) == ["name", "kind", "categories"]
    assert list(d["target"]) == ["name", "kind", "classes"]
    assert Schema.from_dict(d) == age_sex_schema


def test_range_wider_than_the_float_maximum_is_refused(age_sex_schema):
    big = np.finfo(float).max
    with pytest.raises(SchemaError, match=r"^feature 'a': range .* is wider than the largest "
                                          r"float$"):
        FeatureSpec("a", "numeric", range=(-big, big))
    # the widest finite span, from either end, is a range
    for lo, hi in ((0.0, big), (-big, 0.0), (-big / 2, big / 2)):
        assert FeatureSpec("a", "numeric", range=(lo, hi)).range == (lo, hi)
    d = age_sex_schema.to_dict()
    d["features"][0]["range"] = [-1.7e308, 1.7e308]
    with pytest.raises(SchemaError, match=r"^feature 'age': range .* wider than the largest"):
        Schema.from_dict(d)


def test_integer_label_column_inferred_as_classification(tmp_path):
    p = write(tmp_path, "d.csv", "a,label\n0.5,0\n0.7,1\n0.9,0\n")
    ds = load_dataset(p, target="label")
    assert ds.schema.target.kind == "classification"
    assert ds.schema.target.classes == ("0", "1")
    p2 = write(tmp_path, "e.csv", "a,t\n0.5,0.25\n0.7,1.5\n")
    ds2 = load_dataset(p2, target="t")
    assert ds2.schema.target.kind == "regression"
    # a column of names reads as classes in sorted order
    p3 = write(tmp_path, "f.csv", "a,label\n0.5,yes\n0.7,no\n0.9,maybe\n")
    ds3 = load_dataset(p3, target="label")
    assert ds3.schema.target.classes == ("maybe", "no", "yes")
    assert ds3.y.tolist() == [2, 1, 0]
