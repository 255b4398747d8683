"""Mixed-type tabular data model: schemas, datasets, CSV/JSON ingestion, synthetic data.

Conventions used throughout the package:

* an instance is a 1-D float array of length ``schema.n_features``; numeric
  features hold their raw value, categorical features hold the index of the
  category in the feature's ``categories`` tuple;
* classification labels are integer indices into ``schema.target.classes``,
  regression targets are floats.

The specs alone decide what a valid value is: ``FeatureSpec.encode`` and
``TargetSpec.encode`` read one display value (a CSV cell, or a JSON value of
``--instance`` or a k-NN model file), and ``check_rows`` checks an encoded
block against the schema's ``value_bounds``: finite numerics (inside the
training range or not) and regression targets, whole category and class
indices in range.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
CLASSIFICATION = "classification"
REGRESSION = "regression"

GENERATORS = ("xor_mixed", "moons2d", "imbalanced_mixed")


class DataError(ValueError):
    """Malformed input data (CSV cells, schema files, label columns)."""


class SchemaError(ValueError):
    """An instance or dataset does not conform to its schema."""


def _finite(value) -> float:
    """The numeric rule: a finite number, or text that spells one, as a
    float; a boolean is not a number."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if value is True or value is False or not math.isfinite(v):
        raise SchemaError(f"{value!r} is not a finite number")
    return v


@dataclass(frozen=True)
class FeatureSpec:
    """One column: numeric with an observed [min, max] range, or categorical."""

    name: str
    kind: str
    range: tuple[float, float] | None = None
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind == NUMERIC:
            if self.range is None or self.categories is not None:
                raise SchemaError(f"numeric feature {self.name!r} requires a range")
            lo, hi = self.range
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise SchemaError(f"feature {self.name!r}: invalid range {self.range}")
        elif self.kind == CATEGORICAL:
            if self.categories is None or self.range is not None:
                raise SchemaError(f"categorical feature {self.name!r} requires categories")
            if len(self.categories) == 0:
                raise SchemaError(f"feature {self.name!r}: empty category set")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"feature {self.name!r}: duplicate categories")
        else:
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cat: k for k, cat in enumerate(self.categories)}

    def encode(self, value) -> float:
        """One display value as an instance holds it: a finite number (see
        _finite) when numeric, else the index of a category name."""
        if self.kind == NUMERIC:
            return _finite(value)
        k = self._index.get(str(value))
        if k is None:
            raise SchemaError(f"unknown category {value!r} (known: {list(self.categories)})")
        return k


@dataclass(frozen=True)
class TargetSpec:
    name: str
    kind: str
    classes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind == CLASSIFICATION:
            if self.classes is None or len(self.classes) < 2:
                raise SchemaError("classification target requires >= 2 classes")
            if len(set(self.classes)) != len(self.classes):
                raise SchemaError("duplicate class names")
        elif self.kind == REGRESSION:
            if self.classes is not None:
                raise SchemaError("regression target takes no class list")
        else:
            raise SchemaError(f"unknown target kind {self.kind!r}")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cls: k for k, cls in enumerate(self.classes)}

    def encode(self, value):
        """One label as a Dataset holds it: a finite number (see _finite) for
        regression, else the index of the class that value names, by its name
        or as a whole number (1, 1.0 and "1.0" name the class "1")."""
        if self.kind == REGRESSION:
            return _finite(value)
        k = self._index.get(value) if isinstance(value, str) else None
        if k is None:
            with suppress(SchemaError):
                v = _finite(value)
                k = self._index.get(str(int(v))) if v.is_integer() else None
        if k is None:
            raise SchemaError(f"unknown class {value!r} for target {self.name!r}")
        return k


@dataclass(frozen=True)
class Schema:
    features: tuple[FeatureSpec, ...]
    target: TargetSpec | None = None

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if self.target is not None and self.target.name in names:
            raise SchemaError(f"target {self.target.name!r} collides with a feature name")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    def numeric_mask(self) -> np.ndarray:
        return np.array([f.is_numeric for f in self.features], dtype=bool)

    def numeric_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature (lo, hi) arrays; categorical positions carry (0, 0)."""
        lo = np.zeros(self.n_features)
        hi = np.zeros(self.n_features)
        for i, f in enumerate(self.features):
            if f.is_numeric:
                lo[i], hi[i] = f.range
        return lo, hi

    @cached_property
    def value_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lowest and highest valid encoded value of each feature, then
        of the target, and whether it must be whole: a category or class
        index, or else any finite float (every one lies within [-max, max]
        of the float type, and no infinity or NaN does)."""
        names = [f.categories for f in self.features]
        if self.target is not None:
            names.append(self.target.classes)
        n = np.array([0 if values is None else len(values) for values in names])
        big = np.finfo(float).max
        return np.where(n > 0, 0.0, -big), np.where(n > 0, n - 1.0, big), n > 0

    def encode_row(self, values) -> np.ndarray:
        """Convert display values (numbers / category strings) to an instance
        array, each by its feature's encode."""
        if len(values) != self.n_features:
            raise SchemaError(f"expected {self.n_features} values, got {len(values)}")
        out = np.empty(self.n_features)
        for i, (f, v) in enumerate(zip(self.features, values)):
            try:
                out[i] = f.encode(v)
            except SchemaError as exc:
                raise SchemaError(f"feature {f.name!r}: {exc}") from None
        return out

    def decode_row(self, inst: np.ndarray) -> list:
        """Inverse of encode_row: numbers for numerics, category strings otherwise."""
        out = []
        for f, v in zip(self.features, inst):
            out.append(float(v) if f.is_numeric else f.categories[int(v)])
        return out

    def decode_label(self, label):
        if self.target is not None and self.target.kind == CLASSIFICATION:
            return self.target.classes[int(label)]
        return float(label)

    def encode_label(self, value):
        """Inverse of decode_label: the target's encode."""
        return self.target.encode(value)

    def to_dict(self) -> dict:
        feats = []
        for f in self.features:
            if f.is_numeric:
                feats.append({"name": f.name, "kind": NUMERIC, "range": list(f.range)})
            else:
                feats.append(
                    {"name": f.name, "kind": CATEGORICAL, "categories": list(f.categories)}
                )
        d = {"features": feats, "target": None}
        if self.target is not None:
            t = {"name": self.target.name, "kind": self.target.kind}
            if self.target.classes is not None:
                t["classes"] = list(self.target.classes)
            d["target"] = t
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        try:
            feats = []
            for fd in d["features"]:
                if fd["kind"] == NUMERIC:
                    feats.append(
                        FeatureSpec(fd["name"], NUMERIC, range=tuple(float(v) for v in fd["range"]))
                    )
                else:
                    feats.append(
                        FeatureSpec(fd["name"], fd["kind"], categories=tuple(fd["categories"]))
                    )
            target = None
            td = d.get("target")
            if td is not None:
                classes = tuple(td["classes"]) if td.get("classes") is not None else None
                target = TargetSpec(td["name"], td["kind"], classes=classes)
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema document: {exc}") from exc
        return cls(tuple(feats), target)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Schema":
        try:
            d = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed schema file {path}: {exc}") from exc
        return cls.from_dict(d)


def check_rows(schema: Schema, X: np.ndarray, y: np.ndarray | None = None) -> None:
    """Raise SchemaError unless every value of the 2-D block X, and every
    label of y when given, lies within the schema's value_bounds. The error
    names the first bad value in row order: its row, its feature and the
    feature's index (or the target), and the value."""
    if X.ndim != 2 or X.shape[1] != schema.n_features:
        raise SchemaError(f"a block of shape {X.shape} is not rows of the schema's "
                          f"{schema.n_features} features")
    block = X if y is None else np.column_stack((X, y))
    lo, hi, whole = (b[:block.shape[1]] for b in schema.value_bounds)
    bad = first_refused(block, lo, hi, whole)
    if bad is not None:
        r, i = bad
        if i < schema.n_features:
            where, noun = f"feature {schema.features[i].name!r} (index {i})", "category"
        else:
            where, noun = f"target {schema.target.name!r}", "class"
        what = f"a valid {noun} index (0..{int(hi[i])})" if whole[i] else "a finite number"
        raise SchemaError(f"row {r}, {where}: {float(block[r, i])!r} is not {what}")


def first_refused(values: np.ndarray, lo, hi, whole) -> tuple | None:
    """The position of the first value in row order that lies outside
    [lo, hi] (NaN lies outside every bound) or is not whole where whole is
    set; None when there is none."""
    ok = np.where(whole, np.floor(values), values).clip(lo, hi) == values
    return None if ok.all() else tuple(np.argwhere(~ok)[0].tolist())


def validate_instance(schema: Schema, inst: np.ndarray) -> None:
    """Raise SchemaError unless inst is a conforming instance: check_rows of
    the one-row block."""
    check_rows(schema, np.asarray(inst, dtype=float)[None])


@dataclass
class Dataset:
    """Rows conforming to a schema, with optional targets (see check_rows)."""

    schema: Schema
    X: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.y is not None:
            if self.schema.target is None:
                raise SchemaError("targets supplied but schema declares no target")
            self.y = np.asarray(self.y, dtype=float)
            if len(self.y) != len(self.X):
                raise SchemaError(
                    f"{len(self.y)} targets for {len(self.X)} rows"
                )
        check_rows(self.schema, self.X, self.y)
        if self.task == CLASSIFICATION and self.y is not None:
            self.y = self.y.astype(np.int64)

    def __len__(self) -> int:
        return len(self.X)

    @property
    def task(self) -> str | None:
        return None if self.schema.target is None else self.schema.target.kind


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Low-level CSV reader: (header, string rows). Raises on ragged/empty cells."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        rows = []
        for r, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")
            if "" in row:
                raise DataError(f"{path}: empty cell at row {r}, column {header[row.index('')]!r}")
            rows.append(row)
    return header, rows


def _infer_target_spec(name: str, cells: list[str], vals: list[float] | None) -> TargetSpec:
    if vals is None:
        classes = tuple(sorted(set(cells)))
        return TargetSpec(name, CLASSIFICATION, classes=classes)
    if all(v.is_integer() for v in vals):
        # integer-coded labels read as classes; explicit schemas override this
        classes = tuple(str(int(v)) for v in sorted(set(vals)))
        return TargetSpec(name, CLASSIFICATION, classes=classes)
    return TargetSpec(name, REGRESSION)


def infer_schema(header: list[str], rows: list[list[str]], target: str | None = None) -> Schema:
    """Infer a schema: a column is numeric iff every cell is a finite number."""
    features = []
    target_spec = None
    for c, name in enumerate(header):
        cells = [row[c] for row in rows]
        try:
            vals = [_finite(cell) for cell in cells]
        except SchemaError:
            vals = None
        if name == target:
            target_spec = _infer_target_spec(name, cells, vals)
            continue
        if cells and vals is not None:
            features.append(FeatureSpec(name, NUMERIC, range=(min(vals), max(vals))))
        else:
            features.append(FeatureSpec(name, CATEGORICAL, categories=tuple(sorted(set(cells)))))
    if target is not None and target_spec is None:
        raise DataError(f"target column {target!r} not found in header {header}")
    return Schema(tuple(features), target_spec)


def load_dataset(csv_path, schema_path=None, *, schema: Schema | None = None,
                 target: str | None = None, ignore: tuple[str, ...] = ()) -> Dataset:
    """Load a CSV into a Dataset.

    With a schema, read from `schema_path` or given as `schema`, the CSV header
    must contain every schema column (feature and target names) and no other
    column except those listed in `ignore`, which are dropped. Without a schema
    the column kinds are inferred and `target` names the label column.
    """
    header, rows = read_csv(csv_path)
    if schema_path is not None:
        schema = Schema.load(schema_path)
    if schema is None:
        keep = [i for i, name in enumerate(header) if name not in ignore]
        header = [header[i] for i in keep]
        rows = [[row[i] for i in keep] for row in rows]
        schema = infer_schema(header, rows, target=target)

    col_of = {name: i for i, name in enumerate(header)}
    expected = list(schema.feature_names)
    if schema.target is not None:
        expected.append(schema.target.name)
    missing = [name for name in expected if name not in col_of]
    if missing:
        raise DataError(f"{csv_path}: columns {missing} required by schema are missing")
    extra = [name for name in header if name not in expected and name not in ignore]
    if extra:
        raise DataError(f"{csv_path}: columns {extra} not in schema")

    X = np.empty((len(rows), schema.n_features))
    for j, f in enumerate(schema.features):
        X[:, j] = encode_column(f.encode, rows, col_of[f.name], csv_path, f.name)
    y = None
    if schema.target is not None:
        name = schema.target.name
        y = encode_column(schema.target.encode, rows, col_of[name], csv_path, name)
    return Dataset(schema, X, y)


def encode_column(encode, rows: list[list[str]], c: int, csv_path, column: str) -> list:
    """Cell c of each row of `csv_path` through `encode`, a spec's encode. A
    cell it refuses raises DataError naming the file, the row and `column`."""
    out: list = []
    try:
        out.extend(encode(row[c]) for row in rows)  # on a refusal, out holds the rows before it
    except SchemaError as exc:
        raise DataError(f"{csv_path}: row {len(out)}, column {column!r}: {exc}") from None
    return out


def save_dataset(ds: Dataset, csv_path, schema_path=None) -> None:
    """Write rows (and targets, when present) as CSV; optionally the schema JSON."""
    header = list(ds.schema.feature_names)
    if ds.schema.target is not None and ds.y is not None:
        header.append(ds.schema.target.name)
    with Path(csv_path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in range(len(ds)):
            row = [value_text(v) for v in ds.schema.decode_row(ds.X[r])]
            if ds.schema.target is not None and ds.y is not None:
                row.append(value_text(ds.schema.decode_label(ds.y[r])))
            writer.writerow(row)
    if schema_path is not None:
        ds.schema.save(schema_path)


def value_text(v) -> str:
    """A value as CSV and rule text write it: a float as its shortest
    round-trip repr, anything else (an int, a category or class name) as str."""
    return repr(float(v)) if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class SynthSpec:
    """Configuration for the built-in generators.

    minority_frac / n_numeric / n_categorical default per generator when None:
    xor_mixed (0.5, 2, 2), moons2d (0.5, 2, 0), imbalanced_mixed (0.14, 4, 2).
    """

    generator: str
    rows: int
    minority_frac: float | None = None
    n_numeric: int | None = None
    n_categorical: int | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise DataError(
                f"unknown generator {self.generator!r} (valid: {', '.join(GENERATORS)})"
            )
        if self.rows <= 0:
            raise DataError(f"row count must be positive, got {self.rows}")


_DEFAULTS = {
    "xor_mixed": (0.5, 2, 2),
    "moons2d": (0.5, 2, 0),
    "imbalanced_mixed": (0.14, 4, 2),
}


def _resolved(spec: SynthSpec) -> tuple[float, int, int]:
    f, nn, nc = _DEFAULTS[spec.generator]
    if spec.minority_frac is not None:
        f = float(spec.minority_frac)
    if spec.n_numeric is not None:
        nn = int(spec.n_numeric)
    if spec.n_categorical is not None:
        nc = int(spec.n_categorical)
    if not 0.0 < f <= 0.5:
        raise DataError(f"minority_frac must be in (0, 0.5], got {f}")
    return f, nn, nc


_CATEGORY_NAMES = "abcdefgh"  # letters, so written CSVs re-infer as categorical


def _binary_schema(n_numeric, n_categorical, lo, hi, cat_sizes=None) -> Schema:
    feats = []
    for i in range(n_numeric):
        feats.append(FeatureSpec(f"num{i}", NUMERIC, range=(float(lo[i]), float(hi[i]))))
    for i in range(n_categorical):
        size = 2 if cat_sizes is None else cat_sizes[i]
        feats.append(
            FeatureSpec(f"cat{i}", CATEGORICAL, categories=tuple(_CATEGORY_NAMES[:size]))
        )
    target = TargetSpec("label", CLASSIFICATION, classes=("0", "1"))
    return Schema(tuple(feats), target)


def synth_dataset(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministic synthetic dataset; a pure function of (spec, seed)."""
    frac, n_num, n_cat = _resolved(spec)
    rng = np.random.default_rng(seed)
    n = spec.rows

    if spec.generator == "xor_mixed":
        if n_cat < 2:
            raise DataError("xor_mixed requires at least 2 categorical features")
        Xn = rng.random((n, n_num))
        Xc = rng.integers(0, 2, size=(n, n_cat))
        # parity of quarter-bands for numerics, plus the categorical bits: with
        # no numeric features this is exactly the XOR of the categorical bits
        bands = (np.floor(Xn * 4).astype(np.int64).clip(0, 3) % 2).sum(axis=1) if n_num else 0
        y = (bands + Xc.sum(axis=1)) % 2
        X = np.hstack([Xn, Xc.astype(float)]) if n_num else Xc.astype(float)
        lo = Xn.min(axis=0) if n_num else np.empty(0)
        hi = Xn.max(axis=0) if n_num else np.empty(0)
        schema = _binary_schema(n_num, n_cat, lo, hi)
        return Dataset(schema, X, y)

    if spec.generator == "moons2d":
        if n_num < 2:
            raise DataError("moons2d requires at least 2 numeric features")
        n1 = int(round(frac * n))
        n0 = n - n1
        t0 = rng.random(n0) * math.pi
        t1 = rng.random(n1) * math.pi
        pts = np.concatenate(
            [
                np.column_stack([np.cos(t0), np.sin(t0)]),
                np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
            ]
        )
        y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
        pts += rng.normal(scale=0.1, size=pts.shape)
        extra = rng.random((n, n_num - 2))
        Xn = np.hstack([pts, extra])
        Xc = rng.integers(0, 2, size=(n, n_cat)).astype(float)
        perm = rng.permutation(n)
        Xn, Xc, y = Xn[perm], Xc[perm], y[perm]
        X = np.hstack([Xn, Xc]) if n_cat else Xn
        schema = _binary_schema(n_num, n_cat, Xn.min(axis=0), Xn.max(axis=0))
        return Dataset(schema, X, y)

    # imbalanced_mixed: feature-dependent minority probability averaging frac,
    # rows independent, so the minority count is binomial-like around frac*n
    cat_sizes = [2 + (i % 2) for i in range(n_cat)]
    Xn = rng.standard_normal((n, n_num))
    Xc = np.column_stack([rng.integers(0, s, size=n) for s in cat_sizes]) if n_cat else \
        np.empty((n, 0), dtype=np.int64)
    w = rng.standard_normal(n_num) if n_num else np.empty(0)
    score = Xn @ w if n_num else np.zeros(n)
    var = float(w @ w)
    for j, s in enumerate(cat_sizes):
        effect = np.linspace(-0.5, 0.5, s)
        score += effect[Xc[:, j]]
        var += float(np.mean(effect**2))
    z = score / math.sqrt(var) if var > 0 else score
    p = 2.0 * frac / (1.0 + np.exp(-1.5 * z))
    y = (rng.random(n) < p).astype(np.int64)
    X = np.hstack([Xn, Xc.astype(float)]) if n_cat else Xn
    lo = Xn.min(axis=0) if n_num else np.empty(0)
    hi = Xn.max(axis=0) if n_num else np.empty(0)
    schema = _binary_schema(n_num, n_cat, lo, hi, cat_sizes=cat_sizes)
    return Dataset(schema, X, y)
