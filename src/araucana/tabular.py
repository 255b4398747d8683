"""Mixed-type tabular data model: schemas, datasets, CSV/JSON ingestion, synthetic data.

Conventions used throughout the package:

* an instance is a 1-D float array of length ``schema.n_features``; numeric
  features hold their raw value, categorical features hold the index of the
  category in the feature's ``categories`` tuple;
* classification labels are integer indices into ``schema.target.classes``,
  regression targets are floats.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
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

    def encode_row(self, values) -> np.ndarray:
        """Convert display values (numbers / category strings) to an instance
        array. A numeric value is a finite number, or a string that spells one;
        a boolean is not a number."""
        if len(values) != self.n_features:
            raise SchemaError(f"expected {self.n_features} values, got {len(values)}")
        out = np.empty(self.n_features)
        for i, (f, v) in enumerate(zip(self.features, values)):
            if f.is_numeric:
                try:
                    out[i] = float(v)
                except (TypeError, ValueError, OverflowError):
                    out[i] = math.nan
                if isinstance(v, bool) or not math.isfinite(out[i]):
                    raise SchemaError(f"feature {f.name!r}: {v!r} is not a finite number")
            else:
                try:
                    out[i] = f.categories.index(str(v))
                except ValueError:
                    raise SchemaError(
                        f"feature {f.name!r}: unknown category {v!r} "
                        f"(known: {list(f.categories)})"
                    ) from None
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
        if self.target is not None and self.target.kind == CLASSIFICATION:
            try:
                return self.target.classes.index(str(value))
            except ValueError:
                raise DataError(
                    f"unknown class {value!r} for target {self.target.name!r}"
                ) from None
        return float(value)

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


def validate_instance(schema: Schema, inst: np.ndarray) -> None:
    """Raise SchemaError unless inst is a conforming instance.

    Out-of-range numeric values are legal (query instances may fall outside the
    training range); non-finite numerics and unknown category indices are not.
    """
    inst = np.asarray(inst, dtype=float)
    if inst.ndim != 1 or len(inst) != schema.n_features:
        raise SchemaError(
            f"instance has {inst.shape[0] if inst.ndim == 1 else inst.shape} values, "
            f"schema has {schema.n_features} features"
        )
    for i, f in enumerate(schema.features):
        v = float(inst[i])
        if not math.isfinite(v):
            raise SchemaError(f"feature {f.name!r} (index {i}): non-finite value {v!r}")
        if not f.is_numeric:
            if v != int(v) or not (0 <= int(v) < len(f.categories)):
                raise SchemaError(
                    f"feature {f.name!r} (index {i}): {v!r} is not a valid category index "
                    f"(0..{len(f.categories) - 1})"
                )


@dataclass
class Dataset:
    """Rows conforming to a schema, with optional targets."""

    schema: Schema
    X: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[1] != self.schema.n_features:
            raise SchemaError(
                f"data matrix has shape {self.X.shape}, expected (*, {self.schema.n_features})"
            )
        if self.y is not None:
            if self.schema.target is None:
                raise SchemaError("targets supplied but schema declares no target")
            self.y = np.asarray(self.y)
            if len(self.y) != len(self.X):
                raise SchemaError(
                    f"{len(self.y)} targets for {len(self.X)} rows"
                )
            if self.task == CLASSIFICATION:
                self.y = self.y.astype(np.int64)
                n_classes = len(self.schema.target.classes)
                if self.y.size and (self.y.min() < 0 or self.y.max() >= n_classes):
                    raise SchemaError("class index out of range")
            else:
                self.y = self.y.astype(float)
        # column-wise validation (vectorized counterpart of validate_instance)
        for i, f in enumerate(self.schema.features):
            col = self.X[:, i]
            if not np.isfinite(col).all():
                raise SchemaError(f"feature {f.name!r}: non-finite value")
            if not f.is_numeric:
                ok = (col == np.floor(col)) & (col >= 0) & (col < len(f.categories))
                if not ok.all():
                    r = int(np.flatnonzero(~ok)[0])
                    raise SchemaError(
                        f"feature {f.name!r}, row {r}: {float(col[r])!r} is not a valid "
                        "category index"
                    )

    def __len__(self) -> int:
        return len(self.X)

    @property
    def task(self) -> str | None:
        return None if self.schema.target is None else self.schema.target.kind


def _parse_float(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


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
            for c, cell in enumerate(row):
                if cell == "":
                    raise DataError(f"{path}: empty cell at row {r}, column {header[c]!r}")
            rows.append(row)
    return header, rows


def _infer_target_spec(name: str, cells: list[str]) -> TargetSpec:
    vals = [_parse_float(c) for c in cells]
    if any(v is None for v in vals):
        classes = tuple(sorted(set(cells)))
        return TargetSpec(name, CLASSIFICATION, classes=classes)
    if all(v == int(v) for v in vals):
        # integer-coded labels read as classes; explicit schemas override this
        classes = tuple(str(int(v)) for v in sorted(set(vals)))
        return TargetSpec(name, CLASSIFICATION, classes=classes)
    return TargetSpec(name, REGRESSION)


def infer_schema(header: list[str], rows: list[list[str]], target: str | None = None) -> Schema:
    """Infer a schema: a column is numeric iff every cell parses as a finite real."""
    features = []
    target_spec = None
    for c, name in enumerate(header):
        cells = [row[c] for row in rows]
        if name == target:
            target_spec = _infer_target_spec(name, cells)
            continue
        vals = [_parse_float(cell) for cell in cells]
        if cells and all(v is not None for v in vals):
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

    n = len(rows)
    X = np.empty((n, schema.n_features))
    for j, f in enumerate(schema.features):
        c = col_of[f.name]
        if f.is_numeric:
            for r, row in enumerate(rows):
                v = _parse_float(row[c])
                if v is None:
                    raise DataError(
                        f"{csv_path}: row {r}, column {f.name!r}: {row[c]!r} is not numeric"
                    )
                X[r, j] = v
        else:
            index = {cat: k for k, cat in enumerate(f.categories)}
            for r, row in enumerate(rows):
                try:
                    X[r, j] = index[row[c]]
                except KeyError:
                    raise DataError(
                        f"{csv_path}: row {r}, column {f.name!r}: "
                        f"unknown category {row[c]!r}"
                    ) from None

    y = None
    if schema.target is not None:
        c = col_of[schema.target.name]
        y = encode_labels([row[c] for row in rows], schema.target, csv_path,
                          schema.target.name)
    return Dataset(schema, X, y)


def encode_labels(cells: list[str], target: TargetSpec, csv_path, column: str) -> np.ndarray:
    """Encode the cells of a label column of `csv_path` under `target`: class
    indices for classification, finite reals for regression."""
    if target.kind == CLASSIFICATION:
        index = {cls: k for k, cls in enumerate(target.classes)}
        y = np.empty(len(cells), dtype=np.int64)
        for r, cell in enumerate(cells):
            v = _parse_float(cell)
            if cell not in index and v is not None and v == int(v):
                # integer-coded class columns round-trip as "0", "1", ...
                cell = str(int(v))
            if cell not in index:
                raise DataError(
                    f"{csv_path}: row {r}, column {column!r}: unknown class {cells[r]!r} "
                    f"for target {target.name!r}"
                )
            y[r] = index[cell]
        return y
    y = np.empty(len(cells))
    for r, cell in enumerate(cells):
        v = _parse_float(cell)
        if v is None:
            raise DataError(f"{csv_path}: row {r}, column {column!r}: {cell!r} is not numeric")
        y[r] = v
    return y


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
