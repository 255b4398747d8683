"""Command-line entry point: synth, train, explain, evaluate.

Exit codes: 0 success, 1 runtime/I-O/oracle failure, 2 usage error.

Every command that writes artifacts also writes a manifest.json with the
resolved flags, the seed, content digests of the inputs and artifacts, and the
wall-clock duration. All randomness stems from the single --seed flag; derived
components use the fixed offsets below so they stay individually reproducible.
After a run that succeeds, `explain` and `evaluate` print its notes on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .explain import ExplainConfig, explain_instance, render_explanation
from .fidelity import check_explainers, evaluate_fidelity, report_to_csv
from .oracle import (
    BuiltinOracle,
    ForestConfig,
    OracleError,
    PrecomputedOracle,
    SubprocessOracle,
    load_model,
    oracle_target,
    save_model,
    train_forest,
    train_knn,
)
from .smote import SmoteConfig
from .tabular import (
    CLASSIFICATION,
    GENERATORS,
    DataError,
    Dataset,
    Schema,
    SchemaError,
    SynthSpec,
    dataset_from_cells,
    encode_column,
    load_dataset,
    read_csv,
    save_dataset,
    synth_dataset,
)

# sub-seed offsets: one per randomness consumer
SEED_SPLIT_OFFSET = 1009  # test/train shuffle for --test-frac
SEED_ORACLE_OFFSET = 2003  # built-in black-box training
# the per-instance explanation pipeline uses --seed + test row index directly


class UsageError(Exception):
    """Bad flag values detected after parsing (exit code 2, like argparse)."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.flags = {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        }
        self.inputs: dict[str, str] = {}
        self.artifacts: dict[str, str] = {}
        self.started = time.monotonic()

    def add_input(self, path):
        if path is not None:
            self.inputs[str(path)] = _sha256(path)

    def add_artifact(self, path):
        self.artifacts[Path(path).name] = _sha256(path)

    def write(self, out_dir):
        doc = {
            "command": self.command,
            "flags": self.flags,
            "seed": self.flags.get("seed", 0),
            "inputs": self.inputs,
            "artifacts": self.artifacts,
            "duration_seconds": round(time.monotonic() - self.started, 6),
        }
        path = Path(out_dir) / "manifest.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _oracle_spec(value: str) -> str:
    head = value.split(":", 1)[0]
    if head not in ("builtin", "cmd", "precomputed", "file"):
        raise argparse.ArgumentTypeError(
            f"{value!r}: expected builtin:forest|builtin:knn|cmd:\"...\"|"
            f"precomputed:<column>|file:<model.json>"
        )
    if head == "builtin" and value not in ("builtin:forest", "builtin:knn"):
        raise argparse.ArgumentTypeError(f"{value!r}: builtin oracles are forest and knn")
    if ":" not in value or not value.split(":", 1)[1]:
        raise argparse.ArgumentTypeError(f"{value!r}: missing argument after '{head}:'")
    return value


def _explainer_list(value: str) -> list[str]:
    names = [v.strip() for v in value.split(",") if v.strip()]
    try:
        check_explainers(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _smote_policy(value: str) -> str:
    total = value.removeprefix("fixed:")  # ASCII digits: int() refuses some isdigit() text
    if value in ("balance", "off") or (total != value and total.isascii() and total.isdigit()):
        return value
    raise argparse.ArgumentTypeError(
        f"{value!r}: expected balance, fixed:<N>, or off"
    )


def _int_from(low: int):
    """The parser of an integer flag whose values start at low (0 or 1)."""
    def parse(value: str) -> int:
        try:
            v = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
        if v < low:
            bound = "be positive" if low == 1 else f"be >= {low}"
            raise argparse.ArgumentTypeError(f"must {bound}, got {v}")
        return v
    return parse


def _fraction(value: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {v}")
    return v


def _ignored_columns(args) -> tuple[str, ...]:
    """The `precomputed:<column>` prediction column, which is not a feature."""
    spec = getattr(args, "oracle", None) or ""
    return (spec.split(":", 1)[1],) if spec.startswith("precomputed:") else ()


def _load_data(args, manifest: _Manifest) -> tuple[Dataset, tuple]:
    """The --data dataset and the cells (header, rows) it was read from,
    where a precomputed:<column> oracle finds its predictions."""
    cells = read_csv(args.data)
    schema_path = getattr(args, "schema", None)
    schema = None if schema_path is None else Schema.load(schema_path)
    ds = dataset_from_cells(*cells, args.data, schema=schema,
                            target=getattr(args, "target", None), ignore=_ignored_columns(args))
    manifest.add_input(args.data)
    if schema_path:
        manifest.add_input(schema_path)
    return ds, cells


def _train_builtin(kind: str, data: Dataset, args, seed: int):
    """The built-in black box `kind` (forest or knn) under --trees or --k."""
    if kind == "forest":
        return train_forest(data, ForestConfig(n_trees=args.trees, seed=seed))
    return train_knn(data, k=args.k)


def _build_oracle(spec: str, data: Dataset, args, manifest: _Manifest, cells: tuple,
                  full_data: Dataset | None = None):
    """data: rows built-in models train on; cells: the parsed --data CSV;
    full_data: every row the precomputed column describes (defaults to data)."""
    kind, arg = spec.split(":", 1)
    if kind == "builtin":
        return BuiltinOracle(_train_builtin(arg, data, args, args.seed + SEED_ORACLE_OFFSET))
    if kind == "file":
        model = load_model(arg)
        manifest.add_input(arg)
        return BuiltinOracle(model)
    if kind == "cmd":
        return SubprocessOracle(arg, data.schema, data.task)
    # precomputed:<column> of the data csv
    covered = data if full_data is None else full_data
    header, rows = cells
    if arg not in header:
        raise DataError(f"prediction column {arg!r} not found in {args.data}")
    target = oracle_target(covered.schema)
    preds = encode_column(target.encode, rows, header.index(arg), args.data, arg)
    return PrecomputedOracle(covered, preds)


def _explain_config(args) -> ExplainConfig:
    policy = args.smote_policy
    if policy == "off":
        smote = None
    elif policy == "balance":
        smote = SmoteConfig(k_neighbors=args.smote_k, seed=args.seed)
    else:
        smote = SmoteConfig(k_neighbors=args.smote_k, fixed_total=int(policy.split(":", 1)[1]),
                            seed=args.seed)
    return ExplainConfig(
        n_neighbors=args.n_neighbors,
        smote=smote,
        seed=args.seed,
    )


def _print_notes(args, train: Dataset, notes: list[str]) -> None:
    """Print a run's notes on stderr, after that of a clamped neighborhood."""
    m = len(train)
    if args.n_neighbors > m:
        notes = [f"n_neighbors={args.n_neighbors} exceeds the training size {m}; using {m}"] + notes
    for note in notes:
        print(f"note: {note}", file=sys.stderr)


# ------------------------------------------------------------------ commands


def cmd_synth(args) -> int:
    manifest = _Manifest("synth", args)
    try:
        spec = SynthSpec(
            generator=args.gen,
            rows=args.rows,
            minority_frac=args.minority_frac,
            n_numeric=args.num_features,
            n_categorical=args.cat_features,
        )
        ds = synth_dataset(spec, args.seed)
    except DataError as exc:  # flag-value problems are usage errors
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)
    save_dataset(ds, out / "data.csv", out / "schema.json")
    manifest.add_artifact(out / "data.csv")
    manifest.add_artifact(out / "schema.json")
    manifest.write(out)
    print(f"wrote {out / 'data.csv'} ({len(ds)} rows, {ds.schema.n_features} features)")
    return 0


def cmd_train(args) -> int:
    manifest = _Manifest("train", args)
    data, _ = _load_data(args, manifest)
    model = _train_builtin(args.model, data, args, args.seed)
    preds = model.predict_batch(data.X)
    if data.task == CLASSIFICATION:
        score = float((preds == data.y).mean())
        print(f"training accuracy: {score:.4f}")
    else:
        with np.errstate(over="ignore"):  # an error beyond the float range reads inf
            score = float(np.mean((preds - data.y) ** 2))
        print(f"training mse: {score:.6g}")
    out = _out_dir(args)
    save_model(model, out / "model.json")
    manifest.add_artifact(out / "model.json")
    manifest.write(out)
    print(f"wrote {out / 'model.json'}")
    return 0


def _query_instance(args, data: Dataset) -> np.ndarray:
    # bad instance selectors are usage errors (exit 2), not runtime failures
    if args.index is not None:
        if not 0 <= args.index < len(data):
            raise UsageError(f"--index {args.index} out of range 0..{len(data) - 1}")
        return data.X[args.index]
    try:
        doc = json.loads(args.instance)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--instance is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        names = data.schema.feature_names
        missing = [name for name in names if name not in doc]
        if missing:
            raise UsageError(f"--instance is missing features {missing}")
        unknown = [name for name in doc if name not in names]
        if unknown:
            raise UsageError(f"--instance names features {unknown} the schema does not have")
        doc = [doc[name] for name in names]
    if not isinstance(doc, list):
        raise UsageError("--instance must be a JSON array or object")
    try:
        return data.schema.encode_row(doc)
    except SchemaError as exc:
        raise UsageError(str(exc)) from exc


def cmd_explain(args) -> int:
    manifest = _Manifest("explain", args)
    data, cells = _load_data(args, manifest)
    x = _query_instance(args, data)  # a bad selector exits before any oracle trains
    oracle = _build_oracle(args.oracle, data, args, manifest, cells)
    cfg = _explain_config(args)
    try:
        expl = explain_instance(data, x, oracle, cfg)
    finally:
        oracle.close()
    _print_notes(args, data, [f"SMOTE-NC: {note}" for note in expl.smote_notes])
    text = render_explanation(expl, args.format)
    sys.stdout.write(text.decode("utf-8"))
    if args.out:
        out = _out_dir(args)
        if args.format != "json":
            text = render_explanation(expl, "json")
        (out / "explanation.json").write_bytes(text)
        manifest.add_artifact(out / "explanation.json")
        manifest.write(out)
    return 0


def _split_test_frac(data: Dataset, frac: float, seed: int) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed + SEED_SPLIT_OFFSET)
    perm = rng.permutation(len(data))
    n_test = int(round(frac * len(data)))
    if n_test == 0 or n_test == len(data):
        raise DataError(f"--test-frac {frac} leaves an empty split for {len(data)} rows")
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    mk = lambda idx: Dataset(data.schema, data.X[idx],
                             None if data.y is None else data.y[idx])
    return mk(train_idx), mk(test_idx)


def cmd_evaluate(args) -> int:
    manifest = _Manifest("evaluate", args)
    data, cells = _load_data(args, manifest)
    if args.test is not None:
        train = data
        # under the training schema, so a category index means the same
        # category in both files
        test = load_dataset(args.test, schema=data.schema, ignore=_ignored_columns(args))
        manifest.add_input(args.test)
    else:
        train, test = _split_test_frac(data, args.test_frac, args.seed)
    # a precomputed column covers every row of --data, not just the train split
    oracle = _build_oracle(args.oracle, train, args, manifest, cells, full_data=data)
    cfg = _explain_config(args)
    try:
        report = evaluate_fidelity(train, test, oracle, args.explainers, cfg)
    finally:
        oracle.close()
    _print_notes(args, train, [f"SMOTE-NC on test row {i}: {note}" for i, note in report.notes])
    summary_csv, per_instance_csv = report_to_csv(report)

    print(f"{'explainer':<12}{'agreements':>12}{'total':>8}{'fidelity':>10}")
    for s in report.summaries:
        print(f"{s['explainer']:<12}{s['agreements']:>12}{s['total']:>8}{s['fidelity']:>10.3f}")

    if args.out:
        out = _out_dir(args)
        (out / "summary.csv").write_bytes(summary_csv)
        (out / "per_instance.csv").write_bytes(per_instance_csv)
        manifest.add_artifact(out / "summary.csv")
        manifest.add_artifact(out / "per_instance.csv")
        manifest.write(out)
    return 0


# -------------------------------------------------------------------- parser


def _add_common_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="training data CSV")
    # a schema file names its own target, so --target beside it is refused
    source = p.add_mutually_exclusive_group()
    source.add_argument("--schema", help="schema JSON (inferred when omitted)")
    source.add_argument("--target", help="target column name when inferring the schema")


def _add_explain_flags(p: argparse.ArgumentParser):
    p.add_argument("--oracle", type=_oracle_spec, required=True,
                   help="builtin:forest | builtin:knn | cmd:\"...\" | "
                        "precomputed:<column> | file:<model.json>")
    p.add_argument("--n-neighbors", type=_int_from(1), default=100)
    p.add_argument("--smote-policy", type=_smote_policy, default="balance",
                   help="balance | fixed:<N> | off")
    p.add_argument("--smote-k", type=_int_from(1), default=5)
    p.add_argument("--trees", type=_int_from(1), default=100, help="builtin:forest size")
    p.add_argument("--k", type=_int_from(1), default=5, help="builtin:knn neighbor count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="araucana",
        description="Local tree-based explanations of black-box predictions",
    )
    parser.add_argument("--version", action="version", version=f"araucana {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--gen", required=True, choices=GENERATORS)
    p.add_argument("--rows", type=_int_from(1), required=True)
    p.add_argument("--minority-frac", type=float, default=None)
    p.add_argument("--num-features", type=_int_from(0), default=None)
    p.add_argument("--cat-features", type=_int_from(0), default=None)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a built-in black box")
    _add_common_data_flags(p)
    p.add_argument("--model", choices=["forest", "knn"], default="forest")
    p.add_argument("--trees", type=_int_from(1), default=100)
    p.add_argument("--k", type=_int_from(1), default=5)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="explain one instance")
    _add_common_data_flags(p)
    _add_explain_flags(p)
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--index", type=int, help="row of --data to explain")
    sel.add_argument("--instance", help="JSON array or object with the instance values")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", help="directory for explanation.json + manifest")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="fidelity evaluation over a test set")
    _add_common_data_flags(p)
    _add_explain_flags(p)
    tst = p.add_mutually_exclusive_group(required=True)
    tst.add_argument("--test", help="test data CSV")
    tst.add_argument("--test-frac", type=_fraction, help="seeded shuffle prefix split")
    p.add_argument("--explainers", type=_explainer_list, default=["araucana"],
                   help="comma list: araucana,linear")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", help="directory for summary.csv, per_instance.csv + manifest")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, SchemaError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
