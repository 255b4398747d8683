"""One benchmark workload, run in its own process by run.py.

Roles:
  setup  build the workload (import araucana, make the data, build the black
         box) and run the warm-up round, then report when the timed loop would
         have started;
  run    the same, then the timed loop, the checks and the end-to-end metrics;
  trace  the same, but every round of the timed loop runs twice, once plain
         and once with spans recorded around araucana's public functions, and
         the per-layer metrics come from the traced runs.

The test rows of a workload are split into rounds of a fixed size, and a pass
is all of its rounds in order. The timed loop repeats whole passes until the
run time is used up. Before every round, reference.py's kernel measures how
fast the shared machine runs at that moment; the throughput is scaled by the
kernel's mean time over its nominal time, so that the stretches in which
other tenants slow the process down cancel out. The warm-up is round 0, and
every round of every pass must repeat the first pass byte for byte.
The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import os
import resource
import shlex
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from araucana import explain, fidelity, oracle, smote, tabular

import reference
import tracing

MODEL_SEED_OFFSET = 2003  # the CLI's offset for built-in black boxes
CRITERION_1_SEED = 42  # data seed of acceptance criterion 1 (imbalanced_mixed)
CRITERION_2_SEED = 7  # data seed of acceptance criterion 2 (xor_mixed)
OPS = {"<=": operator.le, ">": operator.gt, "==": operator.eq, "!=": operator.ne}
CHILD = Path(__file__).resolve().parent / "parity_oracle.py"


class Counted:
    """Counts the calls and rows one black-box model instance receives."""

    def __init__(self, model):
        self.calls = self.rows = 0
        inner = model.predict_batch

        def predict_batch(rows):
            self.calls += 1
            self.rows += 1 if np.ndim(rows) == 1 else len(rows)
            return inner(rows)

        model.predict_batch = predict_batch

    def read(self) -> tuple[int, int]:
        return self.calls, self.rows


def decoded(schema, x) -> list:
    """Display values of an encoded row, from the schema's category lists."""
    return [float(v) if f.is_numeric else f.categories[int(v)]
            for f, v in zip(schema.features, x)]


def per_instance_rows(per_instance_csv: bytes) -> dict[int, dict[str, dict]]:
    """index -> explainer -> row of a per_instance.csv."""
    out: dict[int, dict[str, dict]] = {}
    for rec in csv.DictReader(io.StringIO(per_instance_csv.decode("utf-8"))):
        out.setdefault(int(rec["index"]), {})[rec["explainer"]] = rec
    return out


class Workload:
    """The training data is fixed by `data_seed`; the seed of a run picks the
    test rows out of a pool of rows drawn after the training rows, and seeds
    the black box and the explainers."""

    round_rows: int  # test rows per round
    pass_rounds: int  # rounds per pass
    train_rows: int
    pool_rows: int  # rows drawn after the training rows, to pick the test rows from
    data_seed: int

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.test_rows = self.round_rows * self.pass_rounds

    def data(self, generator: str, **spec) -> tuple:
        """(dataset, training rows, indices of this run's test rows in the dataset)."""
        ds = tabular.synth_dataset(
            tabular.SynthSpec(generator, self.train_rows + self.pool_rows, **spec),
            self.data_seed)
        n = self.train_rows
        pick = n + np.random.default_rng(self.seed).choice(self.pool_rows, self.test_rows,
                                                           replace=False)
        return ds, tabular.Dataset(ds.schema, ds.X[:n], ds.y[:n]), pick

    def start(self, r: int) -> int:
        return r * self.round_rows

    def close(self) -> None:
        pass


class ForestImbalanced(Workload):
    """`explain` path: explain_instance + JSON rendering, one test row at a time."""

    round_rows, pass_rounds = 1, 50
    train_rows, pool_rows, data_seed = 2000, 400, CRITERION_1_SEED

    def setup(self) -> None:
        s = self.seed
        ds, self.train, pick = self.data("imbalanced_mixed", minority_frac=0.14)
        self.schema = ds.schema
        self.test_X = ds.X[pick]
        self.trained = oracle.train_forest(
            self.train, oracle.ForestConfig(n_trees=100, seed=s + MODEL_SEED_OFFSET))
        path = self.out_dir / f"model-{os.getpid()}.json"
        try:
            oracle.save_model(self.trained, path)
            self.model = oracle.load_model(path)
        finally:
            path.unlink(missing_ok=True)
        self.counter = Counted(self.model)
        self.oracle = oracle.BuiltinOracle(self.model)
        self.cfg = explain.ExplainConfig(smote=smote.SmoteConfig(seed=s), seed=s)

    def black_box(self):
        return self.model, "oracle.model"

    def counts(self) -> tuple[int, int]:
        return self.counter.read()

    def run_round(self, r: int):
        start = self.start(r)
        docs = []
        for i in range(start, start + self.round_rows):
            try:
                expl = explain.explain_instance(self.train, self.test_X[i], self.oracle, self.cfg)
                docs.append(explain.render_explanation(expl, "json"))
            except Exception as exc:  # noqa: BLE001 - a failed explanation is counted
                print(f"row {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
                docs.append(None)
        return start, docs

    def check(self, outputs) -> tuple[int, list[str]]:
        used = sorted({start + j for start, docs in outputs for j in range(len(docs))})
        trained = self.trained.predict_batch(self.test_X[used])
        loaded = self.model.predict_batch(self.test_X[used])
        problems = []
        if not np.array_equal(trained, loaded):
            problems.append("the loaded model votes differently from the trained model")
        vote = dict(zip(used, (self.schema.target.classes[int(v)] for v in trained)))
        failed = sum(
            blob is None or not self._row_ok(start + j, blob, vote[start + j])
            for start, docs in outputs for j, blob in enumerate(docs)
        )
        return failed, problems

    def _row_ok(self, i: int, blob: bytes, vote: str) -> bool:
        doc = json.loads(blob)
        query = doc["query"]
        rule = doc["rule"]
        if query != decoded(self.schema, self.test_X[i]) or doc["oracle_label"] != vote:
            return False
        if doc["faithful"] is not True or rule["prediction"] != vote or rule["support"] < 1:
            return False
        pos = {f.name: k for k, f in enumerate(self.schema.features)}
        return all(OPS[c["op"]](query[pos[c["feature"]]], c["value"])
                   for c in rule["conditions"])


class Evaluate(Workload):
    """`evaluate` path: evaluate_fidelity + report_to_csv on one round of test rows.

    Each round is evaluated as its own test set, with the seed shifted by the
    round's offset in the test rows, so every row gets the per-instance seeds
    it would get in one evaluation of all the test rows.
    """

    explainers = ["araucana", "linear"]

    def run_round(self, r: int):
        start = self.start(r)
        stop = start + self.round_rows
        test = tabular.Dataset(self.schema, self.test_X[start:stop], self.test_y[start:stop])
        report = fidelity.evaluate_fidelity(self.train, test, self.oracle, self.explainers,
                                            replace(self.cfg, seed=self.seed + start))
        summary, per_instance = fidelity.report_to_csv(report)
        return start, summary, per_instance

    def check(self, outputs) -> tuple[int, list[str]]:
        failed = 0
        agree = {name: 0 for name in self.explainers}
        for start, _, per_instance in outputs:
            rows = per_instance_rows(per_instance)
            for j in range(self.round_rows):
                recs = rows.get(j, {})
                if set(recs) != set(self.explainers) or not self.row_ok(start + j, recs):
                    failed += 1
                    continue
                for name in self.explainers:
                    agree[name] += recs[name]["agree"] == "true"
        return failed, self.overall(agree, len(outputs) * self.round_rows - failed)

    def overall(self, agree: dict, rows: int) -> list[str]:
        return []


class SubprocessXor(Evaluate):
    """xor_mixed behind a child process that computes the generator's parity rule."""

    round_rows, pass_rounds = 10, 30
    train_rows, pool_rows, data_seed = 1000, 600, CRITERION_2_SEED

    def setup(self) -> None:
        s = self.seed
        ds, self.train, pick = self.data("xor_mixed")
        self.schema = ds.schema
        self.test_X, self.test_y = ds.X[pick], ds.y[pick]
        self.stats = self.out_dir / f"parity-{os.getpid()}.stats"
        command = " ".join(shlex.quote(str(a)) for a in
                           (sys.executable, CHILD, "--stats", self.stats))
        self.oracle = oracle.SubprocessOracle(command, ds.schema, ds.task)
        self.cfg = explain.ExplainConfig(smote=smote.SmoteConfig(seed=s), seed=s)

    def black_box(self):
        return self.oracle, "oracle.subprocess"

    def counts(self) -> tuple[int, int]:
        calls, rows = self.stats.read_text(encoding="ascii").split()
        return int(calls), int(rows)

    def row_ok(self, i: int, recs: dict) -> bool:
        x = self.test_X[i]
        num = np.array([f.is_numeric for f in self.schema.features])
        bands = np.clip(np.floor(x[num] * 4), 0, 3).astype(int) % 2
        want = str(int(bands.sum() + x[~num].sum()) % 2)
        a = recs["araucana"]
        return (a["oracle_label"] == want and recs["linear"]["oracle_label"] == want
                and a["prediction"] == want and a["agree"] == "true")

    def overall(self, agree: dict, rows: int) -> list[str]:
        if rows and agree["araucana"] - agree["linear"] < 0.05 * rows:
            return [f"araucana fidelity {agree['araucana']}/{rows} does not beat "
                    f"linear {agree['linear']}/{rows} by 0.05"]
        return []

    def close(self) -> None:
        self.oracle.close()
        self.stats.unlink(missing_ok=True)


class RegressionKnn(Evaluate):
    """A closed-form regression target on imbalanced_mixed features, k-NN black box."""

    round_rows, pass_rounds = 2, 20
    train_rows, pool_rows, data_seed, k = 2000, 400, CRITERION_1_SEED, 5

    def setup(self) -> None:
        s = self.seed
        base, _, pick = self.data("imbalanced_mixed")
        self.schema = tabular.Schema(base.schema.features,
                                     tabular.TargetSpec("target", "regression"))
        X = base.X
        y = X[:, 0] * np.sin(X[:, 1]) + 0.5 * X[:, 2] ** 2 + X[:, 3]
        n = self.train_rows
        self.train = tabular.Dataset(self.schema, X[:n], y[:n])
        self.test_X, self.test_y = X[pick], y[pick]
        self.model = oracle.train_knn(self.train, k=self.k)
        self.counter = Counted(self.model)
        self.oracle = oracle.BuiltinOracle(self.model)
        self.cfg = explain.ExplainConfig(smote=smote.SmoteConfig(seed=s), seed=s)

    def black_box(self):
        return self.model, "oracle.model"

    def counts(self) -> tuple[int, int]:
        return self.counter.read()

    def knn(self, i: int) -> float:
        """k-NN prediction at test row i under Gower distance, in plain numpy."""
        feats = self.schema.features
        num = np.array([f.is_numeric for f in feats])
        lo = np.array([f.range[0] for f in feats if f.is_numeric])
        hi = np.array([f.range[1] for f in feats if f.is_numeric])
        span = hi - lo
        T, x = self.train.X, self.test_X[i]
        d_num = np.abs(np.clip(T[:, num], lo, hi) - np.clip(x[num], lo, hi))
        d_num = np.where(span > 0, d_num / np.where(span > 0, span, 1.0), 0.0)
        d = (d_num.sum(axis=1) + (T[:, ~num] != x[~num]).sum(axis=1)) / len(feats)
        near = np.argsort(d, kind="stable")[:self.k]
        return float(self.train.y[near].mean())

    def row_ok(self, i: int, recs: dict) -> bool:
        want = self.knn(i)
        for rec in recs.values():
            if abs(float(rec["oracle_label"]) - want) > 1e-9:
                return False
        label = float(recs["araucana"]["oracle_label"])
        eps = 1e-6 * abs(label) + 1e-9
        return abs(float(recs["araucana"]["prediction"]) - label) <= eps


WORKLOADS = {
    "forest_imbalanced": ForestImbalanced,
    "subprocess_xor": SubprocessXor,
    "regression_knn": RegressionKnn,
}


MIN_PASSES = 3


def timed_passes(wl: Workload, seconds: float, tracer: tracing.Tracer | None = None):
    """Passes over all rounds until `seconds` have passed and MIN_PASSES are done.

    Before every round run, the reference kernel measures the machine's
    current speed. With a tracer, each round also runs traced, alternately
    before and after the plain run. Returns the first pass's outputs, the
    total plain and traced round time, the reference kernel's times, the
    number of passes, the number of round runs whose output differed from
    the first pass, and the oracle (calls, rows) over the first pass.
    """
    n = wl.pass_rounds
    first, kernel_s = [], []
    plain_s = traced_s = 0.0
    differed, passes, window = 0, 0, None
    before = wl.counts()
    began = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - began < seconds:
        for r in range(n):
            order = (False,) if tracer is None else ((False, True), (True, False))[(passes + r) % 2]
            for traced in order:
                kernel_s.append(reference.run_kernel())
                if traced:
                    tracer.install()
                    tracer.wrap_black_box(*wl.black_box())
                    t = time.perf_counter()
                    with tracer.span("bench.round"):
                        out = wl.run_round(r)
                    traced_s += time.perf_counter() - t
                    tracer.remove()
                else:
                    t = time.perf_counter()
                    out = wl.run_round(r)
                    plain_s += time.perf_counter() - t
                if len(first) == r:
                    first.append(out)
                elif out != first[r]:
                    differed += 1
        if passes == 0:
            after = wl.counts()
            window = (after[0] - before[0], after[1] - before[1])
        passes += 1
    return first, plain_s, traced_s, kernel_s, passes, differed, window


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# span name -> per-explanation fields reported from the traced round runs
LOOP_LAYERS = {
    "gower.distances_to": ("calls", "rows", "s"),
    "smote.smote_nc": ("calls", "s"),
    "cart.fit_tree": ("calls", "rows", "s"),
    "cart.decision_path": ("s",),
    "oracle.model": ("calls", "rows", "s"),
    "oracle.subprocess": ("calls", "rows", "s"),
    "explain.select_neighborhood": ("s",),
    "explain.build_explainer_set": ("s",),
    "explain.explain_instance": ("s",),
    "explain.render_explanation": ("s",),
    "fidelity.fit_linear_explainer": ("s",),
    "fidelity.evaluate_fidelity": ("s",),
    "fidelity.report_to_csv": ("s",),
}
SETUP_LAYERS = ("tabular.synth_dataset", "oracle.train_forest", "oracle.save_model",
                "oracle.load_model")


def layer_metrics(tracer: tracing.Tracer, rows: int, overhead: float) -> dict:
    """Per-layer figures: loop layers per explanation (self times), setup
    layers as whole-call seconds, and the cost and coverage of the tracing."""
    loop = tracer.aggregate(tracing.LOOP)
    setup = tracer.aggregate(tracing.SETUP)
    zero = {"calls": 0, "rows": 0, "extra": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, fields in LOOP_LAYERS.items():
        a = loop.get(name, zero)
        for f in fields:
            if f == "s":
                out[f"{name}.s"] = metric(a["self_s"] / rows, "s/expl")
            else:
                out[f"{name}.{f}"] = metric(a[f] / rows, "count/expl")
    out["smote.synthetic_rows"] = metric(loop.get("smote.smote_nc", zero)["rows"] / rows,
                                         "count/expl")
    out["cart.nodes"] = metric(loop.get("cart.fit_tree", zero)["extra"] / rows, "count/expl")
    for name in SETUP_LAYERS:
        out[f"{name}.s"] = metric(setup.get(name, zero)["total_s"], "s")
    rounds = loop["bench.round"]
    out["bench.round.s"] = metric(rounds["self_s"] / rows, "s/expl")
    out["trace.accounted_frac"] = metric(1.0 - rounds["self_s"] / rounds["total_s"], "ratio")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--out", type=Path, required=True, help="directory for run files")
    args = ap.parse_args()
    # SMOTE reports class skips and k reductions as UserWarnings, one per query
    warnings.simplefilter("ignore", UserWarning)

    tracer = tracing.Tracer() if args.role == "trace" else None
    if tracer:
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.out)
    try:
        wl.setup()
        if tracer:
            tracer.wrap_black_box(*wl.black_box())
            tracer.phase = tracing.WARMUP
        warm = wl.run_round(0)
        t_ready = time.monotonic()
        after_setup = [reference.run_kernel() for _ in range(reference.PROBE_RUNS)]
        if args.role == "setup":
            print(json.dumps({"t_ready": t_ready, "kernel_s": after_setup}))
            return 0
        if tracer:
            tracer.remove()
            tracer.phase = tracing.LOOP

        first, plain_s, traced_s, kernel_s, passes, differed, (calls, orows) = \
            timed_passes(wl, args.seconds, tracer)
        runs = passes * (2 if tracer else 1)
        slowdown = reference.speed_factor(kernel_s)
        problems = []
        if first[0] != warm:
            problems.append("the warm-up round's output differs in the timed loop")
        if differed:
            problems.append(f"{differed} round runs differ from the first pass")
        if tracer:
            metrics = layer_metrics(tracer, passes * wl.test_rows, traced_s / plain_s - 1.0)
            metrics["bench.explanations_per_s_raw"] = metric(
                passes * wl.test_rows / plain_s, "1/s")
            metrics["bench.ref_slowdown"] = metric(slowdown, "ratio")
            tracer.dump(args.out / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            print(f"unscaled {passes * wl.test_rows / plain_s:.4f} explanations/s, "
                  f"reference slowdown {slowdown:.4f}", file=sys.stderr)
            metrics = {
                "explanations_per_s": metric(
                    passes * wl.test_rows / plain_s * slowdown, "1/s"),
                "oracle_calls_per_expl": metric(calls / wl.test_rows, "count"),
                "oracle_rows_per_expl": metric(orows / wl.test_rows, "count"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        failed, more = wl.check(first)
        problems += more
    finally:
        wl.close()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"t_ready": t_ready, "kernel_s": after_setup, "correct": not problems,
                      "attempted": runs * wl.test_rows, "failed": runs * failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
