"""Spans and counts recorded around calls into araucana's public functions.

Each traced function is replaced, in every loaded `araucana` module that holds
it, by a wrapper that records a span (name, parent span, phase, start, end)
plus the work it was handed. Replacing it wherever it is held catches callers
that imported it by name (`from .gower import distances_to`) as well as those
that look it up on its defining module (`cart.fit_tree`). Spans stay in memory
and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

_MISSING = object()

SETUP = "setup"
WARMUP = "warmup"
LOOP = "loop"
PHASES = (SETUP, WARMUP, LOOP)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _n_rows(rows) -> int:
    return 1 if np.ndim(rows) == 1 else len(rows)


# (defining module, function, span name, (args, kwargs, result) -> (rows, extra))
TRACED = (
    ("tabular", "synth_dataset", "tabular.synth_dataset", None),
    ("gower", "distances_to", "gower.distances_to",
     lambda a, k, r: (_n_rows(_arg(a, k, 2, "rows")), 0)),
    ("smote", "smote_nc", "smote.smote_nc", lambda a, k, r: (len(r[0]), 0)),
    ("cart", "fit_tree", "cart.fit_tree",
     lambda a, k, r: (len(_arg(a, k, 0, "rows")),
                      sys.modules["araucana.cart"].tree_stats(r)["node_count"])),
    ("cart", "decision_path", "cart.decision_path", None),
    ("oracle", "train_forest", "oracle.train_forest", None),
    ("oracle", "save_model", "oracle.save_model", None),
    ("oracle", "load_model", "oracle.load_model", None),
    ("explain", "select_neighborhood", "explain.select_neighborhood", None),
    ("explain", "build_explainer_set", "explain.build_explainer_set", None),
    ("explain", "explain_instance", "explain.explain_instance", None),
    ("explain", "render_explanation", "explain.render_explanation", None),
    ("fidelity", "fit_linear_explainer", "fidelity.fit_linear_explainer", None),
    ("fidelity", "evaluate_fidelity", "fidelity.evaluate_fidelity", None),
    ("fidelity", "report_to_csv", "fidelity.report_to_csv", None),
)


def _rows_in(a, k, r):
    return _n_rows(_arg(a, k, 0, "rows")), 0


class Tracer:
    """In-memory span recorder; `install` patches araucana, `remove` undoes it.

    Spans are kept column-wise in typed arrays, which hold no Python objects,
    so a long traced run adds no work to the garbage collector.
    """

    def __init__(self):
        self.phase = SETUP
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.phases = array("b")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.extra = array("q")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, old value)

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.phases.append(PHASES.index(self.phase))
        self.rows.append(0)
        self.extra.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a loop, one round of work)."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, fn, name, measure=None):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if measure is not None:
                self.rows[idx], self.extra[idx] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever an araucana module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "araucana" or n.startswith("araucana."))]
        for mod_name, attr, name, measure in TRACED:
            fn = getattr(sys.modules[f"araucana.{mod_name}"], attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(fn, name, measure)
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def wrap_black_box(self, obj, name: str) -> None:
        """Trace predict_batch on one black-box instance (a model or an oracle)."""
        self._patches.append((obj, "predict_batch", vars(obj).get("predict_batch", _MISSING)))
        obj.predict_batch = self.wrap(obj.predict_batch, name, _rows_in)

    def remove(self) -> None:
        for obj, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(obj, attr)  # drops the instance attribute, exposing the method
            else:
                setattr(obj, attr, old)
        self._patches.clear()

    def aggregate(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name within one phase: calls, rows, extra, total and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        ph = PHASES.index(phase)
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            if self.phases[i] != ph:
                continue
            a = out.setdefault(self.names[self.name[i]], {"calls": 0, "rows": 0, "extra": 0,
                                                          "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["rows"] += self.rows[i]
            a["extra"] += self.extra[i]
            a["total_s"] += dur[i]
            a["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]], "parent": self.parent[i],
                    "phase": PHASES[self.phases[i]], "start": self.start[i],
                    "end": self.end[i], "rows": self.rows[i], "extra": self.extra[i],
                }) + "\n")
