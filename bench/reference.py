"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same work takes up to twice as long in some stretches
as in others, because other tenants compete for the core, its caches and its
memory. The slowdown lasts from seconds to minutes, so a 25-second run can sit
wholly inside one. The timed loop therefore runs this kernel before every
round. The kernel does the kinds of work araucana's loop does, on fixed data
and without calling araucana: routing rows through arrays with small numpy
operations, sorting and cumulative sums as in a split search, distances from
one row to a table of rows and a nearest-neighbor sort, and JSON encoding. Its time is a measure of the machine's current speed that no change
to araucana can move. `speed_factor` compares it with its nominal time.
"""

from __future__ import annotations

import json
import time

import numpy as np

# about the mean time of one kernel run on the reference machine in its fast
# stretches; runs of one workload are compared through the same constant
NOMINAL_S = 0.006
PROBE_RUNS = 40  # kernel runs that measure the speed just before and after a set-up

_rng = np.random.default_rng(20211015)
_VALUES = _rng.random(4000)
_ROWS = _rng.integers(0, 4000, size=200)
_SPLIT = _rng.random(300)
_TABLE = _rng.random((2000, 6))
_DOCS = [{"feature": f"num{i % 7}", "op": "<=", "value": float(v), "support": i}
         for i, v in enumerate(_rng.random(250))]


def run_kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        v = _VALUES[_ROWS]
        go_left = v <= 0.5
        acc += float(np.where(go_left, v, -v).sum())
        acc += len(np.flatnonzero(go_left))
    for _ in range(20):
        order = np.argsort(_SPLIT, kind="stable")
        acc += float(np.cumsum(_SPLIT[order])[-1])
    for i in range(10):
        d = np.abs(_TABLE - _TABLE[i]).sum(axis=1)
        acc += float(d[np.argsort(d, kind="stable")[:5]].sum())
    for _ in range(3):
        acc += len(json.dumps(_DOCS))
    return time.perf_counter() - t


def speed_factor(kernel_s: list[float]) -> float:
    """How much slower than nominal the machine ran: mean kernel time / nominal."""
    return sum(kernel_s) / len(kernel_s) / NOMINAL_S
