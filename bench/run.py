"""araucana benchmark: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from src/.
Each workload runs in a process of its own (bench/workloads.py) with BLAS
limited to one thread, all on one core. With --trace 0 the workload is first
set up in separate processes that stop after the warm-up: at least twice, and
up to eight times while they take less than SETUP_BUDGET_S. setup_s is the
median of those set-ups and the run's own; the end-to-end metrics are printed. With --trace 1 one process sets up and
runs every round of the timed loop both plain and with spans around araucana's
public functions; the per-layer metrics are printed and the spans are written
to .bench_out/.

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": rows, "failed": rows, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("forest_imbalanced", "subprocess_xor", "regression_knn")
# set-ups per --trace 0 run: at least MIN_SETUPS, and more, up to MAX_SETUPS,
# while they have taken less than SETUP_BUDGET_S; setup_s is their median
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 6.0
DEADLINE_S = 170.0


def spawn(args, role: str, out_dir: Path, env: dict, deadline: float) -> dict:
    """Run one workload process; return its result with setup_s filled in.

    setup_s is divided by the reference kernel's mean time over its nominal
    time, measured just before the process starts and just after its set-up
    ends, as the throughput is multiplied by it."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
           "--out", str(out_dir)]
    before = [reference.run_kernel() for _ in range(reference.PROBE_RUNS)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process for {args.workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    slowdown = reference.speed_factor(before + result.pop("kernel_s"))
    result["setup_s"] = (result.pop("t_ready") - started) / slowdown
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "araucana" / "__init__.py").is_file():
        print(f"no araucana sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    # one core for this launcher, the workload and the oracle child, so the
    # reference kernel measures the core that the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    try:
        if args.trace:
            result = spawn(args, "trace", out_dir, env, deadline)
        else:
            setups, began = [], time.monotonic()
            while len(setups) < MIN_SETUPS - 1 or (
                    len(setups) < MAX_SETUPS - 1 and time.monotonic() - began < SETUP_BUDGET_S):
                setups.append(spawn(args, "setup", out_dir, env, deadline)["setup_s"])
            result = spawn(args, "run", out_dir, env, deadline)
            setups.append(result["setup_s"])
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
