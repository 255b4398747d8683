"""Mutation checks: each mutant is a small, deliberate fault that named tests
must catch.

A mutant is a file, an exact source fragment in it, the fragment's
replacement and the test ids expected to fail. The script copies src/ and
tests/ to a temporary directory, runs the named tests of all the mutants once
on the clean copy (they must pass), then applies one mutant at a time and runs
its tests with CI's warning flags. A mutant is killed when a test fails or
when its run passes the time limit (a wrong child id can make a tree walk
loop for ever). The script exits non-zero when a mutant survives, when its
fragment is not in its file exactly once, or when a run ends in another way
(a test id that no longer exists, say). So a refactor cannot retire a mutant
silently: it updates or deletes the mutant and says so.

    python tests/mutants.py

pytest does not collect this file: it is not named test_*.py.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning",
         "-W", "error::UserWarning", "-W", "error::ResourceWarning",
         "-W", "error::pytest.PytestUnraisableExceptionWarning"]
TIME_LIMIT = 120  # seconds per mutant run; the clean run takes well under a minute


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]


GROWN = "tests/test_cart.py::test_trees_grown_together_equal_trees_grown_alone"
ROUTED = "tests/test_cart.py::test_route_equals_reference_walk"
BLOCKED = "tests/test_oracle.py::test_blocked_knn_equals_full_pass"
TIE = "tests/test_oracle.py::test_blocked_knn_tie_at_one_over_p_goes_to_the_full_pass"
STAGE = "tests/test_fidelity.py::test_stage_fit_equals_the_per_row_reference"
PATH = "tests/test_cart.py::test_path_growth_reaches_the_whole_trees_leaf"
GINI = "tests/test_cart.py::test_class_major_gini_equals_the_row_sums_bit_for_bit"
SHARED = "tests/test_fidelity.py::test_shared_neighborhood_equals_reference_and_labels_x_once"
CAPPED = "tests/test_oracle.py::test_subprocess_requests_are_capped_and_each_has_its_own_timeout"

MUTANTS = [
    # the preorder of the nodes' slices: lo ties must keep id order
    Mutant("src/araucana/cart.py",
           'at = np.argsort(cols["lo"], kind="stable")', 'at = np.argsort(cols["lo"])',
           (GROWN,)),
    Mutant("src/araucana/cart.py",
           "right[chain[:-1]] = chain[1:]", "right[chain[1:]] = chain[:-1]", (GROWN,)),
    Mutant("src/araucana/cart.py",
           "(at < n_trees).nonzero()[0]", "(at <= n_trees).nonzero()[0]", (GROWN,)),
    # hi ties must keep preorder, or a right child can point back up and a walk loops
    Mutant("src/araucana/cart.py",
           'chain = np.argsort(cols["hi"][at], kind="stable")',
           'chain = np.argsort(cols["hi"][at])', (GROWN,)),
    # from 8 classes up numpy's row sums add the squared shares pairwise
    Mutant("src/araucana/cart.py", "if len(sq) >= 8:", "if len(sq) > 8:", (GINI,)),
    # path growth: the child that holds the kept row stays open, no other node
    # does, and the kept row is the tree's own kept position
    Mutant("src/araucana/cart.py", "alive &= held", "alive &= held ^ (ids >= len(self.stacks))",
           (PATH,)),  # under each split on the path the other child is grown
    Mutant("src/araucana/cart.py",
           "self.keep = None if keep is None else np.asarray(keep, dtype=np.int64)",
           "self.keep = None if keep is None else np.subtract(ends, [len(r) for r in samples])",
           (PATH,)),  # each tree's first sample position
    Mutant("src/araucana/cart.py", "held[seg[P == self.keep[tree[seg]]]] = True",
           "held[seg[P != self.keep[tree[seg]]]] = True", (PATH,)),  # the whole tree grows
    # the level walk
    Mutant("src/araucana/cart.py",
           "np.stack((table.right[inner], inner + 1), 1)",
           "np.stack((inner + 1, table.right[inner]), 1)", (ROUTED,)),
    Mutant("src/araucana/cart.py",
           '"depth": len(_levels(tree.table, [0])) - 2',
           '"depth": len(_levels(tree.table, [0])) - 1', ("tests/test_cart.py",)),
    Mutant("src/araucana/cart.py",
           "level = np.asarray(roots, dtype=np.int64)",
           "level = np.sort(np.asarray(roots, dtype=np.int64))", (ROUTED,)),
    # the routing plan
    Mutant("src/araucana/cart.py",
           "first = np.arange(-1, len(ids) - 1)", "first = np.arange(len(ids))", (ROUTED,)),
    Mutant("src/araucana/cart.py",
           "col[~num] = n_row + len(pairs[0])", "col[~num] = 0", (ROUTED,)),
    Mutant("src/araucana/cart.py",
           "first[split] = n_roots + 2 * np.arange", "first[split] = n_roots + 1 + 2 * np.arange",
           (ROUTED,)),
    Mutant("src/araucana/cart.py",
           "out[pair[done]] = plan.ids.take(node[done])", "out[pair[done]] = node[done]",
           (ROUTED,)),
    # the k-NN group search: exact only below 1/p, in row order and with the
    # full pass behind it; a code outside its categories searches no group
    Mutant("src/araucana/gower.py",
           "ok = g_dist[:, -1] < 1.0 / schema.n_features",
           "ok = g_dist[:, -1] <= 1.0 / schema.n_features", (TIE,)),
    Mutant("src/araucana/gower.py",
           'order = np.argsort(keys, kind="stable")', "order = np.argsort(keys)", (BLOCKED,)),
    Mutant("src/araucana/gower.py",
           "ok = g_dist[:, -1] < 1.0 / schema.n_features",
           "ok = np.ones(len(g_dist), dtype=bool)", (BLOCKED,)),
    Mutant("src/araucana/gower.py",
           "valid = ((codes == np.floor(codes)) & (codes >= 0) & (codes < sizes)).all(axis=1)",
           "valid = np.ones(len(X), dtype=bool)", (BLOCKED,)),
    # the linear baseline's recipe
    Mutant("src/araucana/fidelity.py", "kernel_width = 0.75 * np.sqrt",
           "kernel_width = 0.7 * np.sqrt", (STAGE,)),
    Mutant("src/araucana/fidelity.py", "+= 1e-3  # the ridge term",
           "+= 1e-2  # the ridge term", (STAGE,)),
    Mutant("src/araucana/fidelity.py", "/ kernel_width**2)", "/ kernel_width)", (STAGE,)),
    Mutant("src/araucana/fidelity.py", "gram[:, np.arange(dim), np.arange(dim)]",
           "gram[:, np.arange(dim + 1), np.arange(dim + 1)]", (STAGE,)),  # a penalised intercept
    Mutant("src/araucana/fidelity.py", "return scores.argmax(axis=1) if classes",
           "return scores.shape[1] - 1 - scores[:, ::-1].argmax(axis=1) if classes", (STAGE,)),
    # evaluate keeps each explainer set's query row, which follows its neighbors
    Mutant("src/araucana/explain.py", "keep = [a + len(nbh.rows) for a,",
           "keep = [a + len(nbh.rows) - 1 for a,", (SHARED,)),
    # a 0-row batch still sends one request, and gets a 0-row reply
    Mutant("src/araucana/oracle.py",
           "for a in range(0, max(len(rows), 1), SUBPROCESS_REQUEST_ROWS)",
           "for a in range(0, len(rows), SUBPROCESS_REQUEST_ROWS)", (CAPPED,)),
    # every oracle failure is an OracleError, an unparsable command's too
    Mutant("src/araucana/oracle.py",
           'raise OracleError(f"cannot parse oracle command {self.command!r}: {exc}") from exc',
           "raise", ("tests/test_oracle.py::test_subprocess_unknown_command",)),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(copy: Path, tests) -> tuple[str, float]:
    """'passed', 'failed', 'timeout' or 'error (exit code n)' for one pytest
    run of tests in the copy, and its seconds. A timed-out run is killed
    with every process it started."""
    # no bytecode cache: a mutant of the same size and second as the clean
    # source could otherwise be read back from a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *FLAGS, *tests]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.monotonic() - start
    seconds = time.monotonic() - start
    return {0: "passed", 1: "failed"}.get(code, f"error (exit code {code})"), seconds


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="araucana-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        outcome, seconds = _run(copy, tests)
        print(f"clean: {outcome} in {seconds:.1f} s", flush=True)
        if outcome != "passed":
            return 1
        for i, mutant in enumerate(MUTANTS):
            target = copy / mutant.path
            source = target.read_text()
            found = source.count(mutant.fragment)
            if found != 1:
                print(f"mutant {i}: its fragment is in {mutant.path} {found} times, not once")
                bad += 1
                continue
            target.write_text(source.replace(mutant.fragment, mutant.replacement))
            try:
                outcome, seconds = _run(copy, mutant.tests)
            finally:
                target.write_text(source)
            killed = outcome in ("failed", "timeout")
            bad += not killed
            print(f"mutant {i}: {'killed' if killed else 'NOT KILLED'} ({outcome} in "
                  f"{seconds:.1f} s): {mutant.path}: {mutant.replacement}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
