"""Write the byte-stable artifact corpus into a directory and list its digests.

    python tests/artifact_corpus.py OUT_DIR
    python tests/artifact_corpus.py --record OUT_DIR

The corpus is 19 CLI runs on small synthetic data plus the four demos:
6 `synth` (every generator at its defaults, and with no numeric or no
categorical block), 2 `train` (a 20-tree forest and a k-NN model), 5
`explain --format json` and 6 `evaluate` (from each model file, one on a
regression target, one behind a `cmd:` oracle, tests/stub_oracle.py).
This is the one place that counts them.
Each run's byte-stable files (data.csv, schema.json, model.json,
explanation.json, summary.csv, per_instance.csv) and each demo's stdout
are hashed; manifest.json records a duration and is left out. The corpus
exits non-zero, naming the file, when a demo writes to stderr or when an
`explain --format json` run's stdout is not the bytes of its
explanation.json. One `sha256  name` line
is printed per file, sorted by name, so two listings can be compared with
diff: two runs of one checkout, or a checkout and its parent, where every
change that keeps the artifacts' bytes must list the same digests.

The digests depend on the numpy version: forest bootstraps, SMOTE-NC's
draws and --test-frac's split use Generator.integers, random and
permutation, and synth also draws normal values (forest feature draws are
replayed from raw PCG64 words, whose stream numpy keeps stable). So DIGESTS
holds the listing under a first line that names the numpy and Python
versions it was made on; --record rewrites it.
test_artifacts.py compares a fresh corpus with it when the running versions
are the recorded ones. A change that moves an artifact's bytes on purpose
records the digests again and says why. The program and the demos are run
from the checkout this file sits in, with its src/ first on PYTHONPATH.
Pytest does not collect this file.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "artifact_digests.txt"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# (run name, CLI arguments, the files it writes that are hashed); {data} and
# {xor} are the synth-imbalanced and synth-xor runs' --data and --schema
# flags, {forest} and {knn} the two train runs' model files, {python} the
# running interpreter
CSV, MODEL, EXPLANATION = ["data.csv", "schema.json"], ["model.json"], ["explanation.json"]
REPORTS = ["summary.csv", "per_instance.csv"]
RUNS = [
    ("synth-imbalanced", "synth --gen imbalanced_mixed --rows 300 --seed 1", CSV),
    ("synth-xor", "synth --gen xor_mixed --rows 300 --seed 2", CSV),
    ("synth-moons", "synth --gen moons2d --rows 300 --seed 4", CSV),
    ("synth-xor-categorical", "synth --gen xor_mixed --num-features 0 --cat-features 3 "
     "--rows 300 --seed 4", CSV),
    ("synth-imbalanced-numeric", "synth --gen imbalanced_mixed --cat-features 0 --rows 300 "
     "--seed 4", CSV),
    ("synth-moons-mixed", "synth --gen moons2d --num-features 3 --cat-features 2 --rows 300 "
     "--seed 4", CSV),
    ("train-forest", "train {data} --trees 20 --seed 2", MODEL),
    ("train-knn", "train {data} --model knn --k 5 --seed 2", MODEL),
    ("explain-forest", "explain {data} --oracle file:{forest} --index 5 --seed 3 --format json",
     EXPLANATION),
    ("explain-forest-smote-off", "explain {data} --oracle file:{forest} --index 17 --seed 4 "
     "--smote-policy off --format json", EXPLANATION),
    ("explain-knn-fixed", "explain {data} --oracle file:{knn} --index 9 --seed 3 "
     "--smote-policy fixed:60 --n-neighbors 40 --format json", EXPLANATION),
    ("explain-xor-instance", "explain {xor} --oracle builtin:forest --trees 20 --seed 5 "
     "--instance '{{\"num0\": 0.3, \"num1\": 0.8, \"cat0\": \"a\", \"cat1\": \"b\"}}' "
     "--format json", EXPLANATION),
    ("explain-regression", "explain --data {data_csv} --target num0 --oracle builtin:knn "
     "--index 7 --seed 3 --format json", EXPLANATION),
    ("evaluate-forest", "evaluate {data} --oracle file:{forest} --test-frac 0.1 "
     "--explainers araucana,linear --seed 3", REPORTS),
    ("evaluate-xor", "evaluate {xor} --oracle builtin:forest --trees 20 --test-frac 0.1 "
     "--explainers araucana,linear --seed 4", REPORTS),
    ("evaluate-regression", "evaluate --data {data_csv} --target num0 --oracle builtin:knn "
     "--test-frac 0.1 --explainers araucana,linear --seed 3", REPORTS),
    ("evaluate-knn", "evaluate {data} --oracle file:{knn} --test-frac 0.1 --seed 3", REPORTS),
    ("evaluate-forest-araucana", "evaluate {data} --oracle file:{forest} --test-frac 0.1 "
     "--seed 3", REPORTS),
    ("evaluate-xor-cmd", "evaluate {xor} --oracle 'cmd:{python} tests/stub_oracle.py --mode "
     "threshold --value 1.0' --test-frac 0.1 --explainers araucana,linear --seed 4", REPORTS),
]


def _run(argv) -> tuple[bytes, bytes]:
    """The stdout and stderr of argv, run with this checkout's src/ first on
    PYTHONPATH; a failed run exits with its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr.decode()}")
    return done.stdout, done.stderr


def run_demo(demo: Path, python: str = sys.executable) -> bytes:
    """The stdout of demo run by python; a demo that writes to stderr exits
    with it."""
    stdout, stderr = _run([python, str(demo)])
    if stderr:
        sys.exit(f"demos/{demo.name} wrote to stderr:\n{stderr.decode()}")
    return stdout


def write_corpus(out: Path) -> dict[str, str]:
    """Write every run's files and every demo's stdout under out; return
    each hashed file's sha256 by its name relative to out."""
    data, xor = out / "synth-imbalanced", out / "synth-xor"
    names = {  # paths hold no spaces or quotes: shlex splits the arguments
        "data": f"--data {data / 'data.csv'} --schema {data / 'schema.json'}",
        "xor": f"--data {xor / 'data.csv'} --schema {xor / 'schema.json'}",
        "data_csv": str(data / "data.csv"),
        "forest": str(out / "train-forest" / "model.json"),
        "knn": str(out / "train-knn" / "model.json"),
        "python": sys.executable,
    }
    files = []
    for name, args, written in RUNS:
        argv = [sys.executable, "-m", "araucana"] + shlex.split(args.format(**names))
        stdout, _ = _run(argv + ["--out", str(out / name)])
        files += [f"{name}/{f}" for f in written]
        if "--format json" in args and stdout != (out / name / "explanation.json").read_bytes():
            sys.exit(f"{name}/explanation.json differs from the JSON its run printed")
    for demo in DEMOS:
        (out / f"demo-{demo.stem}.out").write_bytes(run_demo(demo))
        files.append(f"demo-{demo.stem}.out")
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in sorted(files)}


def versions() -> str:
    """The versions the digests depend on, as DIGESTS's first line names them."""
    return f"numpy {np.__version__}, Python {sys.version_info[0]}.{sys.version_info[1]}"


def read_digests() -> tuple[str, dict[str, str]]:
    """The versions DIGESTS was recorded on, and its sha256 by file name."""
    head, *lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    pairs = (line.split("  ", 1) for line in lines)
    return head.removeprefix("# "), {name: digest for digest, name in pairs}


def main(argv) -> int:
    record = argv[:1] == ["--record"]
    if len(argv) != 1 + record:
        sys.exit(f"usage: python {Path(__file__).name} [--record] OUT_DIR")
    out = Path(argv[-1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    listing = "".join(f"{digest}  {name}\n" for name, digest in write_corpus(out).items())
    if record:
        DIGESTS.write_text(f"# {versions()}\n{listing}", encoding="utf-8")
    sys.stdout.write(listing)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
