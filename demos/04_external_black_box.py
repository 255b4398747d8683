"""Plug in a black box written in any language via the subprocess protocol.

The child reads one JSON object per line on stdin and answers one per line:

    {"instances": [[5.1, "a"], ...]}  ->  {"predictions": ["1", ...]}

Numerics arrive as numbers, categoricals as their category strings;
classification replies are class names (or indices), regression replies are
numbers. The child persists across batches. Here the "external model" is a
10-line Python script written to a temp file, but anything executable works
the same way.
"""

import sys
import tempfile
from pathlib import Path

from araucana import ExplainConfig, SubprocessOracle, SynthSpec, explain_instance, \
    render_explanation, synth_dataset

CHILD = '''\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    preds = []
    for inst in req["instances"]:
        total = sum(v for v in inst if isinstance(v, (int, float)))
        preds.append("1" if total > 0.0 else "0")
    print(json.dumps({"predictions": preds}), flush=True)
'''


def main():
    train = synth_dataset(SynthSpec("moons2d", 400), seed=6)

    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "external_model.py"
        script.write_text(CHILD)
        oracle = SubprocessOracle(
            f"{sys.executable} {script}", train.schema, "classification"
        )
        try:
            query = train.X[42]
            explanation = explain_instance(train, query, oracle, ExplainConfig(seed=6))
            print(render_explanation(explanation, "text").decode())
        finally:
            oracle.close()

    print("same thing from the shell:")
    print('  araucana explain --data d/data.csv --schema d/schema.json \\')
    print("      --oracle 'cmd:python3 external_model.py' --index 42")


if __name__ == "__main__":
    main()
