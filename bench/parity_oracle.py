"""Subprocess black box for the subprocess_xor workload.

Speaks araucana's JSON-lines oracle protocol and answers with the exact
labelling rule of the xor_mixed generator: the parity of the quarter-band of
each numeric feature plus the index of each categorical feature. It counts
the requests and rows it receives and, before each reply, writes
"<requests> <rows>" to the --stats file, so the benchmark sees the oracle
traffic at the black box itself.
"""

import argparse
import json
import math
import os
import sys

CATEGORIES = "abcdefgh"  # the generator's category names, in index order


def parity(instance) -> str:
    bits = 0
    for v in instance:
        if isinstance(v, str):
            bits += CATEGORIES.index(v)
        else:
            bits += min(max(math.floor(v * 4), 0), 3) % 2
    return str(bits % 2)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--stats", required=True, help="file that receives '<requests> <rows>'")
    args = ap.parse_args()
    fd = os.open(args.stats, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    requests = rows = 0
    try:
        for line in sys.stdin:
            instances = json.loads(line)["instances"]
            requests += 1
            rows += len(instances)
            os.pwrite(fd, f"{requests} {rows}".ljust(40).encode("ascii"), 0)
            sys.stdout.write(json.dumps({"predictions": [parity(x) for x in instances]}) + "\n")
            sys.stdout.flush()
    finally:
        os.close(fd)


if __name__ == "__main__":
    main()
