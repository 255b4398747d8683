"""Line-delimited JSON oracle stub used by the subprocess tests.

Reads {"instances": [[...], ...]} per line and replies {"predictions": [...]}.
Modes:
  constant   -- always --value (a class name)
  threshold  -- class "1" when the sum of numeric values exceeds --value
  regress    -- the sum of numeric values (regression)
  garbage    -- reply something that is not JSON
Options:
  --die-after N   exit(3) after answering N batches
  --delay S       sleep S seconds before each reply (on batch --delay-on only,
                  default: on all)
  --no-read       never read stdin: sleep --delay seconds (default 60), then exit
  --token T       reply the raw JSON token T (NaN, Infinity, 1e400, true, ...)
                  for every instance, on batch --token-on only (default: on all)
"""

import argparse
import json
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", default="constant",
                    choices=["constant", "threshold", "regress", "garbage"])
    ap.add_argument("--value", default="0")
    ap.add_argument("--die-after", type=int, default=0)
    ap.add_argument("--delay", type=float, default=0.0)
    ap.add_argument("--delay-on", type=int, default=0)
    ap.add_argument("--no-read", action="store_true")
    ap.add_argument("--token")
    ap.add_argument("--token-on", type=int, default=0)
    args = ap.parse_args()
    if args.no_read:
        time.sleep(args.delay or 60.0)
        return

    batches = 0
    for line in sys.stdin:
        req = json.loads(line)
        instances = req["instances"]
        if args.delay and args.delay_on in (0, batches + 1):
            time.sleep(args.delay)
        if args.mode == "garbage":
            sys.stdout.write("not json at all\n")
            sys.stdout.flush()
            continue
        batches += 1
        if args.token is not None and args.token_on in (0, batches):
            sys.stdout.write('{"predictions": [%s]}\n' % ", ".join([args.token] * len(instances)))
            sys.stdout.flush()
            continue
        preds = []
        for inst in instances:
            numeric_sum = sum(v for v in inst if isinstance(v, (int, float)))
            if args.mode == "constant":
                preds.append(args.value)
            elif args.mode == "threshold":
                preds.append("1" if numeric_sum > float(args.value) else "0")
            else:
                preds.append(numeric_sum)
        sys.stdout.write(json.dumps({"predictions": preds}) + "\n")
        sys.stdout.flush()
        if args.die_after and batches >= args.die_after:
            sys.exit(3)


if __name__ == "__main__":
    main()
