"""Generate one workload's inputs in a fresh process and time it.

    python3 perfbench/setup_inputs.py --workload replay --seed 0 --into DIR

Prints one JSON line: ``setup_s`` (from the top of this script, before
numpy and avprune are imported, to the inputs being on disk) and the
workload's setup info. run.py starts this at least four times per
untraced run and reports their median, rescaled, as ``setup_s``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--into", required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS  # imports numpy and avprune

    into = Path(args.into)
    into.mkdir(parents=True, exist_ok=True)
    info = WORKLOADS[args.workload].setup(into, args.seed)
    setup_s = time.perf_counter() - _START
    print(json.dumps({"setup_s": setup_s, "info": info}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
