"""Run one benchmark workload once and print its metrics.

From the root of a checkout::

    python3 bench/run.py --workload search --seed 0 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.
The exit code is 0 only when every correctness check passed. The
program under test is imported from ``src/`` next to this directory;
without it the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> bool:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return False
    origin = Path(repro.__file__).resolve().parent
    if origin != ROOT / "src" / "repro":
        print(f"bench: repro was imported from {origin}, not from this "
              f"checkout", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_program():
        return 2

    from bench.runner import format_report, run
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(format_report(outcome))
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
