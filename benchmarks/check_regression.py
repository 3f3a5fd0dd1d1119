"""Perf-trajectory regression guard.

Re-runs the pipeline benches with the *same workload parameters* the
committed ``BENCH_pipeline.json`` baseline recorded, and fails (exit
code 1) when any throughput metric fell more than ``--tolerance``
(default 20 %) below the baseline. Run it from the repo root::

    PYTHONPATH=src python -m benchmarks.check_regression
    PYTHONPATH=src python -m benchmarks.check_regression --tolerance 0.3
    PYTHONPATH=src python -m benchmarks.check_regression --update

``--update`` merges the fresh run into the baseline instead of
comparing (sections the run skips, such as ``profile``, stay) — use it
after an intentional perf change (and commit the new numbers with the
PR that earned them).

Baselines are machine-relative: comparing a laptop run against a CI
baseline measures the machines, not the code. Regenerate with
``--update`` (or ``python -m repro perf``) when moving machines.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import perf

#: The committed baseline lives at the repo root, one level above
#: this package.
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    perf.DEFAULT_BASELINE_NAME)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_regression",
        description="compare a fresh perf run against the committed "
                    "BENCH_pipeline.json baseline")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON (default {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional slowdown per metric "
                             "(default 0.2 = 20%%)")
    parser.add_argument("--update", action="store_true",
                        help="merge the fresh run into the baseline "
                             "instead of comparing")
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; generate one with "
              f"`python -m repro perf` (or --update)", file=sys.stderr)
        if not args.update:
            return 2
        baseline = None
    else:
        baseline = perf.load_baseline(args.baseline)

    params = dict(baseline["meta"]["params"]) if baseline else {}
    fresh = perf.run_all(**params)

    if args.update or baseline is None:
        perf.write_baseline(
            fresh if baseline is None
            else perf.merge_baseline(baseline, fresh), args.baseline)
        print(f"updated {args.baseline}")
        return 0

    if not fresh["sensitivity"]["scores_bit_identical"]:
        print("FAIL: indexed linkability diverged from the linear scan",
              file=sys.stderr)
        return 1

    scaling = fresh.get("engine_scaling")
    if scaling is not None and not scaling["sharded_identical"]:
        print("FAIL: sharded engine results diverged from the unsharded "
              "baseline", file=sys.stderr)
        return 1

    rows = perf.compare(baseline, fresh, tolerance=args.tolerance)
    width = max(len(row["metric"]) for row in rows)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'ratio':>7}")
    failed = False
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        failed = failed or row["regressed"]
        print(f"{row['metric']:<{width}}  {row['baseline']:>12.1f}  "
              f"{row['fresh']:>12.1f}  {row['ratio']:>6.2f}x  {verdict}")
    print(f"\ntolerance: fresh >= {(1 - args.tolerance):.2f}x baseline "
          f"per metric")
    if failed:
        print("FAIL: perf regression against the committed baseline",
              file=sys.stderr)
        return 1
    print("ok: no perf regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
