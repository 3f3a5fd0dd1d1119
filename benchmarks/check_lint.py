"""Static-analysis gate: the trust-boundary linter must stay clean.

Runs :mod:`repro.lint` — the whole-program PDG taint analysis plus
the span-key, enclave-boundary, determinism and layering checkers —
over ``src/repro`` and fails on any finding that is not recorded (with a
reviewed justification) in the repo-root ``lint-baseline.txt``.

This is the static sibling of ``check_obs_leak.py``: that gate proves
at *runtime* that telemetry carries no protocol secrets; this one
proves at *parse time* that no code path can route query text to a
wire payload, log line, exception message or span attribute outside
the sanctioned enclave scope — and that the simulation stays
deterministic and the layering DAG acyclic.

Exit code 0 on a clean run, 1 on any non-baselined finding, 2 when
the root is not a directory — wire it into CI next to
``check_regression.py``::

    PYTHONPATH=src python -m benchmarks.check_lint
    PYTHONPATH=src python -m benchmarks.check_lint --root /tmp/tree --no-baseline
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_lint",
        description="fail on non-baselined repro.lint findings")
    parser.add_argument("--root", default=None,
                        help="source root to lint (default: the installed "
                             "src/ tree)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: lint-baseline.txt "
                             "next to this repo's benchmarks/)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; fail on every finding")
    args = parser.parse_args(argv)

    from repro.lint import (default_root, format_text, load_baseline,
                            run_lint)

    root = Path(args.root).resolve() if args.root else default_root()
    if not root.is_dir():
        print(f"check_lint: root is not a directory: {root}",
              file=sys.stderr)
        return 2
    findings = run_lint(root=root)

    grandfathered = []
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        else:
            baseline_path = Path(__file__).resolve().parent.parent / \
                "lint-baseline.txt"
        if baseline_path.exists():
            baseline = load_baseline(baseline_path)
            findings, grandfathered = baseline.apply(findings)
            stale = baseline.stale_entries(
                list(findings) + list(grandfathered))
            if stale:
                print(f"note: {len(stale)} stale baseline entries "
                      "(fixed — remove them from the baseline)")

    print(format_text(findings))
    if grandfathered:
        print(f"({len(grandfathered)} baselined findings suppressed)")
    if findings:
        print("static analysis failed — a trust-boundary, determinism "
              "or layering invariant is violated (docs/static-analysis.md)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
