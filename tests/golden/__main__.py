"""Check the golden digests, or re-baseline them with ``--update``."""

from __future__ import annotations

import argparse
import sys
import time

from tests.golden import ARTEFACTS, digest, load, save


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("--update", action="store_true",
                        help="rewrite digests.json from the current code")
    args = parser.parse_args(argv)
    recorded = load()
    current = {}
    drifted = []
    for name in ARTEFACTS:
        started = time.perf_counter()
        current[name] = digest(name)
        if current[name] != recorded.get(name):
            drifted.append(name)
        print(f"{name:18s} {current[name][:16]}  "
              f"{time.perf_counter() - started:5.1f}s"
              f"{'  DRIFTED' if name in drifted else ''}")
    if args.update:
        save(current)
        print(f"wrote {len(current)} digests")
        return 0
    if drifted:
        print(f"drifted: {', '.join(drifted)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
