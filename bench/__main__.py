"""``python -m bench run|calibrate|compare`` (run from the repository
root with ``PYTHONPATH=src``). See ``bench/sets.py``."""

from __future__ import annotations

import argparse
import json
import sys

from bench import metrics, sets


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help=f"{sets.REPEATS} runs per workload plus one traced run")
    run.add_argument("--workloads", default=None,
                     help="comma-separated (default: all four)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the set as JSON")

    commands.add_parser("calibrate",
                        help="derive the bounds of BENCHMARK.json")

    compare = commands.add_parser("compare", help="compare two saved sets")
    compare.add_argument("before")
    compare.add_argument("after")

    args = parser.parse_args(argv)
    spec = sets.load_spec()
    problems = metrics.catalogue_matches(spec)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    if args.command == "compare":
        print(sets.format_compare(sets.load_set(args.before),
                                  sets.load_set(args.after), spec))
        return 0

    if args.command == "run":
        names = (args.workloads.split(",") if args.workloads
                 else sets.workload_names(spec))
        data = sets.run_set(names, args.seed, log=log)
        print(sets.format_set(data))
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(data, handle, indent=1, sort_keys=True)
        return 1 if sets.problems_of(data) else 0

    result = sets.calibrate(sets.workload_names(spec), log=log)
    print(sets.format_calibration(result))
    targets = [sets.OUT_DIR / "calibration.json"]
    if not result["problems"]:
        sets.write_bounds(result["bounds"])
        targets.append(sets.CALIBRATION_PATH)
    sets.OUT_DIR.mkdir(exist_ok=True)
    for target in targets:
        target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
