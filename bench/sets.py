"""Sets of runs: ``python -m bench run|calibrate|compare``.

Every run is a fresh ``python bench/run.py`` subprocess, started one at
a time: no pool and no threads, so the load comes from a single
process and ``peak_rss_mb`` and the text caches start clean each time.

- ``run``       — ``REPEATS`` untraced runs per workload at one seed,
  then one traced run; prints every end-to-end metric's median and
  quartiles and the traced layer split, checks that the result digest
  is the same in every run, and writes the set to ``--out``.
- ``calibrate`` — two passes over seeds ``0..SEEDS-1`` per workload;
  derives each end-to-end metric's bound from the spread across seeds
  and the drift between the passes, writes the bounds into
  ``BENCHMARK.json`` and the medians and quartiles to
  ``bench/calibration.json``.
- ``compare``   — one row per workload and end-to-end metric of two
  saved sets, with a verdict; a worse timed metric also names the layer
  whose self time grew most in the traced runs.

Every run is sized by ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import metrics
from bench.layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
CALIBRATION_PATH = ROOT / "bench" / "calibration.json"
#: Scratch output of sets and calibrations (ignored by git).
OUT_DIR = ROOT / "bench" / "out"

#: Untraced runs per workload in a set.
REPEATS = 5
#: Seeds per calibration pass.
SEEDS = 10
#: The bound rule for untimed metrics (README.md, "Bounds"): the
#: spread across seeds 0-9 stays under a quarter of the bound, so that
#: the spread across another ten seeds, which reached 1.3 times it,
#: stays under a third; and no bound is under 3 %.
SPREAD_FACTOR = 4
FLOOR = 0.03
#: The largest bound BENCHMARK.json accepts, and the bound of every
#: timed metric: what the speed correction leaves depends on how busy
#: the shared host is, which a calibration cannot foresee (README.md,
#: "Bounds").
MAX_BOUND = 0.25


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """One fresh subprocess; returns its result, details and exit code."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(load_spec()["run_seconds"]),
               "--trace", str(int(trace))]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    details = next((json.loads(line[len("details "):])
                    for line in lines if line.startswith("details ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"returncode": completed.returncode, "result": result,
            "details": details, "stderr": completed.stderr[-2000:]}


def _values(run: Dict[str, Any]) -> Dict[str, float]:
    return {name: entry["value"]
            for name, entry in run["result"]["metrics"].items()}


def _run_problems(label: str, run: Dict[str, Any]) -> List[str]:
    if run["result"] is None:
        return [f"{label}: no result (exit {run['returncode']}): "
                f"{run['stderr'].strip()[-300:]}"]
    problems = []
    if run["returncode"] != 0 or not run["result"]["correct"]:
        found = (run["details"] or {}).get("problems", [])
        problems.append(f"{label}: failed checks: {found[:3]}")
    return problems


def run_set(workloads: Sequence[str], seed: int, log=print
            ) -> Dict[str, Any]:
    """``REPEATS`` untraced runs per workload, then one traced run."""
    out: Dict[str, Any] = {"seed": seed,
                           "seconds": load_spec()["run_seconds"],
                           "repeats": REPEATS, "cpu_count": os.cpu_count(),
                           "python": platform.python_version(),
                           "workloads": {}}
    for workload in workloads:
        entry: Dict[str, Any] = {"runs": [], "digests": [], "traced": None,
                                 "problems": []}
        for index in range(REPEATS):
            run = run_once(workload, seed, trace=False)
            entry["problems"] += _run_problems(f"{workload} run {index}",
                                               run)
            if run["result"] is not None:
                entry["runs"].append(_values(run))
                entry["digests"].append(run["details"]["result_digest"])
            log(f"  {workload} run {index + 1}/{REPEATS} done")
        run = run_once(workload, seed, trace=True)
        entry["problems"] += _run_problems(f"{workload} traced", run)
        if run["result"] is not None:
            entry["traced"] = _values(run)
            entry["digests"].append(run["details"]["result_digest"])
        log(f"  {workload} traced run done")
        if len(set(entry["digests"])) > 1:
            entry["problems"].append(
                f"{workload}: result_digest differs across repeats")
        out["workloads"][workload] = entry
    return out


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def format_set(data: Dict[str, Any]) -> str:
    lines = [f"seed {data['seed']}  seconds {data['seconds']}  "
             f"repeats {data['repeats']}  cpu_count {data['cpu_count']}  "
             f"python {data['python']}"]
    for workload, entry in data["workloads"].items():
        runs = entry["runs"]
        digests = sorted(set(entry["digests"]))
        lines.append("")
        lines.append(f"== {workload}: {len(runs)} runs, result_digest "
                     f"{digests[0][:16] if len(digests) == 1 else digests}")
        if runs:
            lines.append(f"  {'metric':<22} {'unit':<9} {'median':>10} "
                         f"{'Q1':>10} {'Q3':>10}  n")
            for name, (unit, _) in metrics.END_TO_END.items():
                q1, q2, q3 = metrics.quartiles([run[name] for run in runs])
                lines.append(f"  {name:<22} {unit:<9} {_fmt(q2):>10} "
                             f"{_fmt(q1):>10} {_fmt(q3):>10}  {len(runs)}")
        traced = entry["traced"]
        if traced:
            lines.append("  traced split (self seconds: set-up / measured; "
                         "measured calls)")
            for layer in LAYERS:
                lines.append(
                    f"    {layer:<13} {traced[f'setup.{layer}.self_s']:9.3f}"
                    f" {traced[f'{layer}.self_s']:9.3f}"
                    f" {int(traced[f'{layer}.calls']):>9}")
            lines.append(
                f"    {'unattributed':<13} "
                f"{traced['setup.unattributed_s']:9.3f} "
                f"{traced['unattributed_s']:9.3f}")
            lines.append(f"    trace_overhead_ratio "
                         f"{traced['trace_overhead_ratio']:.3f}")
        for problem in entry["problems"]:
            lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


# -- calibration -----------------------------------------------------------


def derive_bound(name: str, spreads: Sequence[float],
                 drifts: Sequence[float]) -> float:
    """``MAX_BOUND`` for a timed metric; otherwise the smallest
    whole percentage that holds ``SPREAD_FACTOR`` times every spread
    across seeds, every drift between passes, and ``FLOOR``."""
    if name in metrics.TIMED_METRICS:
        return MAX_BOUND
    needed = max([SPREAD_FACTOR * spread for spread in spreads]
                 + [abs(drift) for drift in drifts] + [FLOOR])
    return math.ceil(round(needed * 100, 6)) / 100


def calibrate(workloads: Sequence[str], log=print) -> Dict[str, Any]:
    seconds = load_spec()["run_seconds"]
    passes: List[Dict[str, Dict[str, List[float]]]] = []
    problems: List[str] = []
    for number in (1, 2):
        values: Dict[str, Dict[str, List[float]]] = {}
        for workload in workloads:
            rows: Dict[str, List[float]] = {name: [] for name in
                                            metrics.END_TO_END}
            for seed in range(SEEDS):
                run = run_once(workload, seed, trace=False)
                problems += _run_problems(
                    f"pass {number} {workload} seed {seed}", run)
                if run["result"] is not None:
                    for name, value in _values(run).items():
                        rows[name].append(value)
                log(f"  pass {number} {workload} seed {seed} done")
            values[workload] = rows
        passes.append(values)

    summary: Dict[str, Any] = {}
    bounds: Dict[str, float] = {}
    for name in metrics.END_TO_END:
        spreads, drifts = [], []
        for workload in workloads:
            first = passes[0][workload][name]
            second = passes[1][workload][name]
            spreads += [metrics.relative_spread(first),
                        metrics.relative_spread(second)]
            base = metrics.median(first)
            drifts.append((metrics.median(second) - base) / base
                          if base else 0.0)
            summary.setdefault(workload, {})[name] = {
                "pass1": dict(zip(("q1", "median", "q3"),
                                  metrics.quartiles(first))),
                "pass2": dict(zip(("q1", "median", "q3"),
                                  metrics.quartiles(second))),
                "spread1": spreads[-2], "spread2": spreads[-1],
                "drift": drifts[-1], "values1": first, "values2": second,
            }
        bounds[name] = derive_bound(name, spreads, drifts)
        worst = max(spreads + [abs(drift) for drift in drifts])
        if bounds[name] > MAX_BOUND or worst > bounds[name]:
            problems.append(
                f"{name} spread or drifted by up to {worst:.3f} and would "
                f"need a bound of {max(worst, bounds[name]):.2f} (at most "
                f"{MAX_BOUND}): steady the metric or replace it")
    return {"seeds": SEEDS, "seconds": seconds,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "bounds": bounds,
            "workloads": summary, "problems": problems}


def format_calibration(result: Dict[str, Any]) -> str:
    """Per workload and metric: both passes' medians, the spreads across
    seeds and the drift between passes; then the derived bounds."""
    lines = [f"{'workload':<12} {'metric':<22} {'pass 1':>10} {'pass 2':>10} "
             f"{'spread1':>8} {'spread2':>8} {'drift':>7}"]
    for workload, rows in result["workloads"].items():
        for name, row in rows.items():
            lines.append(
                f"{workload:<12} {name:<22} "
                f"{_fmt(row['pass1']['median']):>10} "
                f"{_fmt(row['pass2']['median']):>10} "
                f"{row['spread1']:>8.3f} {row['spread2']:>8.3f} "
                f"{row['drift']:>+7.3f}")
    lines.append("bounds: " + json.dumps(result["bounds"]))
    lines += [f"PROBLEM: {problem}" for problem in result["problems"]]
    return "\n".join(lines)


def dump_spec(spec: Dict[str, Any]) -> str:
    """BENCHMARK.json text: one line per workload and per metric."""
    parts = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            parts.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            parts.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def write_bounds(bounds: Dict[str, float]) -> None:
    """Rewrite the ``bound`` of each end-to-end metric in BENCHMARK.json."""
    spec = load_spec()
    for entry in spec["end_to_end"]:
        entry["bound"] = bounds[entry["name"]]
    SPEC_PATH.write_text(dump_spec(spec))


# -- comparison ------------------------------------------------------------


def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    *worse* when the median got worse by more than the bound; *better*
    when the median improved by more than the parent's own quartile
    distance and the change wins at least nine tenths of all pairs;
    *unresolved* when the spread exceeds the bound and the runs do not
    separate.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, base, q3 = metrics.quartiles(before)
    changed = metrics.median(after)
    gain = sign * (changed - base) / abs(base) if base else 0.0
    pairs = [(a, b) for a in before for b in after]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0) / len(pairs)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0) / len(pairs)
    spread = max(metrics.relative_spread(before),
                 metrics.relative_spread(after))
    separated = wins == 1.0 or losses == 1.0
    if -gain > bound:
        return "worse" if spread <= bound or losses == 1.0 else "unresolved"
    if abs(changed - base) > (q3 - q1) and wins >= 0.9 and gain > 0:
        return "better"
    if spread > bound and not separated:
        return "unresolved"
    return "unchanged"


def format_compare(before: Dict[str, Any], after: Dict[str, Any],
                   spec: Dict[str, Any]) -> str:
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    lines = [f"{'workload':<12} {'metric':<22} {'A median [Q1, Q3]':>30} "
             f"{'B median [Q1, Q3]':>30} {'bound':>6}  verdict"]
    for workload in workload_names(spec):
        entry = before["workloads"].get(workload)
        other = after["workloads"].get(workload)
        if not entry or not other or not entry["runs"] or not other["runs"]:
            lines.append(f"{workload:<12} (missing from one set)")
            continue
        for name, (_, better) in metrics.END_TO_END.items():
            a = [run[name] for run in entry["runs"]]
            b = [run[name] for run in other["runs"]]
            qa, qb = metrics.quartiles(a), metrics.quartiles(b)
            outcome = verdict(a, b, better, bounds[name])
            lines.append(
                f"{workload:<12} {name:<22} "
                f"{f'{_fmt(qa[1])} [{_fmt(qa[0])}, {_fmt(qa[2])}]':>30} "
                f"{f'{_fmt(qb[1])} [{_fmt(qb[0])}, {_fmt(qb[2])}]':>30} "
                f"{bounds[name]:>6.2f}  {outcome}")
            if outcome == "worse" and name in metrics.TIMED_METRICS:
                lines.append("    " + _grown_layer(name, entry, other))
    return "\n".join(lines)


def _grown_layer(name: str, before: Dict[str, Any],
                 after: Dict[str, Any]) -> str:
    """Which layer's traced self time grew most (the *why* of a
    regression)."""
    if not before.get("traced") or not after.get("traced"):
        return "no traced runs to attribute the change to"
    prefix = "setup." if name == "setup_s" else ""
    growth = {layer: after["traced"][f"{prefix}{layer}.self_s"]
              - before["traced"][f"{prefix}{layer}.self_s"]
              for layer in LAYERS}
    layer = max(growth, key=growth.get)
    return (f"layer with the largest {prefix}self-time growth: {layer} "
            f"(+{growth[layer]:.3f} s)")


def load_set(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def problems_of(data: Dict[str, Any]) -> List[str]:
    return [problem for entry in data["workloads"].values()
            for problem in entry["problems"]]


def workload_names(spec: Optional[Dict[str, Any]] = None) -> List[str]:
    spec = spec or load_spec()
    return [entry["name"] for entry in spec["workloads"]]
