"""One benchmark run: replay, check, report.

A run is ``REPLAYS`` identical replays of its workload at a third of
the run's size each. A replay sets the workload up afresh and measures
it. The replays run the same inputs through the same deterministic
simulation, so they must agree on every result. An untraced replay runs
under a :class:`bench.speed.Speedometer`, and its times are reference
seconds. An untraced run (``--trace 0``) reports ``setup_s`` as the
median of its set-ups and the other timings over all its replays
together (see :func:`metrics.end_to_end`). A traced run (``--trace 1``)
installs :class:`bench.layers.LayerTracer` for its middle replay only;
that replay is timed in plain CPU seconds, and the replays around it
give the untraced reference for ``trace_overhead_ratio``.

Every run checks its outputs and fails (non-zero exit) when:

- a search never delivers a result, delivers it twice, ends in a status
  its workload does not allow, or stays outstanding after the drain;
- a relay ever carried both the real query and a fake of one search;
- an ``ok`` search's hit URLs differ from an unsharded
  ``SearchEngine(corpus).search(query)`` computed after the timed phase;
- the replays' result digests differ (this covers a traced replay
  against the untraced ones);
- the program left a thread running or ran a child process, whose work
  the timings would miss;
- (traced) the layer split misses the traced total by more than 1 %.
"""

from __future__ import annotations

import gc
import json
import resource
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from bench import metrics
from bench.layers import LayerTracer, Phase
from bench.speed import CpuClock, Speedometer, now
from bench.workloads import WORKLOADS, Outcome, Workload

#: Replays per run: each sets the workload up once, and ``setup_s`` is
#: their median.
REPLAYS = 3


def _peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _cold_start() -> None:
    """Forget what an earlier replay in this process left behind: every
    set-up and measured phase starts with cold text caches, as a fresh
    browser session does."""
    from repro.text.cache import clear_caches

    clear_caches()
    gc.collect()


@dataclass
class Replay:
    """One set-up and measured phase, its times in seconds of its clock:
    reference seconds untraced, plain CPU seconds traced (see
    :mod:`bench.speed`)."""

    system: Any
    outcome: Outcome
    #: Public-state deltas over the measured phase.
    counters: Dict[str, float]
    peak_rss_bytes: int
    setup_s: float
    measured_s: float
    #: Per search, from issuing it to its result (None: no result).
    search_s: List[Optional[float]]
    #: CPU seconds of set-up plus measured phase, less any probing.
    unprobed_s: float
    #: The (set-up, measured) layer split of a traced replay.
    phases: Optional[Tuple[Phase, Phase]] = None


def replay(workload: Workload, inputs,
           tracer: Optional[LayerTracer] = None) -> Replay:
    _cold_start()
    phases = None
    if tracer is None:
        clock = Speedometer()
        with clock:
            start = now()
            system = workload.setup(inputs)
            ready = now()
            before = workload.counters(system)
            outcome = workload.measure(system, inputs)
    else:
        clock = CpuClock()
        tracer.install()
        try:
            with tracer.phase() as setup:
                start = now()
                system = workload.setup(inputs)
                ready = now()
            before = workload.counters(system)
            with tracer.phase() as measured:
                outcome = workload.measure(system, inputs)
        finally:
            tracer.uninstall()
        phases = (setup, measured)
    return Replay(
        system=system, outcome=outcome,
        counters=_delta(workload.counters(system), before),
        peak_rss_bytes=_peak_rss_bytes(),
        setup_s=clock.seconds(start, ready),
        measured_s=clock.seconds(*outcome.span),
        search_s=[None if record is None else clock.seconds(*record["span"])
                  for record in outcome.records],
        unprobed_s=(clock.unprobed(start, ready)
                    + clock.unprobed(*outcome.span)),
        phases=phases)


def _delta(after: Dict[str, float], before: Dict[str, float]
           ) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def check_outcome(workload: Workload, system: Any, outcome: Outcome,
                  counters: Dict[str, float]) -> Tuple[int, List[str]]:
    """(searches that failed, every problem found)."""
    from repro.searchengine.engine import SearchEngine

    problems: List[str] = []
    failed = 0
    reference: Optional[SearchEngine] = None
    expected: Dict[str, List[str]] = {}
    for index, record in enumerate(outcome.records):
        if record is None:
            failed += 1
            problems.append(f"search {index} never delivered a result")
            continue
        if record["status"] not in workload.allowed_statuses:
            failed += 1
            problems.append(f"search {index} ended {record['status']!r}")
            continue
        if record["status"] != "ok":
            continue
        query = record["query"]
        if query not in expected:
            if reference is None:
                reference = SearchEngine(workload.corpus(system))
            expected[query] = [hit.url for hit in reference.search(query)]
        if record["urls"] != expected[query]:
            failed += 1
            problems.append(f"search {index} ({query!r}) returned hits that "
                            f"differ from the unsharded engine")
    if outcome.duplicates:
        problems.append(f"{outcome.duplicates} duplicate on_result deliveries")
    if outcome.outstanding:
        problems.append(f"{outcome.outstanding} searches still outstanding "
                        f"after the drain")
    if counters["disjointness_violations"]:
        problems.append(f"{counters['disjointness_violations']} searches "
                        f"reused a relay for the real query and a fake")
    return failed, problems


def _statuses(records) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        status = "none" if record is None else record["status"]
        counts[status] = counts.get(status, 0) + 1
    return dict(sorted(counts.items()))


def _work_elsewhere() -> Tuple[int, float]:
    """(threads besides this one, CPU seconds of ended child processes)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return threading.active_count() - 1, children.ru_utime + children.ru_stime


def _untimed_work(before: Tuple[int, float]) -> List[str]:
    """Timings read the calling thread's CPU time (:mod:`bench.speed`):
    work the program moved to another thread or a child process since
    *before* would go untimed."""
    threads, child_s = _work_elsewhere()
    problems = []
    if threads > before[0]:
        problems.append(f"the program left {threads - before[0]} threads "
                        f"running; the timings miss their work")
    if child_s > before[1]:
        problems.append("the program ran child processes; the timings miss "
                        "their work")
    return problems


def _disagreements(replays: List[Replay]) -> List[str]:
    if len({metrics.result_digest(item.outcome.records)
            for item in replays}) > 1:
        return ["the replays' result digests differ"]
    return []


def _per_layer(replays: List[Replay]
               ) -> Tuple[Dict[str, float], List[str]]:
    traced = next(item for item in replays if item.phases is not None)
    untraced = [item for item in replays if item is not traced]
    setup, measured = traced.phases
    problems = []
    for phase in (setup, measured):
        try:
            phase.check()
        except RuntimeError as exc:
            problems.append(str(exc))
    values = metrics.per_layer(
        setup, measured, traced.counters,
        untraced_s=metrics.median(item.unprobed_s for item in untraced),
        traced_s=traced.unprobed_s,
        untraced_measure_s=metrics.median(item.measured_s
                                          for item in untraced))
    return values, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    """One run; returns the contract result plus a details block."""
    workload = WORKLOADS[workload_name]
    inputs = workload.inputs(seed, seconds / REPLAYS)
    elsewhere = _work_elsewhere()
    replays: List[Replay] = []
    for index in range(REPLAYS):
        # The first replay in a process pays one-off costs (heap growth,
        # first imports), so a traced run traces the middle one.
        tracer = LayerTracer() if trace and index == 1 else None
        item = replay(workload, inputs, tracer)
        if index == REPLAYS - 1:
            # The replays agree on every result (checked below), so the
            # last one stands for all of them.
            failed, problems = check_outcome(workload, item.system,
                                             item.outcome, item.counters)
        workload.teardown(item.system)
        item.system = None
        replays.append(item)
    problems += _disagreements(replays) + _untimed_work(elsewhere)
    if trace:
        values, found = _per_layer(replays)
        problems += found
        catalogue = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(
            [item.setup_s for item in replays],
            [item.measured_s for item in replays],
            [item.search_s for item in replays],
            replays[-1].outcome.records, replays[-1].counters["bytes"],
            max(item.peak_rss_bytes for item in replays))
        catalogue = metrics.END_TO_END
    records = replays[-1].outcome.records
    completed = [record for record in records if record is not None]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in catalogue.items()},
    }
    details = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "result_digest": metrics.result_digest(records),
        "issued": len(records),
        "completed": len(completed),
        "ok": sum(1 for record in completed if record["status"] == "ok"),
        "statuses": _statuses(records),
        "setup_s": [item.setup_s for item in replays],
        "measured_s": [item.measured_s for item in replays],
        "cpu_s": [item.unprobed_s for item in replays],
        # How many times slower than the reference the machine ran
        # (1 for the traced replay, which is not corrected).
        "slowdown": [item.unprobed_s / (item.setup_s + item.measured_s)
                     for item in replays],
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    return {"result": result, "details": details}


def format_report(outcome: Dict[str, Any]) -> str:
    """Human-readable lines printed above the result line."""
    details = outcome["details"]
    result = outcome["result"]
    lines = [
        f"workload {details['workload']}  seed {details['seed']}  "
        f"seconds {details['seconds']}  trace {details['trace']}",
        f"issued {details['issued']}  completed {details['completed']}  "
        f"ok {details['ok']}  statuses {details['statuses']}",
        "replays: set-up " + " ".join(
            f"{took:.3f}" for took in details["setup_s"])
        + " s, measured " + " ".join(
            f"{took:.3f}" for took in details["measured_s"])
        + " s, slowdown " + " ".join(
            f"{factor:.2f}" for factor in details["slowdown"]),
        f"result_digest {details['result_digest']}",
    ]
    width = max(len(name) for name in result["metrics"])
    for name, entry in result["metrics"].items():
        lines.append(f"  {name.ljust(width)}  {entry['value']:.6g} "
                     f"{entry['unit']}")
    for problem in details["problems"]:
        lines.append(f"FAILED CHECK: {problem}")
    lines.append("details " + json.dumps(details, sort_keys=True))
    return "\n".join(lines)
