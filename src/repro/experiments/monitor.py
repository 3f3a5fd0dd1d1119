"""The flight recorder scenario behind ``repro monitor``.

A soak-style churn+chaos run watched through the time-series and SLO
layers of :mod:`repro.obs`: a deployment serves a steady trickle of
protected searches while a forward-drop fault runs throughout, part of
the overlay churns away mid-run, and the engine is hit with a
rate-limit storm. A :class:`~repro.obs.TimeSeriesRecorder` aggregates
the whole run into fixed windows and the default SLO spec turns them
into a verdict — the burn-rate monitor is expected to flag exactly the
storm's window range, which is what the SLO gate in
``tests/experiments/test_monitor.py`` pins.

Everything is seeded and measured in simulated seconds, so the JSON
report (:func:`report_json`) is byte-identical across same-seed runs —
the property the SLO gate enforces. All times in the parameters are
*absolute* simulated seconds (the deployment warm-up occupies
``[0, warmup)``, so traffic, churn and storm should start after it).
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional

from repro import obs
from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.faults.inject import install
from repro.faults.plan import (Drop, FaultPlan, FORWARD_REQUESTS,
                               RateLimitStorm)
from repro.net.churn import ChurnProcess

#: Simulated warm-up; traffic starts once gossip has mixed.
WARMUP_SECONDS = 40.0

LATENCY_HISTOGRAM = "cyclosa_core_search_latency_seconds"
RESULT_COUNTER = "cyclosa_core_search_results_total"
BACKLOG_GAUGE = "cyclosa_core_outstanding_searches"


def default_slo_spec(window_seconds: float = 10.0) -> obs.SloSpec:
    """The standing spec for soak runs.

    - ``search-success``: ≥ 90 % of terminal results are ``ok`` — the
      rule the rate-limit storm breaches (captcha results are bad
      events);
    - ``search-latency``: p95 of end-to-end search latency stays under
      20 s (generous enough for retry chains, tight enough to catch a
      stalled overlay);
    - ``backlog-bounded``: the pull-gauge over
      ``outstanding_searches()`` stays under 64 at every boundary — the
      windowed form of the "zero hung searches" invariant.

    The burn-rate policy is scaled so the short range covers ~30 s and
    the long range ~2 min of simulated time at the given window width.
    """
    scale = max(1.0, 10.0 / window_seconds)
    policy = obs.BurnRatePolicy(short_windows=max(1, int(3 * scale)),
                                long_windows=max(2, int(12 * scale)),
                                factor=2.0)
    return obs.SloSpec(
        name="soak-default",
        policy=policy,
        rules=(
            obs.SuccessRateSlo(name="search-success", target=0.9,
                               counter=RESULT_COUNTER,
                               ok_statuses=("ok",)),
            obs.LatencyQuantileSlo(name="search-latency",
                                   histogram=LATENCY_HISTOGRAM,
                                   threshold_seconds=20.0, q=0.95),
            obs.BoundedGaugeSlo(name="backlog-bounded",
                                gauge=BACKLOG_GAUGE, bound=64.0),
        ))


def run_scenario(num_nodes: int = 12, seed: int = 11, plan_seed: int = 3,
                 duration: float = 200.0, window_seconds: float = 10.0,
                 query_interval: float = 2.0, clients: int = 4, k: int = 2,
                 storm_start: float = 120.0, storm_end: float = 160.0,
                 drop_probability: float = 0.05, churn_victims: int = 2,
                 churn_start: float = 70.0, churn_duration: float = 30.0,
                 drain_seconds: float = 120.0,
                 spec: Optional[obs.SloSpec] = None,
                 profiler: Optional[obs.DeterministicProfiler] = None
                 ) -> Dict[str, Any]:
    """Run the churn+chaos soak and return the full windowed report.

    When a :class:`~repro.obs.DeterministicProfiler` is passed (``repro
    profile monitor``), it is armed around the traffic + drain phase;
    the caller keeps the profiler and reads its attribution. The report
    is the same with or without one (the SLO gate's contract).
    """
    if clients < 1 or clients > num_nodes:
        raise ValueError("need 1 <= clients <= num_nodes")
    if churn_victims > num_nodes - clients:
        raise ValueError("churn victims would include query clients")
    config = CyclosaConfig(relay_timeout=1.5, max_retries=3)
    deployment = CyclosaNetwork.create(
        num_nodes=num_nodes, seed=seed, config=config,
        warmup_seconds=WARMUP_SECONDS, observe=True)
    simulator = deployment.simulator

    recorder = obs.TimeSeriesRecorder(
        obs.get_registry(), simulator, window_seconds=window_seconds)
    recorder.start()

    plan = FaultPlan(seed=plan_seed, faults=(
        Drop(match=FORWARD_REQUESTS, probability=drop_probability),
        RateLimitStorm(start=storm_start, end=storm_end),
    ))
    installed = install(plan, deployment)

    churn = ChurnProcess(
        deployment.network,
        rng=random.Random(plan_seed * 7919 + seed),
        repository=deployment.services.repository)
    if churn_victims > 0:
        churn.schedule_departures(
            deployment.nodes[num_nodes - churn_victims:],
            start=churn_start, duration=churn_duration, style="crash")

    completions: List[Dict[str, Any]] = []
    issued = 0
    start = simulator.now
    when = start
    index = 0
    while when < start + duration:
        node = deployment.nodes[index % clients]

        def issue(node=node, index=index) -> None:
            node.search(f"monitor probe {index}",
                        on_result=completions.append, k_override=k)

        simulator.schedule_at(when, issue)
        issued += 1
        when += query_interval
        index += 1

    if profiler is not None:
        profiler.start()
    try:
        simulator.run(until=start + duration + drain_seconds)
    finally:
        if profiler is not None:
            profiler.stop()
    recorder.stop()
    installed.uninstall()
    hung = sum(node.outstanding_count() for node in deployment.nodes)

    spec = spec or default_slo_spec(window_seconds)
    slo_report = obs.evaluate_slo(spec, recorder.windows)

    statuses: Dict[str, int] = {}
    for result in completions:
        statuses[result["status"]] = statuses.get(result["status"], 0) + 1

    window_width = recorder.window_seconds
    report = {
        "scenario": {
            "nodes": num_nodes,
            "clients": clients,
            "seed": seed,
            "plan_seed": plan_seed,
            "k": k,
            "duration": duration,
            "warmup": WARMUP_SECONDS,
            "window_seconds": window_width,
            "query_interval": query_interval,
            "drop_probability": drop_probability,
            "storm": {"start": storm_start, "end": storm_end,
                      "windows": [int(storm_start // window_width),
                                  int((storm_end - 1e-9) // window_width)]},
            "churn": {"victims": churn_victims, "start": churn_start,
                      "duration": churn_duration},
            "drain_seconds": drain_seconds,
        },
        "traffic": {
            "issued": issued,
            "completed": len(completions),
            "statuses": dict(sorted(statuses.items())),
            "hung_searches": hung,
        },
        "churn_events": [
            {"time": round(event.time, 6), "address": event.address,
             "style": event.style}
            for event in sorted(churn.events, key=lambda e: e.time)],
        "faults_injected": installed.counts,
        "windows": recorder.to_dicts(),
        "windows_evicted": recorder.evicted,
        "slo": slo_report.to_dict(),
    }
    return report


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON: the same report always encodes to the same
    bytes (the property the SLO gate pins across same-seed runs)."""
    return json.dumps(report, sort_keys=True, indent=2)


# -- text dashboard ----------------------------------------------------


def _alerting_windows(report: Dict[str, Any]) -> Dict[int, List[str]]:
    flagged: Dict[int, List[str]] = {}
    for rule in report["slo"]["rules"]:
        for lo, hi in rule["alert_ranges"]:
            for index in range(lo, hi + 1):
                flagged.setdefault(index, []).append(rule["rule"])
    return flagged


def format_dashboard(report: Dict[str, Any]) -> str:
    """Per-window terminal dashboard plus the SLO verdict block."""
    flagged = _alerting_windows(report)
    header = ["win", "t", "issued", "ok", "bad", "p95 lat", "backlog",
              "net KB", "faults", "alerts"]
    rows: List[List[str]] = []
    for window in report["windows"]:
        counters = window["counters"]
        gauges = window["gauges"]
        issued = counters.get("cyclosa_core_searches_total", 0)
        ok = counters.get('cyclosa_core_search_results_total{status="ok"}', 0)
        bad = sum(value for key, value in counters.items()
                  if key.startswith("cyclosa_core_search_results_total{")
                  and key != 'cyclosa_core_search_results_total{status="ok"}')
        hist = window["histograms"].get(LATENCY_HISTOGRAM, {})
        p95 = hist.get("p95", hist.get("p90", 0.0))
        backlog = gauges.get(BACKLOG_GAUGE, 0)
        net_kb = counters.get("cyclosa_net_bytes_total", 0) / 1024.0
        faults = sum(value for key, value in counters.items()
                     if key.startswith("cyclosa_faults_injected_total"))
        alerts = ",".join(flagged.get(window["index"], [])) or "-"
        rows.append([
            str(window["index"]),
            f"{window['start']:.0f}s",
            f"{issued:.0f}",
            f"{ok:.0f}",
            f"{bad:.0f}",
            f"{p95:.2f}s",
            f"{backlog:.0f}",
            f"{net_kb:.1f}",
            f"{faults:.0f}",
            alerts,
        ])
    widths = [len(h) for h in header]
    for row in rows:
        for col, value in enumerate(row):
            widths[col] = max(widths[col], len(value))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(value.ljust(widths[i])
                               for i, value in enumerate(row)))

    traffic = report["traffic"]
    lines.append("")
    lines.append(
        f"traffic: {traffic['issued']} issued, "
        f"{traffic['completed']} completed, "
        f"{traffic['hung_searches']} hung; statuses "
        + ",".join(f"{name}:{count}"
                   for name, count in traffic["statuses"].items()))
    storm = report["scenario"]["storm"]
    lines.append(
        f"injected storm: t={storm['start']:.0f}s..{storm['end']:.0f}s "
        f"(windows {storm['windows'][0]}..{storm['windows'][1]})")
    lines.append("")
    lines.append(_format_slo_block(report["slo"]))
    return "\n".join(lines)


def _format_slo_block(slo: Dict[str, Any]) -> str:
    lines = [f"SLO spec {slo['spec']!r}: {slo['verdict'].upper()} "
             f"({slo['windows']} windows)"]
    for rule in slo["rules"]:
        mark = "PASS" if rule["verdict"] == "ok" else "FAIL"
        lines.append(
            f"  [{mark}] {rule['rule']}: {rule['objective']}  "
            f"attained={rule['attained']:.4f} target={rule['target']:.4f} "
            f"max_burn={rule['max_burn']:.2f}")
        if rule["alert_ranges"]:
            spans = ", ".join(f"windows {lo}..{hi}"
                              for lo, hi in rule["alert_ranges"])
            lines.append(f"         burn-rate alerts: {spans}")
    return "\n".join(lines)
