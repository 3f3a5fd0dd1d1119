"""Deterministic profiling scenarios (``repro profile <scenario>``).

Each scenario drives a fixed, seeded workload under the
:class:`repro.obs.DeterministicProfiler` and returns one JSON-ready
report: per-subsystem call-event counts, collapsed-stack flamegraph
text and windowed heap attribution.

Byte-identity contract: two same-seed runs of the same scenario emit
identical ``collapsed`` text and identical ``cpu`` attribution JSON —
the property the profile gate in ``tests/obs/test_profile.py``
relies on. Three mechanisms
make this hold even for back-to-back runs in one process:

- every scenario first runs once *unprofiled* (the warm-up pass
  absorbs one-time interpreter work — regex compilation, import-time
  lazy loads — whose call events would otherwise differ between a
  fresh and a reused process), then clears the text caches so the
  measured pass always starts from the same cache state;
- the measured pass runs with the cycle collector frozen
  (``gc.collect()`` then ``gc.disable()``): automatic collections
  trigger on allocation counts accumulated by the *whole process*, and
  any registered ``gc`` callback (test harnesses install these) would
  inject call events at those ambient-dependent points;
- heap snapshots suspend the CPU hook while they are processed (see
  :class:`repro.obs.HeapSampler`), so ``tracemalloc``'s data-dependent
  bookkeeping never reaches the call-event stream. Heap byte *sizes*
  are reported for attribution but are **not** part of the
  byte-identity contract — live-heap contents legitimately depend on
  process history.

Scenarios:

- ``search``  — protected searches end-to-end on a demo overlay
  (the per-subsystem cost of the full CYCLOSA pipeline);
- ``simulator`` — the bare discrete-event loop on synthetic
  rescheduling chains;
- ``sensitivity`` — the §V-A text pipeline, cold caches;
- ``monitor`` — a shortened churn+chaos soak through
  :func:`repro.experiments.monitor.run_scenario`.
"""

from __future__ import annotations

import gc
import random
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.text.cache import clear_caches

#: Heap window width in simulated seconds.
DEFAULT_WINDOW_SECONDS = 5.0


def _queries(count: int, seed: int) -> List[str]:
    from repro.perf import workload_queries

    return workload_queries(count, seed=seed)


# -- scenario bodies ----------------------------------------------------
#
# Each body takes (params, profiler, heap) and returns a dict with the
# scenario-specific extras; the profiler/heap plumbing is shared in
# run_scenario. `profiler is None` is the warm-up pass.


def _scenario_search(params: Dict[str, Any], profiler, heap: bool
                     ) -> Dict[str, Any]:
    from repro.core.client import CyclosaNetwork

    obs.disable(reset=True)
    deployment = CyclosaNetwork.create(
        num_nodes=params["nodes"], seed=params["seed"], observe=True)
    simulator = deployment.simulator
    queries = _queries(params["searches"], params["seed"])

    sampler = None
    if heap:
        sampler = obs.HeapSampler(
            simulator, window_seconds=params["window_seconds"])
        sampler.start()
    ok = 0
    if profiler is not None:
        profiler.start()
    try:
        for index, query in enumerate(queries):
            if deployment.node(index % params["nodes"]).search(query).ok:
                ok += 1
        deployment.run(60.0)
    finally:
        if profiler is not None:
            profiler.stop()

    heap_windows: List[dict] = []
    heap_final = None
    if sampler is not None:
        heap_windows = sampler.windows
        heap_final = sampler.snapshot_now()
        sampler.stop()

    obs.disable(reset=True)
    needles = list(queries) + [node.address for node in deployment.nodes] \
        + [node.user_id for node in deployment.nodes]
    return {"extra": {"searches": len(queries), "ok": ok},
            "heap_windows": heap_windows, "heap_final": heap_final,
            "audit_needles": needles}


def _scenario_simulator(params: Dict[str, Any], profiler, heap: bool
                        ) -> Dict[str, Any]:
    from repro.net.simulator import Simulator

    simulator = Simulator()
    rng = random.Random(params["seed"])
    state = {"remaining": params["num_events"], "cancelled": 0}

    def tick() -> None:
        if state["remaining"] <= 0:
            return
        state["remaining"] -= 1
        delay = 1e-4 + rng.random() * 1e-3
        simulator.post(delay, tick)
        if state["remaining"] % 10 == 0:
            simulator.schedule(delay * 2.0, tick).cancel()
            state["cancelled"] += 1

    for _ in range(params["chains"]):
        simulator.post(rng.random() * 1e-3, tick)

    # The heap sampler's rearming flush would keep a run-to-empty loop
    # alive forever, so the measured pass runs to the horizon the
    # warm-up pass recorded (same seed → same natural end time). A
    # warmup-less run falls back to run-to-empty without heap windows.
    horizon = params.get("_sim_horizon")
    sampler = None
    if heap and horizon is not None:
        sampler = obs.HeapSampler(
            simulator, window_seconds=params["window_seconds"])
        sampler.start()
    if profiler is not None:
        profiler.start()
    try:
        if sampler is not None:
            simulator.run(until=horizon)
        else:
            simulator.run()
    finally:
        if profiler is not None:
            profiler.stop()
    if profiler is None:
        params["_sim_horizon"] = simulator.now

    heap_windows: List[dict] = []
    heap_final = None
    if sampler is not None:
        heap_windows = sampler.windows
        heap_final = sampler.snapshot_now()
        sampler.stop()

    return {"extra": {"events": simulator.events_processed,
                      "cancelled": state["cancelled"]},
            "heap_windows": heap_windows, "heap_final": heap_final,
            "audit_needles": []}


def _scenario_sensitivity(params: Dict[str, Any], profiler, heap: bool
                          ) -> Dict[str, Any]:
    from repro.core.sensitivity import (LinkabilityAssessor,
                                        SemanticAssessor,
                                        SensitivityAnalysis)
    from repro.text.wordnet import SyntheticWordNet

    texts = _queries(params["history_size"] + params["probes"],
                     params["seed"])
    history = texts[:params["history_size"]]
    probes = texts[params["history_size"]:]
    semantic = SemanticAssessor.from_resources(
        wordnet=SyntheticWordNet.build(seed=params["seed"]), mode="wordnet")

    # No simulator here, so no windowed heap sampling; the profile is
    # the cold-cache CPU attribution of the pipeline.
    if profiler is not None:
        profiler.start()
    try:
        linkability = LinkabilityAssessor(history=history)
        analysis = SensitivityAnalysis(semantic, linkability)
        for query in probes:
            analysis.assess(query)
    finally:
        if profiler is not None:
            profiler.stop()
    return {"extra": {"history_size": len(history), "probes": len(probes)},
            "heap_windows": [], "heap_final": None,
            "audit_needles": list(probes)}


def _scenario_monitor(params: Dict[str, Any], profiler, heap: bool
                      ) -> Dict[str, Any]:
    from repro.experiments import monitor

    # A shortened soak, armed only around its traffic + drain phase.
    report = monitor.run_scenario(
        num_nodes=params["nodes"], seed=params["seed"],
        duration=params["monitor_seconds"],
        storm_start=50.0 + params["monitor_seconds"] * 0.25,
        storm_end=50.0 + params["monitor_seconds"] * 0.5,
        drain_seconds=60.0, profiler=profiler)
    obs.disable(reset=True)
    needles = [f"monitor probe {index}"
               for index in range(report["traffic"]["issued"])]
    return {"extra": {"issued": report["traffic"]["issued"],
                      "hung_searches": report["traffic"]["hung_searches"]},
            "heap_windows": [], "heap_final": None,
            "audit_needles": needles}


SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "search": _scenario_search,
    "simulator": _scenario_simulator,
    "sensitivity": _scenario_sensitivity,
    "monitor": _scenario_monitor,
}


def run_scenario(name: str, seed: int = 0, nodes: int = 8,
                 searches: int = 6,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 heap: bool = True, warmup: bool = True,
                 history_size: int = 600, probes: int = 30,
                 num_events: int = 30000, chains: int = 16,
                 monitor_seconds: float = 60.0) -> Dict[str, Any]:
    """Run one named scenario under the profiler; return its report.

    The report's ``cpu`` dict and ``collapsed`` text are byte-stable
    across same-seed runs (see the module docstring for how); ``heap``
    rows are attribution-grade, not byte-pinned.
    """
    body = SCENARIOS.get(name)
    if body is None:
        raise ValueError(f"unknown profile scenario: {name!r} "
                         f"(known: {', '.join(SCENARIOS)})")
    params = {
        "seed": seed, "nodes": nodes, "searches": searches,
        "window_seconds": window_seconds, "history_size": history_size,
        "probes": probes, "num_events": num_events, "chains": chains,
        "monitor_seconds": monitor_seconds,
    }
    if warmup:
        body(params, None, False)
    clear_caches()
    # Freeze the cycle collector for the measured pass. Automatic
    # collections fire on allocation-count thresholds, so their timing
    # depends on everything the process allocated *before* this run —
    # and any registered gc callback (hypothesis installs one to track
    # GC time, for example) is a Python function whose invocation
    # injects call events at those ambient-state-dependent points,
    # changing the counts. Refcount-driven finalization is unaffected
    # and stays deterministic.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    profiler = obs.DeterministicProfiler()
    try:
        outcome = body(params, profiler, heap)
    finally:
        if gc_was_enabled:
            gc.enable()
    report: Dict[str, Any] = {
        "scenario": name,
        "params": dict(params, heap=heap, warmup=warmup),
        "cpu": profiler.attribution(),
        "collapsed": profiler.collapsed_stacks(),
        "heap": {
            "windows": outcome["heap_windows"],
            "final": outcome["heap_final"],
        },
        # Workload strings for audit_profile_output: everything that
        # must NOT appear in the profile. Callers use and drop this —
        # it never belongs in a written artifact.
        "audit_needles": outcome["audit_needles"],
    }
    report.update(outcome["extra"])
    return report


__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "SCENARIOS",
    "run_scenario",
]
