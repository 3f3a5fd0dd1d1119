"""The perf-trajectory bench harness (``python -m repro perf``).

Measures the three hot paths every future perf PR has to beat, and
writes the numbers to ``BENCH_pipeline.json`` at the repo root — the
committed trajectory baseline that ``benchmarks/check_regression.py``
guards:

- **sensitivity assessments/sec** — the full §V-A pipeline (semantic
  dictionaries + linkability against a 10 k-query history), cold
  (text caches empty) and warm (second pass over the same probes),
  plus the indexed-vs-linear linkability comparison that proves the
  inverted index both speeds scoring up and changes no score.
- **simulator events/sec** — the discrete-event loop on a synthetic
  self-rescheduling workload with a cancellation component.
- **scale events/sec** — the churn+chaos overlay of
  :mod:`repro.experiments.shard_scale` (5k nodes by default) on the
  same event loop (see ``docs/performance.md``).
- **protected searches/sec** — end-to-end wall-clock throughput of
  ``CyclosaUser.search`` on a demo overlay, plus the per-stage
  *simulated* latency breakdown from one traced search
  (:mod:`repro.obs`), so regressions can be localised to a stage.

Everything is seeded; the only nondeterminism in the output is the
wall clock itself. Keep workload parameters in the JSON (under
``meta.params``) so a regression check can re-run the *same* workload.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import time
from typing import Any, Dict, List, Optional

#: Default name of the committed trajectory baseline, at the repo root.
DEFAULT_BASELINE_NAME = "BENCH_pipeline.json"

#: The (section, key) pairs ``check_regression`` compares —
#: higher-is-better throughput numbers only.
THROUGHPUT_KEYS = (
    ("sensitivity", "cold_assessments_per_sec"),
    ("sensitivity", "warm_assessments_per_sec"),
    ("sensitivity", "linkability_indexed_scores_per_sec"),
    ("simulator", "events_per_sec"),
    ("search", "searches_per_sec"),
    ("engine_scaling", "baseline_searches_per_sec"),
    ("engine_scaling", "best_searches_per_sec"),
    ("monitor", "windows_per_sec"),
    ("monitor", "disabled_events_per_sec"),
    ("lint", "files_per_sec"),
    ("scale", "events_per_sec"),
)

#: Default workload parameters (overridable via CLI flags / kwargs).
DEFAULT_PARAMS: Dict[str, Any] = {
    "history_size": 10000,
    "probes": 200,
    "linear_probes": 20,
    "num_events": 200000,
    "chains": 64,
    "num_nodes": 16,
    "searches": 25,
    "engine_queries": 400,
    "engine_unique": 24,
    "engine_docs_per_topic": 6000,
    # Stored as a list so the JSON baseline round-trips bit-identically.
    "replica_counts": [2, 4],
    "monitor_windows": 400,
    "scale_nodes": 5000,
    "scale_duration": 5.0,
    "profile_nodes": 8,
    "profile_searches": 6,
    "profile_sample_interval": 256,
    "seed": 0,
    # Best-of-N for the short micro passes: the cold/warm/indexed
    # windows are milliseconds long, so a single sample is dominated
    # by scheduler noise. Min-time is the standard stabiliser.
    "repeats": 5,
}


def workload_queries(count: int, seed: int = 0) -> List[str]:
    """*count* realistic query strings from the synthetic AOL generator
    (repetitive within and across users, like the real trace)."""
    from repro.datasets.aol import generate_aol_log

    texts: List[str] = []
    log_seed = seed
    while len(texts) < count:
        log = generate_aol_log(num_users=max(20, count // 60),
                               mean_queries_per_user=80.0, seed=log_seed)
        texts.extend(record.text for record in log.records)
        log_seed += 1
    return texts[:count]


# -- 1. the §V-A sensitivity pipeline -----------------------------------


def bench_sensitivity(history_size: int = 10000, probes: int = 200,
                      linear_probes: int = 20, seed: int = 0,
                      repeats: int = 3,
                      **_ignored: Any) -> Dict[str, Any]:
    """Assessments/sec cold vs. warm, and indexed-vs-linear linkability.

    The probe passes last milliseconds, so each is sampled *repeats*
    times and the minimum is reported (best-of-N filters out scheduler
    noise without changing what is measured).
    """
    from repro.core.sensitivity import (LinkabilityAssessor,
                                        SemanticAssessor,
                                        SensitivityAnalysis)
    from repro.text.cache import clear_caches
    from repro.text.wordnet import SyntheticWordNet

    repeats = max(1, repeats)
    texts = workload_queries(history_size + probes, seed=seed)
    history, probe_queries = texts[:history_size], texts[history_size:]
    semantic = SemanticAssessor.from_resources(
        wordnet=SyntheticWordNet.build(seed=seed), mode="wordnet")

    clear_caches()
    begin = time.perf_counter()
    linkability = LinkabilityAssessor(history=history)
    index_build_seconds = time.perf_counter() - begin
    analysis = SensitivityAnalysis(semantic, linkability)

    cold_seconds = float("inf")
    for _ in range(repeats):
        clear_caches()
        begin = time.perf_counter()
        for query in probe_queries:
            analysis.assess(query)
        cold_seconds = min(cold_seconds, time.perf_counter() - begin)

    warm_seconds = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        for query in probe_queries:
            analysis.assess(query)
        warm_seconds = min(warm_seconds, time.perf_counter() - begin)

    # Indexed vs. the pre-index linear scan, same probes, and the
    # scores must agree bit-for-bit.
    reference = probe_queries[:linear_probes]
    indexed_seconds = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        indexed_scores = [linkability.score(query) for query in reference]
        indexed_seconds = min(indexed_seconds, time.perf_counter() - begin)
    begin = time.perf_counter()
    linear_scores = [linkability.score_linear(query) for query in reference]
    linear_seconds = time.perf_counter() - begin

    return {
        "history_size": history_size,
        "probes": probes,
        "index_build_seconds": index_build_seconds,
        "cold_assessments_per_sec": probes / cold_seconds,
        "warm_assessments_per_sec": probes / warm_seconds,
        "linkability_indexed_scores_per_sec":
            len(reference) / indexed_seconds if indexed_seconds else 0.0,
        "linkability_linear_scores_per_sec":
            len(reference) / linear_seconds if linear_seconds else 0.0,
        "linkability_speedup":
            linear_seconds / indexed_seconds if indexed_seconds else 0.0,
        "scores_bit_identical": indexed_scores == linear_scores,
    }


# -- 2. the discrete-event loop -----------------------------------------


def bench_simulator(num_events: int = 200000, chains: int = 64,
                    seed: int = 0, repeats: int = 3,
                    **_ignored: Any) -> Dict[str, Any]:
    """Events/sec on self-rescheduling chains with ~10 % cancellations.
    Best of *repeats* full runs.

    Mirrors the production scheduling mix: fire-and-forget events (the
    overwhelming majority — every message delivery) go through the
    no-handle ``post`` fast path, while the cancellation slice uses
    ``schedule`` and holds the :class:`EventHandle`, like the request
    timeouts in :mod:`repro.net.transport` do.
    """
    from repro.net.simulator import Simulator

    def one_run() -> Dict[str, Any]:
        simulator = Simulator()
        rng = random.Random(seed)
        state = {"remaining": num_events, "cancelled": 0}

        def tick() -> None:
            if state["remaining"] <= 0:
                return
            state["remaining"] -= 1
            delay = 1e-4 + rng.random() * 1e-3
            simulator.post(delay, tick)
            if state["remaining"] % 10 == 0:
                # Exercise the cancellation path: dead entries must be
                # skipped for free.
                simulator.schedule(delay * 2.0, tick).cancel()
                state["cancelled"] += 1

        for _ in range(chains):
            simulator.post(rng.random() * 1e-3, tick)

        begin = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - begin
        return {
            "events": simulator.events_processed,
            "cancelled": state["cancelled"],
            "events_per_sec": simulator.events_processed / elapsed,
        }

    best = one_run()
    for _ in range(max(1, repeats) - 1):
        candidate = one_run()
        if candidate["events_per_sec"] > best["events_per_sec"]:
            best = candidate
    return best


# -- 3. end-to-end protected searches -----------------------------------


def bench_search(num_nodes: int = 16, searches: int = 25, seed: int = 0,
                 repeats: int = 3, **_ignored: Any) -> Dict[str, Any]:
    """Wall-clock protected searches/sec on a demo overlay, plus the
    per-stage simulated breakdown of one traced search. Best of
    *repeats* passes, each on a fresh (identically seeded) overlay."""
    from repro import obs
    from repro.core.client import CyclosaNetwork
    from repro.obs import root_span, split_engine_service, stage_breakdown

    queries = workload_queries(searches, seed=seed)

    obs.disable(reset=True)
    deploy_seconds = float("inf")
    elapsed = float("inf")
    ok = 0
    for _ in range(max(1, repeats)):
        begin = time.perf_counter()
        deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed)
        deploy_seconds = min(deploy_seconds, time.perf_counter() - begin)
        user = deployment.node(0)

        pass_ok = 0
        begin = time.perf_counter()
        for query in queries:
            if user.search(query).ok:
                pass_ok += 1
        pass_elapsed = time.perf_counter() - begin
        if pass_elapsed < elapsed:
            elapsed = pass_elapsed
            ok = pass_ok

    # One traced search on a fresh overlay: the simulated per-stage
    # breakdown localises where a throughput regression lives.
    traced = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                   observe=True)
    result = traced.node(0).search(queries[0])
    spans = obs.get_tracer().sink.spans
    rows = stage_breakdown(spans, trace_id=result.trace_id)
    # The local "engine" stage span is the real leg's full round trip;
    # fold in the engine's remote engine.serve span so the table
    # separates engine service time from relay-path time.
    rows = split_engine_service(
        rows, list(spans) + obs.OBS.router.all_spans(),
        trace_id=result.trace_id)
    root = root_span(spans, trace_id=result.trace_id)
    obs.disable(reset=True)

    return {
        "num_nodes": num_nodes,
        "searches": searches,
        "ok": ok,
        "deploy_seconds": deploy_seconds,
        "searches_per_sec": searches / elapsed,
        "stage_breakdown_simulated_seconds": {
            row.stage: row.duration for row in rows},
        "simulated_end_to_end_seconds":
            root.duration if root is not None and root.finished else None,
    }


# -- 4. the engine tier under scale-out ----------------------------------


def bench_engine_scaling(engine_queries: int = 400, engine_unique: int = 24,
                         engine_docs_per_topic: int = 6000,
                         replica_counts=(2, 4), seed: int = 0,
                         repeats: int = 3,
                         **_ignored: Any) -> Dict[str, Any]:
    """Wall-clock searches/sec of the engine tier under fan-in.

    Drives a skewed (cache-friendly, AOL-like) query stream from 16
    senders straight at the engine nodes over the transport — no relay
    overlay, so the number isolates the tier itself: TF-IDF ranking
    over a corpus large enough that ranking dominates. The *baseline*
    is one replica with no cache and no batching; each *scaled*
    configuration runs sharded replicas with the response/partial
    caches and a batch window on; its ``searches_per_sec_cache_off``
    reruns the same replicas and batch window with both caches off, so
    the speedup splits into what sharding and what caching bought.
    Each configuration is sampled best-of-``min(repeats, 3)`` (the
    indexes are built once and shared; only nodes, caches and the
    transport are fresh per pass). The report also pins
    ``sharded_identical``: every scaled configuration's result pages
    byte-equal the baseline's.
    """
    from repro.net.latency import LogNormalLatency
    from repro.net.simulator import Simulator
    from repro.net.transport import Network, NetNode
    from repro.searchengine.cache import ResultCache
    from repro.searchengine.corpus import build_corpus
    from repro.searchengine.engine import SearchEngine
    from repro.searchengine.node import SearchEngineNode
    from repro.searchengine.sharding import (build_shard_engines,
                                             replica_addresses,
                                             route_to_replica)

    corpus = build_corpus(docs_per_topic=engine_docs_per_topic, seed=seed)
    unique = workload_queries(engine_unique, seed=seed)
    draw_rng = random.Random(seed + 1)
    # Zipf-ish popularity: repeated queries are the norm, like a real
    # query log — the regime result caching exists for.
    weights = [1.0 / (rank + 1) for rank in range(engine_unique)]
    queries = draw_rng.choices(unique, weights=weights, k=engine_queries)
    engines_by_count = {1: [SearchEngine(corpus)]}
    for replicas in replica_counts:
        engines_by_count[replicas] = build_shard_engines(corpus, replicas)

    def run_tier(replicas: int, cached: bool, batch_window: float):
        simulator = Simulator()
        rng = random.Random(seed)
        network = Network(simulator, rng,
                          default_latency=LogNormalLatency(
                              median=0.005, sigma=0.1))
        addresses = replica_addresses(replicas)
        engines = engines_by_count[replicas]
        engine_nodes = [
            SearchEngineNode(
                network, engine, rng, address=address,
                processing=LogNormalLatency(median=0.05, sigma=0.2),
                cluster=addresses if replicas > 1 else None,
                response_cache=ResultCache(4096) if cached else None,
                partial_cache=(ResultCache(4096)
                               if cached and replicas > 1 else None),
                batch_window=batch_window)
            for address, engine in zip(addresses, engines)
        ]
        for first in engine_nodes:
            for second in engine_nodes:
                if first is not second:
                    network.set_link_latency(
                        first.address, second.address,
                        LogNormalLatency(median=0.002, sigma=0.1))
        for index, first in enumerate(engine_nodes):
            for second in engine_nodes[index + 1:]:
                first.tls.establish(second.address,
                                    on_ready=lambda channel: None)
        simulator.run(until=5.0)  # replica handshakes settle

        senders = [NetNode(network, f"sender{i:02d}") for i in range(16)]
        pages: Dict[int, Any] = {}

        def fire(index: int, query: str) -> None:
            sender = senders[index % len(senders)]
            target = route_to_replica(sender.address, addresses)
            sender.request(  # lint: allow(taint-wire) -- bench harness uses the engine's plaintext `search` flavour (as the Direct baseline does) to isolate tier throughput
                target, {"query": query, "meta": {}},
                lambda payload, i=index: pages.__setitem__(
                    i, payload["hits"]),
                timeout=120.0, kind="search")

        for index, query in enumerate(queries):
            simulator.post(index * 0.01, lambda i=index, q=query: fire(i, q))
        begin = time.perf_counter()
        simulator.run()
        elapsed = time.perf_counter() - begin
        assert len(pages) == len(queries), "engine tier lost queries"
        hit_rate = None
        if cached:
            hits = misses = 0
            for node in engine_nodes:
                stats = node.response_cache.stats()
                hits += stats["hits"]
                misses += stats["misses"]
            hit_rate = hits / (hits + misses) if hits + misses else 0.0
        return {
            "searches_per_sec": len(queries) / elapsed,
            "cache_hit_rate": hit_rate,
            "pages": [pages[i] for i in range(len(queries))],
        }

    def best_of(replicas: int, cached: bool, batch_window: float):
        best_row = run_tier(replicas, cached, batch_window)
        for _ in range(min(max(1, repeats), 3) - 1):
            candidate = run_tier(replicas, cached, batch_window)
            if candidate["searches_per_sec"] > best_row["searches_per_sec"]:
                best_row = candidate
        return best_row

    baseline = best_of(1, cached=False, batch_window=0.0)
    scaled_rows = []
    identical = True
    for replicas in replica_counts:
        row = best_of(replicas, cached=True, batch_window=0.2)
        cache_off = best_of(replicas, cached=False, batch_window=0.2)
        identical = (identical and row["pages"] == baseline["pages"]
                     and cache_off["pages"] == baseline["pages"])
        scaled_rows.append({
            "replicas": replicas,
            "searches_per_sec": row["searches_per_sec"],
            "searches_per_sec_cache_off": cache_off["searches_per_sec"],
            "cache_hit_rate": row["cache_hit_rate"],
        })
    best = max(scaled_rows, key=lambda row: row["searches_per_sec"])
    return {
        "engine_queries": engine_queries,
        "unique_queries": engine_unique,
        "corpus_docs": len(corpus.documents),
        "baseline_searches_per_sec": baseline["searches_per_sec"],
        "scaled": scaled_rows,
        "best_replicas": best["replicas"],
        "best_searches_per_sec": best["searches_per_sec"],
        "speedup": (best["searches_per_sec"]
                    / baseline["searches_per_sec"]),
        "sharded_identical": identical,
    }


# -- 4b. the churn+chaos overlay at scale --------------------------------


def bench_scale(scale_nodes: int = 5000, scale_duration: float = 5.0,
                seed: int = 0, **_ignored: Any) -> Dict[str, Any]:
    """Events/sec of the event loop driving the churn+chaos overlay of
    :mod:`repro.experiments.shard_scale` — thousands of nodes, far
    more than the search benches build."""
    from repro.experiments import shard_scale

    report = shard_scale.run(num_nodes=scale_nodes, duration=scale_duration,
                             seed=seed)
    return {
        "num_nodes": scale_nodes,
        "duration": scale_duration,
        "events": report["events"],
        "events_per_sec": report["events_per_sec"],
    }


# -- 5. the time-series flight recorder ----------------------------------


def bench_monitor(monitor_windows: int = 400, repeats: int = 5,
                  seed: int = 0, **_ignored: Any) -> Dict[str, Any]:
    """Flush throughput of the :mod:`repro.obs.timeseries` recorder on
    a synthetic registry workload, plus the disabled-path guard.

    The registry carries a deployment-sized instrument population
    (labelled counters, gauges, full-bucket histograms) and every
    window sees fresh activity, so each flush pays the real cost:
    collect, delta, quantile interpolation, ring append. The second
    number times the ``OBS.enabled`` fast path that every hook in the
    hot code runs when observability is off — the whole telemetry
    layer must stay an attribute test when unused.
    """
    from repro.net.simulator import Simulator
    from repro.obs import OBS, MetricsRegistry, TimeSeriesRecorder

    rng = random.Random(seed)
    statuses = ("ok", "captcha", "relay-failure", "channel-failure")
    best = float("inf")
    windows_done = 0
    for _ in range(max(1, repeats)):
        simulator = Simulator()
        registry = MetricsRegistry()
        counters = [registry.counter(f"cyclosa_bench_c{i}_total", "bench",
                                     status=status)
                    for i in range(6) for status in statuses]
        gauges = [registry.gauge(f"cyclosa_bench_g{i}", "bench")
                  for i in range(8)]
        histograms = [registry.histogram(f"cyclosa_bench_h{i}_seconds",
                                         "bench") for i in range(4)]
        recorder = TimeSeriesRecorder(registry, simulator,
                                      window_seconds=1.0)
        recorder.start()

        def tick() -> None:
            for counter in counters:
                counter.inc(rng.randrange(4))
            for gauge in gauges:
                gauge.set(rng.random() * 50)
            for histogram in histograms:
                for _ in range(5):
                    histogram.observe(rng.random() * 2.0)

        for window in range(monitor_windows):
            simulator.schedule_at(window + 0.5, tick)
        begin = time.perf_counter()
        simulator.run(until=float(monitor_windows))
        best = min(best, time.perf_counter() - begin)
        windows_done = len(recorder.windows) + recorder.evicted
        recorder.stop()

    # Disabled-path guard: the per-event cost when obs is off is one
    # attribute test; meaningful only as a throughput floor.
    from repro import obs

    obs.disable(reset=True)
    assert not OBS.enabled
    guard_events = 2_000_000
    begin = time.perf_counter()
    fired = 0
    for _ in range(guard_events):
        if OBS.enabled:
            fired += 1
    guard_elapsed = time.perf_counter() - begin
    assert fired == 0

    return {
        "monitor_windows": monitor_windows,
        "windows_flushed": windows_done,
        "windows_per_sec": monitor_windows / best,
        "disabled_guard_events": guard_events,
        "disabled_events_per_sec": guard_events / guard_elapsed,
    }


# -- 6. deterministic profile attribution --------------------------------


def bench_lint(**_ignored: Any) -> Dict[str, Any]:
    """Static-analyzer throughput over the real ``src/`` tree.

    Times one ``run_lint`` — parse, the per-module checkers, PDG
    construction, linking and path queries — over every file.
    """
    from repro.lint import collect_modules, default_root, run_lint

    root = default_root()
    num_files = len(collect_modules(root))

    start = time.perf_counter()
    findings = run_lint(root=root)
    seconds = time.perf_counter() - start

    return {
        "files": num_files,
        "findings": len(findings),
        "wall_seconds": round(seconds, 3),
        "files_per_sec": round(num_files / seconds, 1),
    }


def bench_profile(profile_nodes: int = 8, profile_searches: int = 6,
                  profile_sample_interval: int = 256, seed: int = 0,
                  **_ignored: Any) -> Dict[str, Any]:
    """Per-subsystem CPU attribution of the end-to-end search scenario.

    Unlike every other section, nothing here is a wall-clock number:
    samples are taken on interpreter call-event counts
    (:mod:`repro.obs.profile`), so the subsystem shares — and the
    collapsed-stack digest — are byte-identical across runs *and
    machines* for one python version. That is what lets the profile
    gate (``tests/obs/test_profile.py``) diff shares against the
    committed baseline with a tight tolerance, where the throughput
    gate must absorb hardware noise.

    Excluded from the default ``repro perf`` run (it measures shares,
    not speed); enabled by ``--profile`` or ``--only profile``.
    """
    import hashlib

    from repro.experiments.profiling import run_scenario

    report = run_scenario("search", seed=seed, nodes=profile_nodes,
                          searches=profile_searches,
                          sample_interval=profile_sample_interval,
                          heap=False)
    cpu = report["cpu"]
    digest = hashlib.sha256(report["collapsed"].encode("utf-8")).hexdigest()
    return {
        "scenario": "search",
        "nodes": profile_nodes,
        "searches": profile_searches,
        "sample_interval": profile_sample_interval,
        "samples": cpu["samples"],
        "call_events": cpu["call_events"],
        "distinct_stacks": cpu["distinct_stacks"],
        "collapsed_sha256": digest,
        "subsystems": cpu["subsystems"],
    }


# -- assembly ------------------------------------------------------------


#: Section name → bench function; ``repro perf --only <name>`` runs a
#: subset (new sections register here and nowhere else).
BENCH_SECTIONS = {
    "sensitivity": bench_sensitivity,
    "simulator": bench_simulator,
    "search": bench_search,
    "engine_scaling": bench_engine_scaling,
    "scale": bench_scale,
    "monitor": bench_monitor,
    "lint": bench_lint,
    "profile": bench_profile,
}


def resolve_params(**overrides: Any) -> Dict[str, Any]:
    """:data:`DEFAULT_PARAMS` patched by the non-``None`` *overrides*;
    an unknown name raises ``TypeError``."""
    params = dict(DEFAULT_PARAMS)
    unknown = set(overrides) - set(params)
    if unknown:
        raise TypeError(f"unknown perf parameters: {sorted(unknown)}")
    params.update({k: v for k, v in overrides.items() if v is not None})
    return params


def run_all(only: Optional[List[str]] = None, profile: bool = False,
            **overrides: Any) -> Dict[str, Any]:
    """Run every bench (or just the *only* sections); *overrides* patch
    :data:`DEFAULT_PARAMS`. Unknown section names raise ``ValueError``,
    and so does an empty *only* list — running zero sections would
    produce a baseline holding nothing but metadata.

    The ``profile`` section only runs when asked for — ``profile=True``
    (the ``--profile`` flag) or an explicit ``--only profile``.
    """
    params = resolve_params(**overrides)
    sections = list(BENCH_SECTIONS)
    if only is not None:
        bad = [name for name in only if name not in BENCH_SECTIONS]
        if bad:
            raise ValueError(
                f"unknown perf sections: {', '.join(bad)} "
                f"(known: {', '.join(BENCH_SECTIONS)})")
        if not only:
            raise ValueError(
                "no perf sections selected "
                f"(known: {', '.join(BENCH_SECTIONS)})")
        wanted = set(only)
        sections = [name for name in sections if name in wanted]
    elif not profile:
        sections = [name for name in sections if name != "profile"]
    results: Dict[str, Any] = {
        "meta": {
            "schema": 1,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "params": params,
        },
    }
    for name in sections:
        # Collect the previous section's cyclic garbage (the engine
        # corpus leaves ~0.4 s of it) now, not inside the next timing.
        gc.collect()
        results[name] = BENCH_SECTIONS[name](**params)
    return results


def write_baseline(results: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def merge_params(existing: Dict[str, Any],
                 params: Dict[str, Any]) -> Dict[str, Any]:
    """The workload params of *existing* plus *params*, minus any
    param :data:`DEFAULT_PARAMS` no longer defines (a retired knob
    would otherwise survive every merge and make the next
    ``check_regression`` re-run fail). A param both hold with
    different values raises ``ValueError`` naming it: the sections of
    one baseline must share one workload."""
    old = existing.get("meta", {}).get("params", {})
    for key in sorted(set(old) & set(params)):
        if old[key] != params[key]:
            raise ValueError(
                f"param {key!r} is {params[key]!r} but the existing "
                f"baseline recorded {old[key]!r}")
    return {key: value for key, value in {**old, **params}.items()
            if key in DEFAULT_PARAMS}


def merge_baseline(existing: Dict[str, Any],
                   results: Dict[str, Any]) -> Dict[str, Any]:
    """*results* written over *existing*: measured sections replace
    theirs, skipped sections stay, params merge (see
    :func:`merge_params`)."""
    params = merge_params(existing, results["meta"]["params"])
    merged = {**existing, **results}
    merged["meta"] = {**results["meta"], "params": params}
    return merged


def format_report(results: Dict[str, Any]) -> str:
    """The human-readable table ``repro perf`` prints.

    Tolerates missing sections (``repro perf --only ...`` runs a
    subset); each block renders only when its section is present.
    """
    sens = results.get("sensitivity")
    sim = results.get("simulator")
    search = results.get("search")
    scaling = results.get("engine_scaling")
    mon = results.get("monitor")
    lines = [
        "== CYCLOSA pipeline perf ==",
        f"python {results['meta']['python']}  "
        f"({results['meta']['platform']})",
    ]
    if sens is not None:
        lines += [
            "",
            f"sensitivity ({sens['history_size']}-query history, "
            f"{sens['probes']} probes)",
            f"  cold assessments/sec      : "
            f"{sens['cold_assessments_per_sec']:>12.1f}",
            f"  warm assessments/sec      : "
            f"{sens['warm_assessments_per_sec']:>12.1f}",
            f"  linkability indexed/sec   : "
            f"{sens['linkability_indexed_scores_per_sec']:>12.1f}",
            f"  linkability linear/sec    : "
            f"{sens['linkability_linear_scores_per_sec']:>12.1f}",
            f"  indexed speedup           : "
            f"{sens['linkability_speedup']:>11.1f}x  "
            f"(scores identical: {sens['scores_bit_identical']})",
        ]
    if sim is not None:
        lines += [
            "",
            f"simulator ({sim['events']} events, "
            f"{sim['cancelled']} cancelled)",
            f"  events/sec                : {sim['events_per_sec']:>12.0f}",
        ]
    if search is not None:
        lines += [
            "",
            f"end-to-end ({search['num_nodes']} nodes, "
            f"{search['searches']} searches, {search['ok']} ok)",
            f"  searches/sec (wall)       : "
            f"{search['searches_per_sec']:>12.2f}",
            f"  deploy seconds            : "
            f"{search['deploy_seconds']:>12.2f}",
            "  simulated stage breakdown :",
        ]
        breakdown = search["stage_breakdown_simulated_seconds"]
        for stage, duration in breakdown.items():
            lines.append(f"    {stage:<20} {duration * 1000:>10.3f} ms")
        total = search.get("simulated_end_to_end_seconds")
        if total is not None:
            lines.append(f"    {'end-to-end':<20} {total * 1000:>10.3f} ms")
    if scaling is not None:
        lines += [
            "",
            f"engine tier ({scaling['engine_queries']} queries, "
            f"{scaling['unique_queries']} unique, "
            f"{scaling['corpus_docs']} docs)",
            f"  baseline searches/sec     : "
            f"{scaling['baseline_searches_per_sec']:>12.1f}  "
            "(1 replica, no cache/batch)",
        ]
        for row in scaling["scaled"]:
            lines.append(
                f"  {row['replicas']} replica(s) searches/sec : "
                f"{row['searches_per_sec']:>12.1f}  "
                f"({row['cache_hit_rate'] * 100:.0f}% cache hits; "
                f"{row['searches_per_sec_cache_off']:.1f} caches off)")
        lines.append(
            f"  best speedup              : "
            f"{scaling['speedup']:>11.1f}x  "
            f"(sharded identical: {scaling['sharded_identical']})")
    scale = results.get("scale")
    if scale is not None:
        lines += [
            "",
            f"churn+chaos overlay ({scale['num_nodes']} nodes, "
            f"{scale['duration']}s simulated, {scale['events']} events)",
            f"  events/sec                : "
            f"{scale['events_per_sec']:>12.0f}",
        ]
    if mon is not None:
        lines += [
            "",
            f"flight recorder ({mon['monitor_windows']} windows)",
            f"  windows/sec               : "
            f"{mon['windows_per_sec']:>12.1f}",
            f"  disabled-guard events/sec : "
            f"{mon['disabled_events_per_sec']:>12.0f}",
        ]
    lint = results.get("lint")
    if lint is not None:
        lines += [
            "",
            f"static analysis ({lint['files']} files, "
            f"{lint['findings']} finding(s))",
            f"  files/sec                 : "
            f"{lint['files_per_sec']:>12.1f}",
        ]
    prof = results.get("profile")
    if prof is not None:
        lines += [
            "",
            f"profile ({prof['scenario']} scenario, {prof['nodes']} nodes, "
            f"{prof['searches']} searches, 1 sample / "
            f"{prof['sample_interval']} call events)",
            f"  samples                   : {prof['samples']:>12d}",
            f"  call events               : {prof['call_events']:>12d}",
            f"  distinct stacks           : {prof['distinct_stacks']:>12d}",
            f"  collapsed sha256          : "
            f"{prof['collapsed_sha256'][:16]}...",
        ]
        shares = sorted(prof["subsystems"].items(),
                        key=lambda item: (-item[1]["self_pct"], item[0]))
        for subsystem, share in shares:
            lines.append(
                f"    {subsystem:<14} self {share['self_pct']:>6.2f}%  "
                f"cum {share['cum_pct']:>6.2f}%")
    return "\n".join(lines)


def compare(baseline: Dict[str, Any], fresh: Dict[str, Any],
            tolerance: float = 0.2) -> List[Dict[str, Any]]:
    """Per-metric comparison rows; a row regressed when the fresh
    throughput fell more than *tolerance* below the baseline."""
    rows = []
    for section, key in THROUGHPUT_KEYS:
        if section not in baseline or section not in fresh:
            continue  # partial run / older-schema baseline
        base = float(baseline[section][key])
        now = float(fresh[section][key])
        ratio = now / base if base else float("inf")
        rows.append({
            "metric": f"{section}.{key}",
            "baseline": base,
            "fresh": now,
            "ratio": ratio,
            "regressed": ratio < (1.0 - tolerance),
        })
    return rows
