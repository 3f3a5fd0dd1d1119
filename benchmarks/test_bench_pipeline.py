"""Pipeline perf benches: the trajectory behind ``BENCH_pipeline.json``.

Three hot paths, measured the same way ``python -m repro perf`` (i.e.
:mod:`repro.perf`) measures them, plus the headline acceptance claim
of the hot-path overhaul: indexed linkability scoring over a
10 k-query history is >= 5x faster than the pre-index linear scan with
bit-identical scores.

Marked ``perf`` — excluded from tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pipeline.py \
        --benchmark-only -m perf
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import single_run
from repro import perf
from repro.core.sensitivity import LinkabilityAssessor
from repro.text.cache import cache_stats, clear_caches

pytestmark = pytest.mark.perf

SPEEDUP_FLOOR = 5.0  # acceptance: >= 5x over the linear scan at 10k


def test_bench_linkability_index_speedup(benchmark, report):
    """10k-query history: indexed score >= 5x the linear scan,
    bit-identical."""
    texts = perf.workload_queries(10000 + 40, seed=3)
    history, probes = texts[:10000], texts[10000:]
    assessor = LinkabilityAssessor(history=history)

    def indexed_pass():
        return [assessor.score(query) for query in probes]

    indexed_scores = single_run(benchmark, indexed_pass)
    begin = time.perf_counter()
    indexed_scores = indexed_pass()
    indexed_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    linear_scores = [assessor.score_linear(query) for query in probes]
    linear_seconds = time.perf_counter() - begin

    speedup = linear_seconds / indexed_seconds
    report("\n".join([
        "",
        "== Linkability: inverted index vs linear scan (10k history) ==",
        f"indexed : {len(probes) / indexed_seconds:>10.1f} scores/sec",
        f"linear  : {len(probes) / linear_seconds:>10.1f} scores/sec",
        f"speedup : {speedup:>10.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)",
        f"scores bit-identical: {indexed_scores == linear_scores}",
    ]))
    assert indexed_scores == linear_scores
    assert speedup >= SPEEDUP_FLOOR


def test_bench_memoized_text_stack(benchmark, report):
    """Warm-path assessments beat the cold path; caches record hits."""
    clear_caches()
    results = single_run(
        benchmark, perf.bench_sensitivity,
        history_size=5000, probes=200, linear_probes=10, seed=1)
    stats = cache_stats()
    report("\n".join([
        "",
        "== Memoized text stack (5k history, 200 probes) ==",
        f"cold : {results['cold_assessments_per_sec']:>10.1f} assessments/sec",
        f"warm : {results['warm_assessments_per_sec']:>10.1f} assessments/sec",
        f"stem cache      : {stats['porter_stem']['hits']} hits / "
        f"{stats['porter_stem']['misses']} misses",
        f"vector cache    : {stats['query_vectors']['hits']} hits / "
        f"{stats['query_vectors']['misses']} misses",
    ]))
    assert results["scores_bit_identical"]
    assert (results["warm_assessments_per_sec"]
            > results["cold_assessments_per_sec"])
    assert stats["query_vectors"]["hits"] > 0
    assert stats["porter_stem"]["hits"] > 0


def test_bench_simulator_events_per_sec(benchmark, report):
    """The slim event loop on the synthetic rescheduling workload."""
    results = single_run(benchmark, perf.bench_simulator,
                         num_events=200000, chains=64, seed=0)
    report("\n".join([
        "",
        "== Simulator event loop ==",
        f"events     : {results['events']}",
        f"cancelled  : {results['cancelled']}",
        f"events/sec : {results['events_per_sec']:>12.0f}",
    ]))
    assert results["events"] >= 200000
    assert results["events_per_sec"] > 0


def test_bench_end_to_end_searches(benchmark, report):
    """Wall-clock protected searches/sec + the stage breakdown."""
    results = single_run(benchmark, perf.bench_search,
                         num_nodes=12, searches=10, seed=7)
    stages = results["stage_breakdown_simulated_seconds"]
    report("\n".join([
        "",
        "== End-to-end protected searches ==",
        f"searches/sec : {results['searches_per_sec']:>8.2f} "
        f"({results['ok']}/{results['searches']} ok)",
        "stages       : " + ", ".join(
            f"{name}={duration * 1000:.1f}ms"
            for name, duration in stages.items()),
    ]))
    assert results["ok"] == results["searches"]
    # Every canonical pipeline stage appears in the traced breakdown.
    for stage in ("sensitivity", "adaptive_k", "fake_generation",
                  "fanout", "engine", "response_filtering"):
        assert stage in stages
    # The engine row is service time, the path row the relay/network
    # remainder — they must no longer alias the same round trip.
    assert stages["engine"] != stages["path"]


ENGINE_SPEEDUP_FLOOR = 5.0  # acceptance: replicas+cache+batch vs 1 replica


def test_bench_engine_scaling_speedup(benchmark, report):
    """Sharded replicas + caches + batching >= 5x one bare replica,
    with byte-identical result pages."""
    results = single_run(benchmark, perf.bench_engine_scaling, seed=0)
    report("\n".join([
        "",
        "== Engine tier scale-out ==",
        f"baseline : {results['baseline_searches_per_sec']:>10.1f} "
        "searches/sec  (1 replica, no cache/batch)",
        *(f"{row['replicas']} replicas: "
          f"{row['searches_per_sec']:>10.1f} searches/sec  "
          f"({row['cache_hit_rate'] * 100:.0f}% cache hits; "
          f"{row['searches_per_sec_cache_off']:.1f} with caches off)"
          for row in results["scaled"]),
        f"speedup  : {results['speedup']:>10.1f}x  "
        f"(floor {ENGINE_SPEEDUP_FLOOR:.0f}x)",
        f"sharded pages identical: {results['sharded_identical']}",
    ]))
    assert results["sharded_identical"]
    assert results["speedup"] >= ENGINE_SPEEDUP_FLOOR


#: Totals of the default 10k-node x 20 s churn+chaos scenario at seed
#: 0, recorded from the space-partitioned kernel it first ran on.
SCALE_TOTALS = {"events": 1_448_338, "messages_sent": 1_079_355,
                "departed": 1_041, "dropped_to_departed": 31_034,
                "completed_rounds": 181_524, "ok_rounds": 134_965}


def test_bench_scale(benchmark, report):
    """`repro scale` with defaults completes with its pinned totals."""
    from repro.experiments import shard_scale

    results = single_run(benchmark, shard_scale.run)
    report("\n".join(["", "== Churn+chaos overlay (10k nodes, 20 s) ==",
                      shard_scale.format_report(results)]))
    assert {key: results[key] for key in SCALE_TOTALS} == SCALE_TOTALS
