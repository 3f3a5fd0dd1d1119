"""The two floors under the ``perf`` marker.

- the linkability index: indexed scoring over a 10 k-query history is
  >= 5x faster than the pre-index linear scan, with bit-identical
  scores;
- ``repro scale`` at its defaults completes with its pinned totals.

Speed itself is measured by the repository benchmark (``python -m bench
run|compare``, see ``bench/README.md``). Marked ``perf`` — excluded
from tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pipeline.py \
        --benchmark-only -m perf
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import single_run
from repro import perf
from repro.core.sensitivity import LinkabilityAssessor

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
