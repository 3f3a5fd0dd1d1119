"""Engine tier scale-out inside a full CYCLOSA deployment.

The repository benchmark measures the tier's wall-clock throughput:
``fanin`` with a cached 3-replica engine and ``engine-miss`` with 2
replicas and the caches bypassed (``bench/README.md``). This
experiment asks the deployment-level question: with real protected
searches — fake queries, relays, sealed channels, the works — what
does sharding the engine change for the *user* and for the *tier*?

Per replica count it reports:

- correctness: every result page must byte-equal the single-replica
  deployment's (the sharding invariant, end to end);
- simulated median end-to-end latency (scatter-gather adds interlink
  hops; the batch window adds admission delay — the experiment makes
  that cost visible rather than pretending scale-out is free);
- load spread: queries served per replica (crc32 identity routing);
- cache traffic: response-cache hit rate across the tier.

Run as a module for the table::

    PYTHONPATH=src python -m repro.experiments.engine_scaling
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.experiments.common import print_table
from repro.metrics.latencystats import percentile

#: Queries driven through every deployment (repetitive, cache-friendly
#: — like the AOL workload the attack experiments replay).
DEFAULT_QUERIES = (
    "symptoms cancer treatment",
    "cheap flights paris",
    "symptoms cancer treatment",
    "football league scores",
    "cheap flights paris",
    "symptoms cancer treatment",
)


def run(num_nodes: int = 12, replica_counts=(1, 2, 4),
        cache_size: int = 256, batch_window: float = 0.05,
        seed: int = 0, queries=DEFAULT_QUERIES) -> List[Dict[str, Any]]:
    """One row per replica count; row 0 (one replica, no cache) is the
    reference the others must byte-match."""
    rows: List[Dict[str, Any]] = []
    reference_pages = None
    for replicas in replica_counts:
        config = CyclosaConfig(
            engine_replicas=replicas,
            engine_cache_size=cache_size if replicas > 1 else None,
            engine_batch_window=batch_window if replicas > 1 else 0.0)
        deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                           config=config)
        pages, latencies = [], []
        for index, query in enumerate(queries):
            result = deployment.node(
                index % len(deployment.nodes)).search(query)
            pages.append(result.hits)
            latencies.append(result.latency)
        if reference_pages is None:
            reference_pages = pages
        served = [len(node.tap.entries)
                  for node in deployment.engine_nodes]
        lookups = hits = 0
        for node in deployment.engine_nodes:
            if node.response_cache is not None:
                stats = node.response_cache.stats()
                hits += stats["hits"]
                lookups += stats["hits"] + stats["misses"]
        rows.append({
            "replicas": replicas,
            "pages_identical": pages == reference_pages,
            "median_latency": percentile(latencies, 0.5),
            "served_per_replica": served,
            "cache_hit_rate": (hits / lookups) if lookups else None,
        })
    return rows


def main() -> None:
    rows = run()
    print_table(
        "Engine scale-out — protected searches over the replica tier",
        ["replicas", "pages identical", "p50 latency", "served/replica",
         "cache hits"],
        [[r["replicas"],
          "yes" if r["pages_identical"] else "NO",
          f"{r['median_latency']:.2f} s",
          "/".join(str(count) for count in r["served_per_replica"]),
          (f"{r['cache_hit_rate'] * 100:.0f} %"
           if r["cache_hit_rate"] is not None else "-")] for r in rows])
    print("\nSharded replicas must return byte-identical pages at any "
          "count (the benchmark checks every search's page against an "
          "unsharded engine; docs/performance.md, 'Engine tier').")


if __name__ == "__main__":
    main()
