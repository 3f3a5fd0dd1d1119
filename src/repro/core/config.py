"""Configuration for CYCLOSA nodes and networks.

One dataclass gathers every tunable the paper mentions, with defaults
matching the evaluation setup (kmax = 7 for the privacy experiments,
k = 3 for the latency ones — experiments override as needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.datasets.vocabulary import SENSITIVE_TOPICS


@dataclass
class CyclosaConfig:
    """All knobs of a CYCLOSA deployment."""

    # -- adaptive protection (§V-B) -------------------------------------
    #: Maximum number of fake queries; semantically sensitive queries
    #: always get this many (Fig 7 uses kmax = 7).
    kmax: int = 7
    #: Topics the user declared sensitive (§V-A1; default: all four of
    #: the Google-privacy-policy categories).
    sensitive_topics: Tuple[str, ...] = SENSITIVE_TOPICS
    #: Exponential-smoothing factor of the linkability assessment.
    smoothing_alpha: float = 0.5

    # -- fake-query table (§IV, §V-D) ------------------------------------
    #: Maximum number of past queries retained in enclave memory.
    table_capacity: int = 2000
    #: Number of trending queries used to seed an empty table.
    bootstrap_trends: int = 50
    #: Approximate bytes charged to the EPC per stored query.
    bytes_per_table_entry: int = 64

    # -- overlay (§V-E) ----------------------------------------------------
    #: Peer-sampling partial-view size.
    view_size: int = 8
    #: Seconds between gossip rounds.
    gossip_interval: float = 5.0
    #: Seed peers drawn from the public repository when joining.
    bootstrap_sample: int = 4

    # -- forwarding (§V-C, §VI-b) ------------------------------------------
    #: Seconds before an unresponsive relay is blacklisted and the real
    #: query is retried through another peer.
    relay_timeout: float = 5.0
    #: Maximum retries for the real query after relay failures.
    max_retries: int = 3
    #: Client-side per-dispatch overhead (enclave sealing + js-ctypes
    #: marshalling + consumer uplink serialisation); this is what makes
    #: latency grow with k in Fig 8b.
    client_request_overhead: float = 0.085
    #: Real-query retries back off exponentially so a degraded overlay
    #: is not hammered: the r-th retry waits
    #: ``min(retry_backoff_max, retry_backoff_base * retry_backoff_factor**r)``
    #: seconds, stretched by up to ``retry_backoff_jitter`` (a fraction,
    #: drawn from the deployment RNG — deterministic per seed) to keep
    #: synchronised clients from retrying in lock-step.
    retry_backoff_base: float = 0.25
    retry_backoff_factor: float = 2.0
    retry_backoff_max: float = 5.0
    retry_backoff_jitter: float = 0.2

    # -- latency calibration (Fig 8a) ---------------------------------------
    #: Median / sigma of the residential peer-to-peer link (one way).
    peer_link_median: float = 0.105
    peer_link_sigma: float = 0.45
    #: Median one-way latency from a peer to the search engine.
    engine_link_median: float = 0.03
    #: Search-engine processing median / sigma.
    engine_processing_median: float = 0.32
    engine_processing_sigma: float = 0.35

    # -- engine ---------------------------------------------------------
    #: Results per query returned by the engine.
    results_per_query: int = 10
    #: Optional per-identity hourly rate limit at the engine
    #: (None = unlimited; Fig 8d sets 1000/h). With replicas, each
    #: replica runs its own limiter over the identities routed to it.
    engine_rate_limit: Optional[int] = None
    #: Ring-buffer capacity of the honest-but-curious engine log
    #: (None = unbounded; the default bounds memory on long runs while
    #: retaining far more history than any experiment consumes).
    engine_log_capacity: Optional[int] = 100_000

    # -- engine tier scale-out ------------------------------------------
    #: Engine replica nodes; the TF-IDF posting lists are sharded
    #: across them (doc_id % replicas) and every replica coordinates
    #: scatter-gather merges for the clients routed to it. 1 (the
    #: default) reproduces the single-engine deployments byte for byte.
    engine_replicas: int = 1
    #: Capacity of the per-replica result caches (response pages and
    #: shard partials). None disables caching. Cache hits are
    #: indistinguishable from misses on the wire — identical message
    #: kinds, sizes, and seeded response timing; only ranking CPU is
    #: saved (audited by repro.obs.audit.audit_cache_indistinguishability).
    engine_cache_size: Optional[int] = None
    #: Simulated seconds a replica holds admitted queries before
    #: serving them as one batch (duplicates ranked once, one
    #: scatter-gather round per sibling per flush). 0 disables
    #: batching and serves every query immediately (the default).
    engine_batch_window: float = 0.0
    #: Simulated seconds a coordinator waits for a sibling replica's
    #: partial top-k before degrading to the surviving shards.
    engine_shard_timeout: float = 2.0
    #: Median one-way latency between engine replicas (datacenter
    #: interconnect, far below the peer links).
    engine_interlink_median: float = 0.002

    def __post_init__(self) -> None:
        if self.kmax < 0:
            raise ValueError("kmax must be >= 0")
        if not 0.0 < self.smoothing_alpha <= 1.0:
            raise ValueError("smoothing_alpha must be in (0, 1]")
        if self.table_capacity < 1:
            raise ValueError("table_capacity must be >= 1")
        if self.engine_log_capacity is not None \
                and self.engine_log_capacity < 1:
            raise ValueError("engine_log_capacity must be >= 1 (or None)")
        if self.engine_replicas < 1:
            raise ValueError("engine_replicas must be >= 1")
        if self.engine_cache_size is not None and self.engine_cache_size < 1:
            raise ValueError("engine_cache_size must be >= 1 (or None)")
        if self.engine_batch_window < 0:
            raise ValueError("engine_batch_window must be >= 0")
        if self.engine_shard_timeout <= 0:
            raise ValueError("engine_shard_timeout must be > 0")
        unknown = set(self.sensitive_topics) - set(SENSITIVE_TOPICS)
        # Users may define custom topics by importing dictionaries
        # (§V-A1); unknown names are allowed but must be non-empty.
        if any(not topic for topic in self.sensitive_topics):
            raise ValueError("sensitive topic names must be non-empty")
        del unknown
