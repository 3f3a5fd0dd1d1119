"""Public API: build and drive a CYCLOSA deployment.

:class:`CyclosaNetwork` assembles everything — the event loop, the
simulated internet, the search engine, the attestation service, the
bootstrap repository and N CYCLOSA nodes — wires the latency
calibration from :class:`~repro.core.config.CyclosaConfig`, and runs
the warm-up (gossip mixing, engine handshakes).

:meth:`CyclosaUser.search` is the synchronous facade used by the
examples: it schedules a protected search and drives the simulator
until the result lands.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import CyclosaConfig
from repro.core.enclave import CyclosaEnclave
from repro.core.node import CyclosaNode, CyclosaServices
from repro.core.sensitivity import SemanticAssessor
from repro.datasets.trends import trending_queries
from repro.gossip.bootstrap_repo import PublicRepository
from repro.net.latency import LogNormalLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.searchengine.cache import ResultCache
from repro.searchengine.corpus import Corpus, build_corpus
from repro.searchengine.node import SearchEngineNode
from repro.searchengine.ratelimit import RateLimiter
from repro.searchengine.sharding import build_shard_engines, replica_addresses
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy
from repro.text.wordnet import SyntheticWordNet


@dataclass(frozen=True)
class SearchResult:
    """What a user gets back from one protected search."""

    query: str
    k: int
    status: str
    hits: List[Dict[str, Any]]
    latency: float
    #: Trace id of the search's root span when observability is
    #: enabled (see :mod:`repro.obs`); ``None`` otherwise.
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def documents(self) -> List[str]:
        """Result URLs, in rank order."""
        return [hit["url"] for hit in self.hits]


class CyclosaUser:
    """Synchronous facade over one node for interactive use."""

    def __init__(self, deployment: "CyclosaNetwork", node: CyclosaNode) -> None:
        self._deployment = deployment
        self.node = node

    def search(self, query: str, k_override: Optional[int] = None,
               max_wait: float = 600.0) -> SearchResult:
        """Issue a protected search and run the simulation until the
        result arrives (or *max_wait* simulated seconds elapse)."""
        holder: Dict[str, Any] = {}
        self.node.search(query, on_result=lambda r: holder.update(r),
                         k_override=k_override)
        trace_id = self.node.last_trace_id
        simulator = self._deployment.simulator
        deadline = simulator.now + max_wait
        simulator.run(stop_when=lambda: "status" in holder
                      or not simulator.now < deadline)
        if "status" not in holder:
            return SearchResult(query=query, k=-1, status="timeout",
                                hits=[], latency=max_wait,
                                trace_id=trace_id)
        return SearchResult(
            query=holder["query"], k=holder["k"], status=holder["status"],
            hits=holder["hits"], latency=holder["latency"],
            trace_id=trace_id)

    def preload_history(self, queries: List[str]) -> None:
        self.node.preload_history(queries)


def _register_backlog_collector(registry, deployment: "CyclosaNetwork") -> None:
    """Bridge ``outstanding_searches()`` into the registry as a
    pull-based gauge.

    Registered on ``observe=True`` deployments so backlog depth is
    visible to snapshots, the time-series layer and the chaos matrix
    without per-event plumbing: the gauges are refreshed only when the
    registry is collected, never on the search hot path. The collector
    holds a weak reference — once the deployment is garbage, it stops
    touching the gauges (and ``enable(fresh=True)`` carrying it into a
    later run's registry stays harmless)."""
    ref = weakref.ref(deployment)

    def collect(reg) -> None:
        dep = ref()
        if dep is None:
            return
        reg.gauge(
            "cyclosa_core_outstanding_searches",
            "protected searches issued but not yet terminal, summed "
            "over all nodes (pull gauge over outstanding_searches())",
        ).set(sum(node.outstanding_count() for node in dep.nodes))
        reg.gauge(
            "cyclosa_net_pending_events",
            "future events on the deployment's simulator heap",
        ).set(dep.simulator.pending)

    registry.register_collector(collect)


@dataclass
class CyclosaNetwork:
    """A fully assembled CYCLOSA deployment over the simulator."""

    simulator: Simulator
    network: Network
    engine_node: SearchEngineNode
    nodes: List[CyclosaNode]
    services: CyclosaServices
    config: CyclosaConfig
    rng: random.Random
    #: Every engine replica (``engine_node`` is replica 0; a single
    #: entry on unsharded deployments).
    engine_nodes: List[SearchEngineNode] = field(default_factory=list)
    _users: Dict[int, CyclosaUser] = field(default_factory=dict)

    @classmethod
    def create(cls, num_nodes: int = 20, seed: int = 0,
               config: Optional[CyclosaConfig] = None,
               semantic: Optional[SemanticAssessor] = None,
               corpus: Optional[Corpus] = None,
               warmup_seconds: float = 40.0,
               observe: bool = False) -> "CyclosaNetwork":
        """Build a deployment.

        Parameters
        ----------
        num_nodes:
            CYCLOSA participants (each is simultaneously client and relay).
        seed:
            Master seed; the whole deployment is deterministic given it.
        config:
            Tunables; defaults to the paper's evaluation settings.
        semantic:
            Shared semantic assessor. Default: WordNet-domain
            dictionaries over the user's sensitive topics (building the
            LDA leg is the experiments' job — it needs a training
            corpus).
        corpus:
            Search-engine corpus; a default corpus is generated if omitted.
        warmup_seconds:
            Simulated time to let gossip mix views and engine
            handshakes finish before the deployment is used.
        observe:
            Enable :mod:`repro.obs` tracing + metrics for this
            deployment, with spans stamped in *simulated* time. The
            obs state is process-global: the last deployment created
            with ``observe=True`` owns it.
        """
        if num_nodes < 2:
            raise ValueError("a CYCLOSA overlay needs at least 2 nodes")
        config = config or CyclosaConfig()
        rng = random.Random(seed)
        simulator = Simulator()
        if observe:
            import repro.obs as obs

            obs.enable(simulator=simulator)
        network = Network(
            simulator, rng,
            default_latency=LogNormalLatency(
                median=config.peer_link_median,
                sigma=config.peer_link_sigma))

        corpus_obj = corpus if corpus is not None else build_corpus(seed=seed)
        num_replicas = config.engine_replicas
        addresses = replica_addresses(num_replicas)
        engines = build_shard_engines(
            corpus_obj, num_replicas,
            results_per_query=config.results_per_query)
        engine_nodes: List[SearchEngineNode] = []
        for address, engine in zip(addresses, engines):
            rate_limiter = None
            if config.engine_rate_limit is not None:
                # One limiter per replica: each replica admits the
                # identities routed to it (Fig 8d reproduces per replica).
                rate_limiter = RateLimiter(
                    max_per_window=config.engine_rate_limit)
            engine_nodes.append(SearchEngineNode(
                network, engine, rng, address=address,
                processing=LogNormalLatency(
                    median=config.engine_processing_median,
                    sigma=config.engine_processing_sigma),
                rate_limiter=rate_limiter,
                log_capacity=config.engine_log_capacity,
                cluster=addresses if num_replicas > 1 else None,
                response_cache=(ResultCache(config.engine_cache_size)
                                if config.engine_cache_size else None),
                partial_cache=(ResultCache(config.engine_cache_size)
                               if config.engine_cache_size
                               and num_replicas > 1 else None),
                batch_window=config.engine_batch_window,
                shard_timeout=config.engine_shard_timeout))
        engine_node = engine_nodes[0]
        # Datacenter interconnect between replicas, plus the sealed
        # channels the scatter-gather partials ride on (established
        # during warm-up).
        for first in engine_nodes:
            for second in engine_nodes:
                if first is not second:
                    network.set_link_latency(
                        first.address, second.address,
                        LogNormalLatency(
                            median=config.engine_interlink_median,
                            sigma=0.2))
        for index, first in enumerate(engine_nodes):
            for second in engine_nodes[index + 1:]:
                first.tls.establish(second.address,
                                    on_ready=lambda channel: None)

        if semantic is None:
            wordnet = SyntheticWordNet.build(seed=seed)
            semantic = SemanticAssessor.from_resources(
                wordnet=wordnet,
                sensitive_topics=config.sensitive_topics,
                mode="wordnet", wordnet_min_hits=1)

        services = CyclosaServices(
            ias=IntelAttestationService(),
            policy=MeasurementPolicy(),
            repository=PublicRepository(rng),
            engine_address=engine_node.address,
            engine_addresses=tuple(addresses),
            bootstrap_queries=trending_queries(config.bootstrap_trends,
                                               seed=seed))
        services.policy.allow_class(CyclosaEnclave)

        nodes: List[CyclosaNode] = []
        for index in range(num_nodes):
            node = CyclosaNode(
                network, f"node{index:03d}", rng, config, services,
                semantic=semantic, user_id=f"user{index:03d}")
            # Peers reach the engine tier over a fast, well-peered path
            # — unlike the residential peer↔peer links.
            for replica in engine_nodes:
                network.set_link_latency(
                    node.address, replica.address,
                    LogNormalLatency(median=config.engine_link_median,
                                     sigma=0.3))
            nodes.append(node)
        for node in nodes:
            node.bootstrap()

        deployment = cls(
            simulator=simulator, network=network, engine_node=engine_node,
            nodes=nodes, services=services, config=config, rng=rng,
            engine_nodes=engine_nodes)
        if observe:
            import repro.obs as obs

            _register_backlog_collector(obs.get_registry(), deployment)
        if warmup_seconds > 0:
            simulator.run(until=warmup_seconds)
        return deployment

    # -- access ------------------------------------------------------------

    def node(self, index: int) -> CyclosaUser:
        """A synchronous user handle for node *index*."""
        if index not in self._users:
            self._users[index] = CyclosaUser(self, self.nodes[index])
        return self._users[index]

    def run(self, seconds: float) -> None:
        """Advance the whole deployment by *seconds* of simulated time."""
        self.simulator.advance(seconds)

    def assembled_trace(self, trace_id: str):
        """Merge every node's span sink into the one causal trace of
        *trace_id* (see :func:`repro.obs.distributed.assemble`).

        Requires ``observe=True``; drive the deployment forward first
        (``deployment.run(...)``) if you want the fake legs' responses
        — which arrive after the real result — included.
        """
        import repro.obs as obs

        return obs.assemble(trace_id, *obs.trace_sources(obs.OBS))

    @property
    def engine_log(self):
        """The honest-but-curious engine's observation log (for attacks
        and metrics).

        A bounded ring buffer: ``config.engine_log_capacity`` caps how
        many observations are retained (oldest evicted first; eviction
        counts are on ``engine_node.tap.dropped``). With replicas, the
        tier-wide view: every replica's tap merged in timestamp order
        (the engine operator runs all replicas, so the adversary sees
        the union). Same-timestamp observations — common under the
        discrete-event clock, where several replicas serve in the same
        instant — tie-break on ``(replica index, arrival rank)``, so
        the merged order is a pure function of the deployment seed and
        never of Python's sort internals."""
        if len(self.engine_nodes) <= 1:
            return self.engine_node.tap.entries
        merged = [(entry.timestamp, replica_index, entry.seq, entry)
                  for replica_index, replica in enumerate(self.engine_nodes)
                  for entry in replica.tap.entries]
        merged.sort(key=lambda item: item[:3])
        return [entry for _, _, _, entry in merged]
