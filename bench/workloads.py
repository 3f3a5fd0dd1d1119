"""The four workloads, driven through ``repro``'s public API.

Every input is generated from the run's seed; the program under test
only ever receives the generated inputs. A workload's size is a fixed
function of the seconds it is given (``SEARCHES_PER_SECOND`` searches
per second of budget), not a wall-clock cut-off: the measured phase
lasts about that many reference seconds, and every simulated metric and
the result digest stay a pure function of the seed and the size.

A measured phase records :func:`bench.speed.now` readings, not durations:
at its start and end, and when each search was issued and answered. The
runner turns them into reference seconds (:mod:`bench.speed`).

- ``search``      — closed loop: one protected search at a time from
  users with a real history (the paper's Fig 8a method).
- ``fanin``       — open loop at 20 searches per simulated second on a
  128-node overlay with a cached, batched 3-replica engine tier.
- ``engine-miss`` — open loop at 20 distinct queries per simulated
  second straight at a 2-replica engine tier: caching is bypassed.
- ``soak``        — open loop with crash churn, a rate-limit storm,
  dropped gossip requests and observability on: the failure path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench.speed import now

#: Searches still unfinished this many simulated seconds after the last
#: one was issued count as hung.
DRAIN_CAP_S = 600.0
#: An open loop advances the simulation this many simulated seconds at
#: a time, and checks between steps whether every search has answered.
STEP_S = 1.0

#: (start, end) :func:`bench.speed.now` readings.
Span = Tuple[float, float]


@dataclass
class Outcome:
    """What one measured phase produced."""

    #: One record per issued search, in issue order; ``None`` for a
    #: search that never delivered a result. A record's ``span`` runs
    #: from issuing the search to its result.
    records: List[Optional[dict]]
    span: Span
    #: on_result deliveries beyond the first, summed over searches.
    duplicates: int = 0
    #: Searches the system still holds as outstanding after the drain.
    outstanding: int = 0


def _record(query: str, status: str, k: int, hits: Sequence[Any],
            latency: float, span: Span) -> dict:
    return {"query": query, "status": status, "k": k,
            "urls": [hit["url"] for hit in hits], "latency": latency,
            "span": span}


def distinct_queries(count: int, seed: int) -> List[str]:
    """*count* distinct realistic query texts (AOL-like generator)."""
    from repro.perf import workload_queries

    draw = count
    while True:
        unique = list(dict.fromkeys(workload_queries(draw, seed=seed)))
        if len(unique) >= count:
            return unique[:count]
        draw *= 2


class _OpenLoop:
    """Per-search bookkeeping for an open-loop phase."""

    def __init__(self, queries: Sequence[str]) -> None:
        self.queries = list(queries)
        self.records: List[Optional[dict]] = [None] * len(queries)
        self.deliveries = [0] * len(queries)
        self.started = [0.0] * len(queries)
        self.done = 0

    def start(self, index: int) -> None:
        self.started[index] = now()

    def finish(self, index: int, status: str, k: int, hits, latency: float
               ) -> None:
        end = now()
        self.deliveries[index] += 1
        if self.deliveries[index] == 1:
            self.done += 1
            self.records[index] = _record(self.queries[index], status, k,
                                          hits, latency,
                                          (self.started[index], end))

    @property
    def duplicates(self) -> int:
        return sum(max(0, count - 1) for count in self.deliveries)


def _drain(simulator, loop: _OpenLoop, last_issue: float) -> None:
    """Advance until every search has answered, or the cap expires."""
    cap = last_issue + DRAIN_CAP_S
    while loop.done < len(loop.records) and simulator.now < cap:
        simulator.run(until=min(simulator.now + STEP_S, cap))


def _issue_cyclosa(simulator, loop: _OpenLoop, nodes, start: float,
                   interval: float, k_override: Optional[int] = None
                   ) -> float:
    """Schedule search *i* from ``nodes[i % len(nodes)]`` at
    ``start + (i + 1) * interval``; returns the last issue time."""
    when = start
    for index, query in enumerate(loop.queries):
        when = start + (index + 1) * interval
        node = nodes[index % len(nodes)]

        def issue(index=index, node=node, query=query) -> None:
            loop.start(index)
            node.search(query, k_override=k_override,
                        on_result=lambda r, i=index: loop.finish(
                            i, r["status"], r["k"], r["hits"],
                            r["latency"]))

        simulator.schedule_at(when, issue)
    return when


def _counters(simulator, network, engines, nodes=(), **extra: float
              ) -> Dict[str, float]:
    """Public-state counters; the runner reports their change over the
    measured phase. *nodes* are the CYCLOSA nodes (none on the bare
    engine tier)."""
    from repro.text.cache import cache_stats

    text = list(cache_stats().values())
    caches = [engine.response_cache for engine in engines
              if engine.response_cache is not None]
    stats = network.stats
    counters = {
        "text_hits": sum(entry["hits"] for entry in text),
        "text_misses": sum(entry["misses"] for entry in text),
        "searches": sum(node.stats.queries_issued for node in nodes),
        "retries": sum(node.stats.retries for node in nodes),
        "fakes_sent": sum(node.stats.fakes_sent for node in nodes),
        "blacklisted": sum(node.stats.blacklisted_peers for node in nodes),
        "disjointness_violations":
            sum(node.stats.disjointness_violations for node in nodes),
        "meter_s": sum(node.host.meter.total for node in nodes),
        "events": simulator.events_processed,
        "messages": stats.messages,
        "bytes": stats.bytes,
        "dropped": stats.dropped,
        "gossip_rounds": sum(node.pss.rounds_completed for node in nodes),
        "engine_requests": sum(len(engine.tap) + engine.tap.dropped
                               for engine in engines),
        "cache_hits": sum(cache.hits for cache in caches),
        "cache_misses": sum(cache.misses for cache in caches),
        "captchas": 0,
        "windows": 0,
    }
    counters.update(extra)
    return counters


class Workload:
    """One named workload: inputs, set-up, measured phase, counters."""

    name = ""
    #: Searches issued per second of ``--seconds``.
    SEARCHES_PER_SECOND: int
    #: Terminal statuses that count as correct handling.
    allowed_statuses = frozenset({"ok"})

    def size(self, seconds: float) -> int:
        return max(16, int(round(self.SEARCHES_PER_SECOND * seconds)))

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, inputs: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def measure(self, system: Any, inputs: Dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def counters(self, deployment: Any) -> Dict[str, float]:
        return _counters(deployment.simulator, deployment.network,
                         deployment.engine_nodes, deployment.nodes)

    def corpus(self, system: Any):
        return system.engine_node.engine.corpus

    def teardown(self, system: Any) -> None:
        """Release process-global state the set-up claimed."""


class SearchWorkload(Workload):
    name = "search"
    SEARCHES_PER_SECOND = 90
    NODES = 32
    USERS = 8
    HISTORY = 860

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        from repro.datasets.aol import generate_aol_log
        from repro.datasets.split import train_test_split

        # The 8 most active of 32 generated users: every history is
        # close to HISTORY queries long, so per-seed cost stays level.
        log = generate_aol_log(num_users=4 * self.USERS,
                               mean_queries_per_user=600, seed=seed)
        train, test = train_test_split(log)
        users = log.most_active_users(self.USERS)
        histories = [[r.text for r in train.queries_of(user)][:self.HISTORY]
                     for user in users]
        tests = [[r.text for r in test.queries_of(user)] for user in users]
        queries = []
        for index in range(self.size(seconds)):
            user = index % self.USERS
            own = tests[user]
            queries.append((user, own[(index // self.USERS) % len(own)]))
        return {"seed": seed, "histories": histories, "queries": queries}

    def setup(self, inputs):
        from repro.core.client import CyclosaNetwork

        deployment = CyclosaNetwork.create(num_nodes=self.NODES,
                                           seed=inputs["seed"])
        for user, history in enumerate(inputs["histories"]):
            deployment.node(user).preload_history(history)
        return deployment

    def measure(self, deployment, inputs) -> Outcome:
        records: List[Optional[dict]] = []
        begin = now()
        for user, query in inputs["queries"]:
            start = now()
            result = deployment.node(user).search(query)
            records.append(_record(query, result.status, result.k,
                                   result.hits, result.latency,
                                   (start, now())))
        span = (begin, now())
        outstanding = sum(node.outstanding_count()
                          for node in deployment.nodes)
        return Outcome(records=records, span=span, outstanding=outstanding)


class FaninWorkload(Workload):
    name = "fanin"
    SEARCHES_PER_SECOND = 85
    NODES = 128
    UNIQUE = 400
    INTERVAL = 0.05
    # k is fixed, as in the paper's latency and throughput figures.
    # Adaptive k is the search workload's job: here it would hang on
    # whether the few Zipf-head texts are sensitive, so the mean number
    # of fakes would swing by 40 % between seeds.
    K = 3

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        unique = distinct_queries(self.UNIQUE, seed)
        weights = [1.0 / (rank + 1) for rank in range(len(unique))]
        queries = random.Random(seed + 1).choices(
            unique, weights=weights, k=self.size(seconds))
        return {"seed": seed, "queries": queries}

    def setup(self, inputs):
        from repro.core.client import CyclosaNetwork
        from repro.core.config import CyclosaConfig

        config = CyclosaConfig(engine_replicas=3, engine_cache_size=4096,
                               engine_batch_window=0.05)
        return CyclosaNetwork.create(num_nodes=self.NODES,
                                     seed=inputs["seed"], config=config)

    def measure(self, deployment, inputs) -> Outcome:
        simulator = deployment.simulator
        loop = _OpenLoop(inputs["queries"])
        # Every node issues (one search per node every 6.4 simulated s):
        # with two searches in flight on one node, the current core can
        # retry with the other search's token (README.md, "Known
        # defects").
        last = _issue_cyclosa(simulator, loop, deployment.nodes,
                              simulator.now, self.INTERVAL, k_override=self.K)
        begin = now()
        _drain(simulator, loop, last)
        return Outcome(records=loop.records,
                       span=(begin, now()),
                       duplicates=loop.duplicates,
                       outstanding=sum(node.outstanding_count()
                                       for node in deployment.nodes))


@dataclass
class EngineTier:
    """The ``engine-miss`` system: replicas, senders, their simulator."""

    simulator: Any
    network: Any
    corpus: Any
    replicas: List[Any]
    senders: List[Any]


class EngineMissWorkload(Workload):
    name = "engine-miss"
    SEARCHES_PER_SECOND = 280
    DOCS_PER_TOPIC = 2000
    REPLICAS = 2
    SENDERS = 16
    INTERVAL = 0.05

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        return {"seed": seed,
                "queries": distinct_queries(self.size(seconds), seed)}

    def setup(self, inputs) -> EngineTier:
        from repro.net.latency import LogNormalLatency
        from repro.net.simulator import Simulator
        from repro.net.transport import NetNode, Network
        from repro.searchengine.cache import ResultCache
        from repro.searchengine.corpus import build_corpus
        from repro.searchengine.node import SearchEngineNode
        from repro.searchengine.sharding import (build_shard_engines,
                                                 replica_addresses)

        seed = inputs["seed"]
        corpus = build_corpus(docs_per_topic=self.DOCS_PER_TOPIC, seed=seed)
        engines = build_shard_engines(corpus, self.REPLICAS)
        simulator = Simulator()
        rng = random.Random(seed)
        network = Network(simulator, rng,
                          default_latency=LogNormalLatency(median=0.03,
                                                           sigma=0.3))
        addresses = replica_addresses(self.REPLICAS)
        replicas = [
            SearchEngineNode(
                network, engine, rng, address=address,
                processing=LogNormalLatency(median=0.05, sigma=0.2),
                cluster=addresses, response_cache=ResultCache(4096),
                partial_cache=ResultCache(4096), batch_window=0.05)
            for address, engine in zip(addresses, engines)]
        for first in replicas:
            for second in replicas:
                if first is not second:
                    network.set_link_latency(
                        first.address, second.address,
                        LogNormalLatency(median=0.002, sigma=0.2))
        for index, first in enumerate(replicas):
            for second in replicas[index + 1:]:
                first.tls.establish(second.address,
                                    on_ready=lambda channel: None)
        simulator.run(until=5.0)  # replica handshakes settle
        senders = [NetNode(network, f"sender{index:02d}")
                   for index in range(self.SENDERS)]
        return EngineTier(simulator=simulator, network=network,
                          corpus=corpus, replicas=replicas, senders=senders)

    def measure(self, tier: EngineTier, inputs) -> Outcome:
        from repro.searchengine.sharding import route_to_replica

        simulator = tier.simulator
        loop = _OpenLoop(inputs["queries"])
        addresses = [replica.address for replica in tier.replicas]
        start = simulator.now
        when = start
        for index, query in enumerate(loop.queries):
            when = start + (index + 1) * self.INTERVAL
            sender = tier.senders[index % len(tier.senders)]

            def fire(index=index, sender=sender, query=query,
                     issued=when) -> None:
                loop.start(index)
                # The plaintext ``search`` flavour, as the Direct
                # baseline uses: it isolates the tier itself.
                sender.request(
                    route_to_replica(sender.address, addresses),
                    {"query": query, "meta": {}},
                    lambda payload, i=index, t=issued: loop.finish(
                        i, payload["status"], 0, payload["hits"],
                        simulator.now - t),
                    timeout=120.0, kind="search")

            simulator.schedule_at(when, fire)
        begin = now()
        _drain(simulator, loop, when)
        return Outcome(records=loop.records,
                       span=(begin, now()),
                       duplicates=loop.duplicates)

    def counters(self, tier: EngineTier):
        return _counters(tier.simulator, tier.network, tier.replicas)

    def corpus(self, tier: EngineTier):
        return tier.corpus


@dataclass
class Soak:
    """The ``soak`` system: an observed deployment plus its recorder."""

    deployment: Any
    recorder: Any
    installed: Any = None


class SoakWorkload(Workload):
    """Crash churn, a rate-limit storm and dropped gossip requests.

    The link fault drops gossip requests, not forwarded queries. A
    forward that is lost or held past the relay timeout makes searches
    fail and retry, and on the current code such a retry can re-issue
    an earlier failed search's query: ``CyclosaNode._dispatch`` takes
    the stale real-query token that ``pending_token_for_relay`` still
    finds. The hit check catches that on most seeds, so the forward drop
    waits for the fix (README.md, "Known defects").
    """

    name = "soak"
    SEARCHES_PER_SECOND = 200
    NODES = 32
    CLIENTS = 8
    VICTIMS = 4
    K = 2
    INTERVAL = 0.4
    DRAIN_S = 120.0
    WINDOW_S = 10.0
    # Fault windows as shares of the traffic period (at 2001 searches:
    # churn over 200-300 s, storm over 400-480 s after a 40 s warm-up).
    CHURN = (0.2, 0.325)
    STORM = (0.45, 0.55)
    GOSSIP_DROP_PROBABILITY = 0.05
    allowed_statuses = frozenset({"ok", "captcha", "relay-failure",
                                  "channel-failure", "no-peers"})

    def inputs(self, seed: int, seconds: float) -> Dict[str, Any]:
        from repro.perf import workload_queries

        return {"seed": seed,
                "queries": workload_queries(self.size(seconds), seed=seed)}

    def setup(self, inputs) -> Soak:
        from repro import obs
        from repro.core.client import CyclosaNetwork
        from repro.core.config import CyclosaConfig

        config = CyclosaConfig(relay_timeout=1.5, max_retries=3)
        deployment = CyclosaNetwork.create(
            num_nodes=self.NODES, seed=inputs["seed"], config=config,
            observe=True)
        recorder = obs.TimeSeriesRecorder(
            obs.get_registry(), deployment.simulator,
            window_seconds=self.WINDOW_S)
        return Soak(deployment=deployment, recorder=recorder)

    def measure(self, soak: Soak, inputs) -> Outcome:
        from repro.faults.inject import install
        from repro.faults.plan import (Drop, FaultPlan, MessageMatch,
                                       RateLimitStorm)
        from repro.net.churn import ChurnProcess

        deployment = soak.deployment
        simulator = deployment.simulator
        seed = inputs["seed"]
        start = simulator.now
        period = len(inputs["queries"]) * self.INTERVAL
        soak.recorder.start()
        soak.installed = install(FaultPlan(seed=seed + 3, faults=(
            Drop(match=MessageMatch(kind="pss.req"),
                 probability=self.GOSSIP_DROP_PROBABILITY),
            RateLimitStorm(start=start + self.STORM[0] * period,
                           end=start + self.STORM[1] * period),
        )), deployment)
        churn = ChurnProcess(deployment.network,
                             rng=random.Random(seed * 7919 + 3),
                             repository=deployment.services.repository)
        churn.schedule_departures(
            deployment.nodes[self.NODES - self.VICTIMS:],
            start=start + self.CHURN[0] * period,
            duration=(self.CHURN[1] - self.CHURN[0]) * period,
            style="crash")
        loop = _OpenLoop(inputs["queries"])
        last = _issue_cyclosa(simulator, loop,
                              deployment.nodes[:self.CLIENTS], start,
                              self.INTERVAL, k_override=self.K)
        end = last + self.DRAIN_S
        begin = now()
        while simulator.now < end:
            simulator.run(until=min(simulator.now + STEP_S, end))
        span = (begin, now())
        soak.recorder.stop()
        soak.installed.uninstall()
        return Outcome(records=loop.records, span=span,
                       duplicates=loop.duplicates,
                       outstanding=sum(node.outstanding_count()
                                       for node in deployment.nodes))

    def counters(self, soak: Soak):
        captchas = 0
        if soak.installed is not None:
            captchas = soak.installed.counts.get("ratelimit-storm", 0)
        return _counters(soak.deployment.simulator, soak.deployment.network,
                         soak.deployment.engine_nodes, soak.deployment.nodes,
                         captchas=captchas,
                         windows=len(soak.recorder.windows))

    def corpus(self, soak: Soak):
        return soak.deployment.engine_node.engine.corpus

    def teardown(self, soak: Soak) -> None:
        from repro import obs

        obs.disable(reset=True)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        SearchWorkload(), FaninWorkload(), EngineMissWorkload(),
        SoakWorkload())}
