"""The engine cache must be invisible on the wire.

Satellite of the engine scale-out PR: a Hypothesis property drives the
replica tier twice under the same seed — once with the result caches
on (a hit-heavy repetitive workload genuinely serves from memory) and
once with them off (every serve is a miss) — and asserts the wiretap's
``(kind, size, timing-bucket)`` view is *identical* in both worlds.
Also covers :func:`repro.obs.audit.wire_fingerprint` and the
deployment-level :func:`audit_cache_indistinguishability` check that
the leak gate in ``test_audit.py`` runs.
"""

import random
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import LogNormalLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode
from repro.net.trace import MessageTrace
from repro.obs.audit import audit_cache_indistinguishability, wire_fingerprint
from repro.searchengine.cache import ResultCache
from repro.searchengine.corpus import build_corpus
from repro.searchengine.node import SearchEngineNode
from repro.searchengine.sharding import build_shard_engines, replica_addresses

pytestmark = pytest.mark.obs

QUERY_POOL = [
    "symptoms cancer treatment",
    "cheap flights travel",
    "football league scores",
    "laptop review budget",
]

_CORPUS = build_corpus(docs_per_topic=8, seed=2)
_ENGINES = build_shard_engines(_CORPUS, 2)
_ADDRESSES = replica_addresses(2)


def run_tier(with_cache, workload, seed):
    """Drive the 2-replica tier through *workload* (query indices, with
    repeats) and return the wiretap fingerprint of every transmission.

    Identical *seed* means identical rng draws for TLS handshakes,
    sealing nonces and processing latency — the cache is the only
    difference between the two worlds.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, rng,
                  default_latency=LogNormalLatency(median=0.01, sigma=0.3))
    nodes = [
        SearchEngineNode(
            net, _ENGINES[index], rng, address=_ADDRESSES[index],
            processing=LogNormalLatency(median=0.05, sigma=0.2),
            cluster=_ADDRESSES,
            response_cache=ResultCache(32) if with_cache else None,
            partial_cache=ResultCache(32) if with_cache else None,
            batch_window=0.1)
        for index in range(2)
    ]
    for first in nodes:
        for second in nodes:
            if first is not second:
                first.tls.establish(second.address,
                                    on_ready=lambda channel: None)
    sim.run(until=2.0)
    sender = NetNode(net, "sender00")
    answered = []
    with MessageTrace(net) as tap:
        for step, query_index in enumerate(workload):
            sim.post(step * 0.5, lambda q=QUERY_POOL[query_index]:
                     sender.request("engine", {"query": q, "meta": {}},
                                    answered.append, timeout=60.0,
                                    kind="search"))
        sim.run()
    assert len(answered) == len(workload)
    hits = sum(node.response_cache.hits for node in nodes) if with_cache \
        else 0
    return wire_fingerprint(tap), hits


class TestTapDistributionProperty:
    @settings(max_examples=8, deadline=None)
    @given(workload=st.lists(st.integers(min_value=0,
                                         max_value=len(QUERY_POOL) - 1),
                             min_size=2, max_size=6),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_hit_heavy_and_miss_only_worlds_agree(self, workload, seed):
        cached, _ = run_tier(True, workload, seed)
        uncached, _ = run_tier(False, workload, seed)
        # Distribution view (what the satellite pins): every
        # (kind, size, timing-bucket) cell has the same mass.
        bucket = lambda fp: Counter(
            (kind, size, round(time, 3))
            for kind, _, _, size, time in fp)
        assert bucket(cached) == bucket(uncached)
        # And in fact the full ordered capture agrees transmission for
        # transmission — the stronger invariant the audit enforces.
        assert cached == uncached

    def test_the_cache_genuinely_hits(self):
        # Guard against vacuity: a repetitive workload must actually
        # serve from memory in the cached world.
        workload = [0, 1, 0, 1, 0, 1]
        cached, hits = run_tier(True, workload, seed=7)
        uncached, _ = run_tier(False, workload, seed=7)
        assert hits > 0
        assert cached == uncached


class TestWireFingerprint:
    def test_projects_adversary_visible_fields_in_order(self):
        records = [
            type("R", (), dict(kind="search", src="a", dst="b",
                               size_bytes=128, time=1.23456789012))(),
            type("R", (), dict(kind="shard", src="b", dst="c",
                               size_bytes=512, time=2.0))(),
        ]
        assert wire_fingerprint(records) == [
            ("search", "a", "b", 128, 1.23456789),
            ("shard", "b", "c", 512, 2.0),
        ]


class TestDeploymentAudit:
    def test_audit_passes_on_a_seeded_replica_deployment(self):
        from repro.core.client import CyclosaNetwork
        from repro.core.config import CyclosaConfig

        def make_deployment(with_cache):
            return CyclosaNetwork.create(
                num_nodes=4, seed=11,
                config=CyclosaConfig(
                    engine_replicas=2,
                    engine_cache_size=64 if with_cache else None))

        queries = ["symptoms cancer", "symptoms cancer", "cheap flights",
                   "symptoms cancer"]
        report = audit_cache_indistinguishability(
            make_deployment, queries, drain_seconds=40.0)
        assert report.ok, report.violations
        assert report.messages_scanned > 0
