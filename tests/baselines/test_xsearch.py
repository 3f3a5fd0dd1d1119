"""Tests for the X-Search baseline (analytic + network)."""

import random

import pytest

from repro.baselines.xsearch import (
    XSearch,
    XSearchClientNode,
    XSearchEnclave,
    XSearchProxyNode,
)
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.searchengine.corpus import build_corpus
from repro.searchengine.engine import SearchEngine
from repro.searchengine.node import SearchEngineNode
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy


class TestXSearchAnalytic:
    def test_identity_is_proxy(self):
        system = XSearch(k=3, seed=1)
        system.prime(["past one", "past two", "past three", "past four"])
        obs = system.protect("alice", "flu symptoms")[0]
        assert obs.identity == XSearch.PROXY_IDENTITY

    def test_fakes_are_verbatim_past_queries(self):
        system = XSearch(k=2, seed=1)
        past = ["alpha beta", "gamma delta", "epsilon zeta"]
        system.prime(past)
        obs = system.protect("alice", "current query")[0]
        for index, subquery in enumerate(obs.subqueries()):
            if index != obs.real_index:
                assert subquery in past

    def test_query_enters_table_for_future_fakes(self):
        system = XSearch(k=1, seed=1)
        system.prime(["seed query"])
        system.protect("alice", "new query")
        assert "new query" in system.table

    def test_group_size(self):
        system = XSearch(k=3, seed=1)
        system.prime([f"q{i}" for i in range(10)])
        obs = system.protect("alice", "real")[0]
        assert len(obs.subqueries()) == 4


@pytest.fixture
def xsearch_stack():
    rng = random.Random(6)
    sim = Simulator()
    net = Network(sim, rng, default_latency=ConstantLatency(0.01))
    engine_node = SearchEngineNode(
        net, SearchEngine(build_corpus(docs_per_topic=10, seed=1)), rng,
        processing=ConstantLatency(0.05))
    ias = IntelAttestationService()
    policy = MeasurementPolicy()
    policy.allow_class(XSearchEnclave)
    proxy = XSearchProxyNode(net, rng, engine_node.address, ias, policy, k=2)
    proxy.prime([f"past query number {i}" for i in range(20)])
    client = XSearchClientNode(net, "client", rng, proxy, ias, policy)
    connected = []
    client.connect(lambda: connected.append(True))
    sim.run(until=10)
    assert connected
    return sim, net, engine_node, proxy, client


class TestXSearchNetwork:
    def test_search_roundtrip(self, xsearch_stack):
        sim, net, engine_node, proxy, client = xsearch_stack
        results = []
        client.search("symptoms cancer", results.append)
        sim.run()
        assert results and results[0]["status"] == "ok"

    def test_engine_sees_proxy_identity_and_or_group(self, xsearch_stack):
        sim, net, engine_node, proxy, client = xsearch_stack
        client.search("identity probe", lambda r: None)
        sim.run()
        entry = engine_node.tap.entries[0]
        assert entry.identity == proxy.address
        assert " OR " in entry.text
        assert "identity probe" in entry.text

    def test_proxy_filters_response(self, xsearch_stack):
        sim, net, engine_node, proxy, client = xsearch_stack
        results = []
        client.search("symptoms cancer treatment", results.append)
        sim.run()
        # Every returned title/snippet relates to the original query.
        from repro.text.tokenize import tokenize

        terms = set(tokenize("symptoms cancer treatment"))
        for hit in results[0]["hits"]:
            visible = set(hit.get("title", [])) | set(hit.get("snippet", []))
            assert terms & visible

    def test_proxy_counts_queries(self, xsearch_stack):
        sim, net, engine_node, proxy, client = xsearch_stack
        client.search("one", lambda r: None)
        client.search("two", lambda r: None)
        sim.run()
        assert proxy.queries_proxied == 2

    def test_garbage_request_dropped(self, xsearch_stack):
        sim, net, engine_node, proxy, client = xsearch_stack
        outcomes = []
        client.request(proxy.address, b"not-a-sealed-record",
                       outcomes.append, timeout=2.0,
                       on_timeout=lambda: outcomes.append("timeout"),
                       kind="xsearch")
        sim.run()
        assert outcomes == ["timeout"]

    @pytest.mark.parametrize("record", [
        "a string",
        {"meta": {}},
        {"query": 5},
        {"query": "q", "meta": "not a dict"},
    ], ids=["string", "no-query", "int-query", "str-meta"])
    def test_malformed_client_record_dropped(self, xsearch_stack, record):
        sim, net, engine_node, proxy, client = xsearch_stack
        channel = client.tls.channel(proxy.address)
        outcomes = []
        client.request(proxy.address, channel.seal(record, rng=client.rng),
                       outcomes.append, timeout=2.0,
                       on_timeout=lambda: outcomes.append("timeout"),
                       kind="xsearch")
        sim.run()
        assert outcomes == ["timeout"]
        assert proxy.queries_proxied == 0
        assert engine_node.tap.entries == []

    def test_client_drops_a_reply_its_enclave_never_sealed(self,
                                                            xsearch_stack):
        # The proxy's host is untrusted: it can answer with anything.
        sim, net, engine_node, proxy, client = xsearch_stack
        proxy.handle_request = lambda ctx: ctx.respond(b"forged" * 8)
        results = []
        client.search("forged reply probe", results.append)
        sim.run()
        assert results == []
