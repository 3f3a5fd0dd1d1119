"""Tests for the search-engine network node."""

import random

import pytest

from repro.core.client import CyclosaNetwork
from repro.crypto.keys import IdentityKeyPair
from repro.faults.inject import install
from repro.faults.plan import Corrupt, Duplicate, FaultPlan, MessageMatch
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode
from repro.net.tls import SecureChannelManager, SignatureAuthenticator
from repro.searchengine.corpus import build_corpus
from repro.searchengine.engine import SearchEngine
from repro.searchengine.node import SearchEngineNode
from repro.searchengine.ratelimit import RateLimiter


class PlainClient(NetNode):
    pass


class TlsClient(NetNode):
    def __init__(self, network, address, rng):
        super().__init__(network, address)
        identity = IdentityKeyPair.generate(bits=512, rng=rng)
        self.tls = SecureChannelManager(
            self, SignatureAuthenticator(identity), rng)


@pytest.fixture
def setup():
    rng = random.Random(4)
    sim = Simulator()
    net = Network(sim, rng, default_latency=ConstantLatency(0.01))
    engine = SearchEngine(build_corpus(docs_per_topic=10, seed=1))
    node = SearchEngineNode(net, engine, rng,
                            processing=ConstantLatency(0.1))
    return rng, sim, net, node


class TestPlainSearch:
    def test_search_and_log(self, setup):
        rng, sim, net, engine_node = setup
        client = PlainClient(net, "client")
        replies = []
        client.request(
            "engine",
            {"query": "symptoms cancer", "meta": {"true_user": "u1"}},
            replies.append, kind="search")
        sim.run()
        assert replies and replies[0]["status"] == "ok"
        assert replies[0]["hits"]
        assert "title" in replies[0]["hits"][0]
        entry = engine_node.tap.entries[0]
        assert entry.identity == "client"
        assert entry.true_user == "u1"

    def test_processing_latency_applied(self, setup):
        rng, sim, net, engine_node = setup
        client = PlainClient(net, "client")
        replies = []
        client.request("engine", {"query": "symptoms"}, replies.append,
                       kind="search")
        sim.run()
        # processing + both link hops (allow float rounding)
        assert sim.now == pytest.approx(0.12)

    def test_rate_limited_search(self):
        rng = random.Random(5)
        sim = Simulator()
        net = Network(sim, rng, default_latency=ConstantLatency(0.001))
        engine = SearchEngine(build_corpus(docs_per_topic=5, seed=1))
        node = SearchEngineNode(
            net, engine, rng, processing=ConstantLatency(0.001),
            rate_limiter=RateLimiter(max_per_window=3, window_seconds=3600))
        client = PlainClient(net, "client")
        replies = []
        for _ in range(5):
            client.request("engine", {"query": "symptoms"}, replies.append,
                           kind="search")
        sim.run()
        statuses = [r["status"] for r in replies]
        assert statuses.count("ok") == 3
        assert statuses.count("captcha") == 2
        # Captcha'd requests are not logged (the engine never served them).
        assert len(node.tap) == 3


class TestTlsSearch:
    def test_sealed_roundtrip(self, setup):
        rng, sim, net, engine_node = setup
        client = TlsClient(net, "client", rng)
        client.tls.establish("engine", on_ready=lambda ch: None)
        sim.run()
        channel = client.tls.channel("engine")
        sealed = channel.seal(
            {"query": "symptoms cancer", "meta": {"true_user": "u9"}},
            rng=rng)
        replies = []
        client.request("engine", sealed, replies.append, kind="searchtls")
        sim.run()
        assert replies
        response = channel.open(bytes(replies[0]))
        assert response["status"] == "ok" and response["hits"]
        assert engine_node.tap.entries[0].true_user == "u9"

    def test_sealed_without_channel_dropped(self, setup):
        rng, sim, net, engine_node = setup
        client = PlainClient(net, "client")
        replies = []
        client.request("engine", b"garbage-bytes", replies.append,
                       kind="searchtls", timeout=2.0,
                       on_timeout=lambda: replies.append("timeout"))
        sim.run()
        assert replies == ["timeout"]
        assert len(engine_node.tap) == 0


SEALED_SEARCHES = MessageMatch(kind="searchtls.req")


class TestUnusableSealedRecords:
    """A sealed record the engine cannot serve is dropped, as the shard
    handler and the relays drop theirs; the run carries on."""

    @pytest.mark.parametrize("fault, status", [
        # The replayed copy fails the channel's replay check; the
        # first copy is served.
        (Duplicate(match=SEALED_SEARCHES, probability=1.0), "ok"),
        # Every real leg fails authentication until retries run out.
        (Corrupt(match=SEALED_SEARCHES, probability=1.0), "relay-failure"),
    ])
    def test_record_that_fails_to_open(self, fault, status):
        deployment = CyclosaNetwork.create(num_nodes=8, seed=3)
        install(FaultPlan(seed=1, faults=(fault,)), deployment)
        results = []
        deployment.nodes[0].search("cheap flights paris", k_override=1,
                                   on_result=results.append)
        deployment.run(600.0)
        assert [result["status"] for result in results] == [status]

    @pytest.mark.parametrize("record", [
        {"query": 5, "meta": {}},
        {"query": None},
        {"meta": {}},
        {"query": "symptoms", "meta": ["true_user"]},
        ["symptoms"],
    ])
    def test_malformed_record(self, setup, record):
        rng, sim, net, engine_node = setup
        client = TlsClient(net, "client", rng)
        client.tls.establish("engine", on_ready=lambda ch: None)
        sim.run()
        replies = []
        client.request("engine", client.tls.channel("engine").seal(
            record, rng=rng), replies.append, kind="searchtls",
            timeout=2.0, on_timeout=lambda: replies.append("timeout"))
        sim.run()
        assert replies == ["timeout"]
        assert len(engine_node.tap) == 0

    @staticmethod
    def _send_plaintext(setup, plaintext):
        """Seal *plaintext* as it is on a fresh client's channel, send
        it as a search and return the replies."""
        rng, sim, net, engine_node = setup
        client = TlsClient(net, "client", rng)
        client.tls.establish("engine", on_ready=lambda ch: None)
        sim.run()
        replies = []
        client.request("engine", client.tls.channel("engine").seal_bytes(
            plaintext, rng=rng), replies.append, kind="searchtls",
            timeout=2.0, on_timeout=lambda: replies.append("timeout"))
        sim.run()
        return replies

    def test_record_that_does_not_decode(self, setup):
        """An authenticated record whose plaintext is not an encoding
        is dropped like a forged one."""
        assert self._send_plaintext(setup, b"not json") == ["timeout"]
        assert len(setup[3].tap) == 0

    def test_record_nested_too_deep_to_decode(self, setup):
        """JSON nested past the recursion limit is dropped too, where
        its ``RecursionError`` used to leave ``Simulator.run``."""
        nested = b"[" * 100000 + b"]" * 100000
        assert self._send_plaintext(setup, nested) == ["timeout"]
        assert len(setup[3].tap) == 0

    def test_unsealed_payload(self, setup):
        rng, sim, net, engine_node = setup
        client = TlsClient(net, "client", rng)
        client.tls.establish("engine", on_ready=lambda ch: None)
        sim.run()
        replies = []
        client.request("engine", {"query": "symptoms"}, replies.append,
                       kind="searchtls", timeout=2.0,
                       on_timeout=lambda: replies.append("timeout"))
        sim.run()
        assert replies == ["timeout"]
        assert len(engine_node.tap) == 0


class TestMalformedPlainSearch:
    """A plaintext search request is checked as a sealed record is:
    anything but a dict with a str ``query`` and a dict ``meta`` (when
    present) is dropped and the run carries on."""

    @pytest.mark.parametrize("payload", [
        "cheap flights",
        {"meta": {}},
        {"query": 5, "meta": {}},
        {"query": "cheap flights", "meta": [1]},
    ])
    def test_malformed_request_dropped(self, setup, payload):
        rng, sim, net, engine_node = setup
        client = PlainClient(net, "client")
        replies = []
        client.request("engine", payload, replies.append, kind="search",
                       timeout=2.0, on_timeout=lambda: replies.append("timeout"))
        sim.run()
        assert replies == ["timeout"]
        assert len(engine_node.tap) == 0

    def test_well_formed_request_served(self, setup):
        rng, sim, net, engine_node = setup
        client = PlainClient(net, "client")
        replies = []
        client.request("engine", {"query": "cheap flights", "meta": {}},
                       replies.append, kind="search", timeout=2.0,
                       on_timeout=lambda: replies.append("timeout"))
        sim.run()
        assert [reply["status"] for reply in replies] == ["ok"]
        assert len(engine_node.tap) == 1
