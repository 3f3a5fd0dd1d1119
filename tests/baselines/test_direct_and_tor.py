"""Tests for the Direct and TOR baselines."""

import random

import pytest

from repro.baselines.direct import DirectClientNode, DirectSearch
from repro.baselines.tor import (
    TorClientNode,
    TorSearch,
    build_tor_network,
)
from repro.crypto.aead import AeadKey, seal as aead_seal
from repro.net import MessageTrace, wire
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.searchengine.corpus import build_corpus
from repro.searchengine.engine import SearchEngine
from repro.searchengine.node import SearchEngineNode


class TestDirectAnalytic:
    def test_identity_is_user(self):
        system = DirectSearch()
        observations = system.protect("alice", "flu symptoms")
        assert len(observations) == 1
        assert observations[0].identity == "alice"
        assert not observations[0].is_fake

    def test_results_are_engine_results(self, small_split):
        engine = SearchEngine(build_corpus(docs_per_topic=10, seed=1))
        system = DirectSearch()
        observations = system.protect("alice", "symptoms cancer")
        returned = system.results_for(engine, "symptoms cancer", observations)
        reference = [h.url for h in engine.search("symptoms cancer")]
        assert returned == reference


class TestDirectNetwork:
    @pytest.fixture
    def stack(self):
        rng = random.Random(14)
        sim = Simulator()
        net = Network(sim, rng, default_latency=ConstantLatency(0.01))
        engine_node = SearchEngineNode(
            net, SearchEngine(build_corpus(docs_per_topic=8, seed=1)), rng,
            processing=ConstantLatency(0.02))
        client = DirectClientNode(net, "client", engine_node.address)
        return sim, engine_node, client

    def test_search_returns_the_engine_page(self, stack):
        sim, engine_node, client = stack
        results = []
        client.search("symptoms cancer", results.append)
        sim.run()
        assert len(results) == 1
        assert results[0]["status"] == "ok"
        assert results[0]["k"] == 0
        direct = engine_node.engine.search("symptoms cancer")
        assert direct
        assert [h["url"] for h in results[0]["hits"]] == \
            [h.url for h in direct]

    def test_engine_logs_the_client_address(self, stack):
        sim, engine_node, client = stack
        client.search("identity leak probe", lambda r: None)
        sim.run()
        [entry] = engine_node.tap.entries
        assert entry.text == "identity leak probe"
        assert entry.identity == client.address  # no unlinkability


class TestTorAnalytic:
    def test_identity_is_exit_not_user(self):
        system = TorSearch(num_exit_nodes=5, seed=1)
        observations = system.protect("alice", "flu symptoms")
        assert observations[0].identity.startswith("tor-exit-")
        assert observations[0].true_user == "alice"

    def test_exits_rotate(self):
        system = TorSearch(num_exit_nodes=20, seed=1)
        exits = {system.protect("alice", "q")[0].identity
                 for _ in range(30)}
        assert len(exits) > 3

    def test_no_fakes(self):
        system = TorSearch(seed=1)
        observations = system.protect("alice", "q")
        assert all(not o.is_fake for o in observations)

    def test_invalid_exit_count(self):
        with pytest.raises(ValueError):
            TorSearch(num_exit_nodes=0)


class TestTorNetwork:
    @pytest.fixture
    def stack(self):
        rng = random.Random(3)
        sim = Simulator()
        net = Network(sim, rng, default_latency=ConstantLatency(0.02))
        engine_node = SearchEngineNode(
            net, SearchEngine(build_corpus(docs_per_topic=10, seed=1)), rng,
            processing=ConstantLatency(0.05))
        relays = build_tor_network(net, rng, engine_node.address,
                                   num_relays=5,
                                   relay_latency=ConstantLatency(0.1))
        client = TorClientNode(net, "client", rng, relays,
                               engine_node.address)
        return sim, engine_node, relays, client

    def test_onion_roundtrip_returns_results(self, stack):
        sim, engine_node, relays, client = stack
        results = []
        client.search("symptoms cancer treatment", results.append)
        sim.run()
        assert results and results[0]["status"] == "ok"
        assert results[0]["hits"]

    def test_engine_sees_exit_identity(self, stack):
        sim, engine_node, relays, client = stack
        client.search("anonymity probe", lambda r: None)
        sim.run()
        entry = engine_node.tap.entries[0]
        assert entry.identity.startswith("tor-relay-")
        assert entry.identity != client.address

    def test_circuit_latency_dominates(self, stack):
        sim, engine_node, relays, client = stack
        results = []
        client.search("latency probe", results.append)
        sim.run()
        # 3 relay hops each way at 0.1 s + engine processing.
        assert results[0]["latency"] > 0.5

    def test_middle_relays_see_only_onions(self, stack):
        # The relay handler decrypts one layer; a relay given a foreign
        # onion (not encrypted to it) must drop it silently.
        sim, engine_node, relays, client = stack
        layer = wire.encode({"type": "exit", "engine": engine_node.address,
                             "query": "misrouted",
                             "backward_key": bytes(32)})
        onion = relays[1].identity.public.encrypt(layer, rng=client.rng)

        def deliver(relay):
            outcomes = []
            with MessageTrace(client.network, src=relay.address) as sent:
                client.request(relay.address, onion, outcomes.append,
                               timeout=5.0,
                               on_timeout=lambda: outcomes.append("timeout"),
                               kind="onion", size_bytes=len(onion))
                sim.run()
            return outcomes, list(sent)

        outcomes, forwarded = deliver(relays[0])
        assert outcomes == ["timeout"]
        assert forwarded == []
        assert engine_node.tap.entries == []
        # The same onion at the relay it was built for reaches the engine.
        outcomes, forwarded = deliver(relays[1])
        assert len(outcomes) == 1 and outcomes[0] != "timeout"
        assert forwarded
        assert [e.text for e in engine_node.tap.entries] == ["misrouted"]

    def test_invalid_circuit_params(self, stack):
        sim, engine_node, relays, client = stack
        with pytest.raises(ValueError):
            TorClientNode(client.network, "c2", random.Random(0), relays,
                          "engine", circuit_length=0)
        with pytest.raises(ValueError):
            TorClientNode(client.network, "c3", random.Random(0), relays[:1],
                          "engine", circuit_length=3)

    @pytest.mark.parametrize("layer", [
        b"not json",
        b"\xff\xfe",
        b'"a string"',
        b'{"__bytes__": 5}',
        wire.encode({"backward_key": bytes(32)}),
        wire.encode({"type": "exit", "engine": "engine", "query": "q"}),
        wire.encode({"type": "exit", "engine": "engine", "query": "q",
                     "backward_key": b"short"}),
        wire.encode({"type": "exit", "engine": "engine", "query": "q",
                     "backward_key": "k" * 32}),
        wire.encode({"type": "exit", "query": "q",
                     "backward_key": bytes(32)}),
        wire.encode({"type": "forward", "onion": b"inner",
                     "backward_key": bytes(32)}),
    ], ids=["not-json", "not-utf8", "json-string", "int-bytes-tag",
            "no-type", "no-backward-key", "short-backward-key",
            "str-backward-key", "exit-without-engine",
            "forward-without-next"])
    def test_relay_drops_a_malformed_layer(self, stack, layer):
        sim, engine_node, relays, client = stack
        onion = relays[0].identity.public.encrypt(layer, rng=client.rng)
        outcomes = []
        client.request(relays[0].address, onion, outcomes.append,
                       timeout=5.0,
                       on_timeout=lambda: outcomes.append("timeout"),
                       kind="onion", size_bytes=len(onion))
        sim.run()
        assert outcomes == ["timeout"]
        assert engine_node.tap.entries == []

    @pytest.mark.parametrize("reply",
                             ["garbage", "not-bytes", "sealed-string"])
    def test_client_drops_a_reply_it_cannot_open(self, stack, reply):
        sim, engine_node, relays, client = stack
        guard = relays[0]
        client.circuit_length = 1
        client.relays = [guard]

        def forge(ctx):
            if reply == "garbage":
                ctx.respond(b"forged reply")
            elif reply == "not-bytes":
                ctx.respond({"status": "ok", "hits": []})
            else:
                layer = wire.decode(guard.identity.rsa.decrypt(
                    bytes(ctx.request.payload)))
                ctx.respond(aead_seal(AeadKey(layer["backward_key"]),
                                      wire.encode("a string"),
                                      rng=random.Random(0)))

        guard.handle_request = forge
        results = []
        client.search("forged reply probe", results.append)
        sim.run()
        assert results == []
