"""Wire-level tests of the sharded engine replica tier.

The in-process byte-identity lives in ``test_sharding.py``; here the
same computation is distributed across :class:`SearchEngineNode`
replicas over the simulated transport — coordinator scatter-gather,
sealed sibling channels, batching, caching and the degrade path when a
sibling goes silent.
"""

import itertools
import random
from unittest.mock import patch

import pytest

from repro.crypto.keys import IdentityKeyPair
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.tls import SecureChannelManager, SignatureAuthenticator
from repro.net.transport import Network, NetNode
from repro.perf import workload_queries
from repro.searchengine.cache import ResultCache
from repro.searchengine.corpus import build_corpus
from repro.searchengine.engine import SearchEngine, SearchHit, query_plan
from repro.searchengine.node import SearchEngineNode
from repro.searchengine.sharding import build_shard_engines, replica_addresses

QUERIES = [
    "symptoms cancer treatment",
    "cheap flights travel hotel",
    "symptoms cancer OR football league",
]

#: The wire-page check's queries: the tier's own, a three-way OR and a
#: seeded workload mix.
WIRE_QUERIES = (QUERIES + ["vaccine OR mortgage OR laptop"]
                + workload_queries(20, seed=0))


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(docs_per_topic=12, seed=1)


def build_tier(corpus, num_replicas, batch_window=0.0, cache_size=None,
               seed=3):
    """A ready-to-serve replica tier on a fresh simulator: channels
    between all replica pairs are established during warm-up."""
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, rng, default_latency=ConstantLatency(0.005))
    addresses = replica_addresses(num_replicas)
    if num_replicas == 1:
        engines = [SearchEngine(corpus)]
    else:
        engines = build_shard_engines(corpus, num_replicas)
    nodes = [
        SearchEngineNode(
            net, engines[index], rng, address=addresses[index],
            processing=ConstantLatency(0.05),
            cluster=addresses if num_replicas > 1 else None,
            response_cache=(ResultCache(cache_size) if cache_size else None),
            partial_cache=(ResultCache(cache_size)
                           if cache_size and num_replicas > 1 else None),
            batch_window=batch_window,
            shard_timeout=1.0)
        for index in range(num_replicas)
    ]
    for first in nodes:
        for second in nodes:
            if first is not second:
                first.tls.establish(second.address,
                                    on_ready=lambda channel: None)
    sim.run(until=2.0)
    return sim, net, nodes


#: Client address numbers. Each ``fire`` registers a fresh client, so
#: two calls on one network must never pick the same address.
CLIENT_NUMBERS = itertools.count()


def fire(sim, net, target, queries, start=0.0, spacing=0.0):
    """Send plain ``search`` requests and collect the result pages in
    send order."""
    client = NetNode(net, f"client-{next(CLIENT_NUMBERS)}")
    replies = {}

    def send(index, query):
        client.request(target, {"query": query, "meta": {}},
                       lambda response, index=index:
                       replies.__setitem__(index, response),
                       timeout=60.0, kind="search")

    for index, query in enumerate(queries):
        sim.post(start + index * spacing, lambda i=index, q=query: send(i, q))
    sim.run()
    assert len(replies) == len(queries), "a search never completed"
    return [replies[index] for index in range(len(queries))]


@pytest.fixture(scope="module")
def reference_pages(corpus):
    sim, net, _ = build_tier(corpus, 1)
    return fire(sim, net, "engine", QUERIES)


class TestScatterGather:
    @pytest.mark.parametrize("num_replicas", [2, 3])
    def test_pages_identical_to_single_node(self, corpus, reference_pages,
                                            num_replicas):
        sim, net, _ = build_tier(corpus, num_replicas)
        pages = fire(sim, net, "engine", QUERIES)
        assert [p["hits"] for p in pages] == \
            [p["hits"] for p in reference_pages]
        assert all(p["status"] == "ok" for p in pages)

    def test_every_replica_coordinates_identically(self, corpus,
                                                   reference_pages):
        for address in replica_addresses(3):
            sim, net, _ = build_tier(corpus, 3)
            pages = fire(sim, net, address, QUERIES)
            assert [p["hits"] for p in pages] == \
                [p["hits"] for p in reference_pages]

    @pytest.mark.parametrize("num_replicas", [1, 2, 3])
    def test_wire_hits_match_the_engine(self, corpus, num_replicas):
        """Every wire hit against the unsharded engine's page and the
        document's title. The coordinator builds the page at every
        replica count, so comparing replica counts with each other
        would pass a fault they all share."""
        engine = SearchEngine(corpus)
        sim, net, _ = build_tier(corpus, num_replicas)
        pages = fire(sim, net, "engine", WIRE_QUERIES)
        sibling_hits = 0
        for query, page in zip(WIRE_QUERIES, pages):
            assert page["status"] == "ok"
            assert [(hit["doc_id"], hit["url"], hit["score"].hex(),
                     hit["title"]) for hit in page["hits"]] == \
                [(hit.doc_id, hit.url, hit.score.hex(),
                  list(engine.document(hit.doc_id).title_terms))
                 for hit in engine.search(query)], query
            sibling_hits += sum(hit["doc_id"] % num_replicas != 0
                                for hit in page["hits"])
        # Replica "engine" holds shard 0; the rest came from siblings.
        assert (sibling_hits > 0) == (num_replicas > 1)

    def test_sibling_exchange_is_sealed(self, corpus):
        sim, net, nodes = build_tier(corpus, 2)
        seen = []
        original = nodes[1].handle_request

        def spy(ctx):
            if ctx.request.kind == "shard.req":
                seen.append(ctx.request.payload)
            original(ctx)

        nodes[1].handle_request = spy
        fire(sim, net, "engine", QUERIES[:1])
        assert seen, "coordinator never consulted its sibling"
        assert all(isinstance(payload, bytes) for payload in seen)


class TestBatching:
    def test_batched_pages_match_unbatched(self, corpus, reference_pages):
        sim, net, _ = build_tier(corpus, 3, batch_window=0.3)
        # All queries land inside one window (spacing 0.01 < 0.3).
        pages = fire(sim, net, "engine", QUERIES, spacing=0.01)
        assert [p["hits"] for p in pages] == \
            [p["hits"] for p in reference_pages]

    def test_duplicates_in_a_batch_are_ranked_once(self, corpus):
        sim, net, nodes = build_tier(corpus, 1, batch_window=0.3)
        coordinator = nodes[0]
        calls = []
        original = coordinator._result_page

        def counting(plan, partials):
            calls.append(plan)
            return original(plan, partials)

        coordinator._result_page = counting
        query = QUERIES[0]
        pages = fire(sim, net, "engine", [query] * 4, spacing=0.01)
        assert calls == [query_plan(query, "native")]
        assert all(p["hits"] == pages[0]["hits"] for p in pages)

    def test_batch_of_one_still_answers(self, corpus, reference_pages):
        sim, net, _ = build_tier(corpus, 2, batch_window=0.2)
        pages = fire(sim, net, "engine", QUERIES[:1])
        assert pages[0]["hits"] == reference_pages[0]["hits"]


class TestCaching:
    def test_repeat_query_hits_the_cache_with_same_page(self, corpus):
        sim, net, nodes = build_tier(corpus, 2, cache_size=64)
        query = QUERIES[0]
        pages = fire(sim, net, "engine", [query] * 3, spacing=2.0)
        assert nodes[0].response_cache.hits >= 2
        assert all(p["hits"] == pages[0]["hits"] for p in pages)

    def test_serving_builds_no_search_hit(self, corpus):
        """The guard: replicas rank to keys and build each wire hit once
        from its key, so serving builds no :class:`SearchHit`. A snippet
        is computed only for a ``SearchHit`` (``SearchEngine._hit``),
        so none is computed either."""
        sim, net, nodes = build_tier(corpus, 3, cache_size=64)
        built = []
        init = SearchHit.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("doc_id"))
            init(self, *args, **kwargs)

        with patch.object(SearchHit, "__init__", spy):
            pages = fire(sim, net, "engine", QUERIES + QUERIES, spacing=1.0)
            fire(sim, net, "engine1", QUERIES, start=20.0)
        assert all(page["hits"] for page in pages)
        assert nodes[0].response_cache.hits == len(QUERIES)
        assert nodes[1].partial_cache.hits > 0
        assert built == []

    def test_partial_cache_spares_repeat_shard_rankings(self, corpus):
        sim, net, nodes = build_tier(corpus, 2, cache_size=64)
        # Distinct coordinators, same query: replica "engine1" serves a
        # shard request for engine's round, then coordinates its own —
        # both rounds share the partial-cache entry.
        query = QUERIES[0]
        fire(sim, net, "engine", [query], start=0.0)
        fire(sim, net, "engine1", [query], start=10.0)
        assert nodes[1].partial_cache.hits >= 1


class TestDegrade:
    def test_silent_sibling_degrades_instead_of_hanging(self, corpus,
                                                        reference_pages):
        sim, net, nodes = build_tier(corpus, 3)
        # engine2 goes silent *after* the TLS warm-up: shard requests
        # reach it but are dropped on the floor.
        nodes[2].handle_request = lambda ctx: None
        pages = fire(sim, net, "engine", QUERIES)
        assert all(p["status"] == "ok" for p in pages)
        assert all(p["hits"] for p in pages)
        # The degraded pages only cover the two surviving shards, so at
        # least one query must diverge from the full-corpus reference.
        assert [p["hits"] for p in pages] != \
            [p["hits"] for p in reference_pages]

    def test_degraded_hits_come_from_surviving_shards(self, corpus):
        sim, net, nodes = build_tier(corpus, 3)
        nodes[2].handle_request = lambda ctx: None
        pages = fire(sim, net, "engine", QUERIES)
        for page in pages:
            assert all(hit["doc_id"] % 3 != 2 for hit in page["hits"])


PLAN = query_plan(QUERIES[0], "native")


class TestMalformedShardRequests:
    """A shard request is outside input: whatever a sibling seals, the
    replica answers a well-formed one and drops anything else."""

    @pytest.fixture
    def sibling(self, corpus):
        """A cached 2-replica tier and a peer with an established
        channel to ``engine1``, sending shard requests by hand."""
        sim, net, nodes = build_tier(corpus, 2, cache_size=64)
        rng = random.Random(9)
        peer = NetNode(net, "rogue-sibling")
        peer.tls = SecureChannelManager(peer, SignatureAuthenticator(
            IdentityKeyPair.generate(bits=512, rng=rng)), rng)
        peer.tls.establish("engine1", on_ready=lambda channel: None)
        sim.run()

        def send(record):
            replies = []
            channel = peer.tls.channel("engine1")
            peer.request("engine1", channel.seal(record, rng=rng),
                         lambda payload: replies.append(channel.open(payload)),
                         timeout=5.0, kind="shard",
                         on_timeout=lambda: replies.append("timeout"))
            sim.run()
            return replies

        return send

    def test_well_formed_request_is_answered(self, sibling):
        (reply,) = sibling({"q": [PLAN], "k": 3})
        assert len(reply["p"][0][0]) == 3

    @pytest.mark.parametrize("record", [
        {"q": [PLAN], "k": "10"},
        {"q": [PLAN]},
        {"q": 5, "k": 10},
        {"q": [[PLAN[0] + [["cancer"]]]], "k": 10},
        {"q": [PLAN], "k": -1},
    ], ids=["str-k", "missing-k", "int-q", "nested-term", "negative-k"])
    def test_malformed_request_is_dropped(self, sibling, record):
        assert sibling(record) == ["timeout"]


class TestMalformedShardReplies:
    """A sibling's reply is outside input too: the coordinator drops a
    malformed one and pages from the surviving shards."""

    @pytest.mark.parametrize("reply", [
        {"p": [[[{"d": 1}]]]},
        {"p": "abc"},
        {"p": [[[5]]]},
        {"p": [[[{"d": 1, "u": "doc1", "s": 99.0, "t": 7}]]]},
    ], ids=["hit-without-score", "str-partials", "int-hit", "int-title"])
    def test_malformed_reply_degrades_to_the_surviving_shard(self, corpus,
                                                             reply):
        sim, net, nodes = build_tier(corpus, 2)
        rogue = nodes[1]
        rogue._serve_shard = lambda ctx: ctx.respond(
            rogue.tls.channel(ctx.request.src).seal(reply, rng=rogue.rng))
        (page,) = fire(sim, net, "engine", [QUERIES[0]])
        assert page["status"] == "ok"
        assert page["hits"]
        assert all(hit["doc_id"] % 2 == 0 for hit in page["hits"])

    def test_reply_that_does_not_decode_degrades_to_the_surviving_shard(
            self, corpus):
        sim, net, nodes = build_tier(corpus, 2)
        rogue = nodes[1]
        rogue._serve_shard = lambda ctx: ctx.respond(
            rogue.tls.channel(ctx.request.src).seal_bytes(
                b"not json", rng=rogue.rng))
        (page,) = fire(sim, net, "engine", [QUERIES[0]])
        assert page["status"] == "ok"
        assert page["hits"]
        assert all(hit["doc_id"] % 2 == 0 for hit in page["hits"])
