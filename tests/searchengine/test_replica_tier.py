"""Wire-level tests of the sharded engine replica tier.

The in-process byte-identity lives in ``test_sharding.py``; here the
same computation is distributed across :class:`SearchEngineNode`
replicas over the simulated transport — coordinator scatter-gather,
sealed sibling channels, batching, caching and the degrade path when a
sibling goes silent.
"""

import dataclasses
import itertools
import random
from unittest.mock import patch

import pytest

from repro.crypto.keys import IdentityKeyPair
from repro.net import wire
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.tls import SecureChannelManager, SignatureAuthenticator
from repro.net.transport import Network, NetNode
from repro.perf import workload_queries
from repro.searchengine.cache import ResultCache
from repro.searchengine.corpus import Corpus, build_corpus
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


@pytest.fixture(scope="module")
def quoted_corpus(corpus):
    """The corpus with a ``"``, a ``\\`` and non-ASCII text in every
    url and title, all of which the canonical encoding escapes."""
    return Corpus([
        dataclasses.replace(
            document, url=f'{document.url}?q="sant\u00e9"\\x',
            tokens=("sant\u00e9", 'say"hi"', "back\\slash", "\u4e2d\u6587")
            + document.tokens)
        for document in corpus.documents])


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


def tls_peer(sim, net, address, target, rng):
    """A node at *address* with an established channel to *target*."""
    peer = NetNode(net, address)
    peer.tls = SecureChannelManager(peer, SignatureAuthenticator(
        IdentityKeyPair.generate(bits=512, rng=rng)), rng)
    peer.tls.establish(target, on_ready=lambda channel: None)
    sim.run()
    return peer


def sealed_client(sim, net, target):
    """A fresh client with an established channel to *target*, as
    ``send(queries, start=0.0, spacing=0.0)``: it sends sealed
    ``searchtls`` requests and returns each reply's plaintext bytes in
    send order."""
    rng = random.Random(5)
    client = tls_peer(sim, net, f"client-{next(CLIENT_NUMBERS)}", target,
                      rng)
    channel = client.tls.channel(target)

    def send(queries, start=0.0, spacing=0.0):
        replies = {}

        def request(index, query):
            client.request(
                target, channel.seal({"query": query, "meta": {}}, rng=rng),
                lambda payload, index=index: replies.__setitem__(
                    index, channel.open_bytes(payload)),
                timeout=60.0, kind="searchtls")

        for index, query in enumerate(queries):
            sim.post(start + index * spacing,
                     lambda i=index, q=query: request(i, q))
        sim.run()
        assert len(replies) == len(queries), "a search never completed"
        return [replies[index] for index in range(len(queries))]

    return send


def send_shard(sim, peer, record, rng):
    """Seal *record* on *peer*'s channel to ``engine1``, send it as a
    shard request and return what came back: the reply's plaintext
    bytes, or ``"timeout"``."""
    replies = []
    channel = peer.tls.channel("engine1")
    peer.request("engine1", channel.seal(record, rng=rng),
                 lambda payload: replies.append(channel.open_bytes(payload)),
                 timeout=5.0, kind="shard",
                 on_timeout=lambda: replies.append("timeout"))
    sim.run()
    return replies


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


class TestEncodedOnce:
    """The guard: a cached tier encodes each page body and each shard
    partial's wire-hit list once, reads no sibling reply for a batch
    that the response cache answers whole, and sends the bytes that
    encoding each reply whole would."""

    def test_each_body_and_fragment_is_encoded_once(self, corpus):
        sim, net, nodes = build_tier(corpus, 3, batch_window=0.3,
                                     cache_size=64)
        send = sealed_client(sim, net, "engine")
        encoded, hit_lists, replies_read = [], [], []
        encode, decode = wire.encode, wire.decode
        encode_hits = SearchEngineNode._encode_hits

        def encode_spy(value):
            encoded.append(value)
            return encode(value)

        def decode_spy(data):
            value = decode(data)
            if isinstance(value, dict) and "p" in value:
                replies_read.append(value)
            return value

        def encode_hits_spy(self, keys):
            hit_lists.append(self.address)
            return encode_hits(self, keys)

        # Each list lands in one batch window: all misses, all hits,
        # then one hit and one miss.
        batches = [QUERIES, QUERIES + QUERIES, QUERIES[:1] + WIRE_QUERIES[3:4]]
        read, bodies = [], []
        with patch.object(wire, "encode", encode_spy), \
                patch.object(wire, "decode", decode_spy), \
                patch.object(SearchEngineNode, "_encode_hits",
                             encode_hits_spy):
            for batch in batches:
                before = len(replies_read)
                bodies.append(send(batch, spacing=0.01))
                read.append(len(replies_read) - before)
        queries = set(QUERIES + WIRE_QUERIES[3:4])
        term_tuples = {tuple(terms) for query in queries
                       for terms in query_plan(query, "native")}
        # One reply per sibling, read only by the batches that missed.
        assert read == [2, 0, 2]
        assert len([value for value in encoded if isinstance(value, dict)
                    and "hits" in value]) == len(queries)
        assert sorted(hit_lists) == sorted(
            ["engine1", "engine2"] * len(term_tuples))
        assert len([value for value in encoded
                    if isinstance(value, list)]) == len(hit_lists)
        for batch, replies in zip(batches, bodies):
            for query, body in zip(batch, replies):
                found, page = nodes[0].response_cache.get(query)
                assert found
                assert body == page.encoding == encode(
                    {"hits": page.value, "status": "ok"})

    @pytest.mark.parametrize("documents", ["corpus", "quoted_corpus"])
    def test_replies_equal_the_encoding_of_the_whole(self, request,
                                                     documents):
        sim, net, nodes = build_tier(request.getfixturevalue(documents), 2,
                                     cache_size=64)
        engine = nodes[1].engine
        plans = [query_plan(query, "native") for query in WIRE_QUERIES]
        partials = [
            [[{"d": doc_id, "u": engine.document(doc_id).url, "s": -negated,
               "t": list(engine.document(doc_id).title_terms)}
              for negated, doc_id in engine.rank_terms(terms, 10)]
             for terms in plan]
            for plan in plans]
        rng = random.Random(9)
        # The second reply is spliced from cached fragments.
        for _ in range(2):
            assert send_shard(sim, nodes[0], {"q": plans, "k": 10}, rng) == [
                wire.encode({"p": partials})]
        send = sealed_client(sim, net, "engine")
        replies = send(WIRE_QUERIES + WIRE_QUERIES, spacing=1.0)
        for query, body in zip(WIRE_QUERIES + WIRE_QUERIES, replies):
            found, page = nodes[0].response_cache.get(query)
            assert found
            assert body == page.encoding == wire.encode(
                {"hits": page.value, "status": "ok"})
        if documents == "quoted_corpus":
            escaped = b"".join(replies)
            assert all(part in escaped
                       for part in (b'\\"', b"\\\\", b"\\u00e9"))


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
        """A cached 2-replica tier whose replica ``engine``, a cluster
        member, sends shard requests by hand to ``engine1`` over their
        warm-up channel."""
        sim, net, nodes = build_tier(corpus, 2, cache_size=64)
        rng = random.Random(9)
        return lambda record: send_shard(sim, nodes[0], record, rng)

    def test_well_formed_request_is_answered(self, sibling):
        (reply,) = sibling({"q": [PLAN], "k": 3})
        assert len(wire.decode(reply)["p"][0][0]) == 3

    @pytest.mark.parametrize("record", [
        {"q": [PLAN], "k": "10"},
        {"q": [PLAN]},
        {"q": 5, "k": 10},
        {"q": [[PLAN[0] + [["cancer"]]]], "k": 10},
        {"q": [PLAN], "k": -1},
    ], ids=["str-k", "missing-k", "int-q", "nested-term", "negative-k"])
    def test_malformed_request_is_dropped(self, sibling, record):
        assert sibling(record) == ["timeout"]

    def test_request_from_outside_the_cluster_is_dropped(self, corpus):
        """A peer outside the cluster gets no partials, even with an
        established channel and a well-formed request. Its request is
        no search, so the query log stays empty."""
        sim, net, nodes = build_tier(corpus, 2, cache_size=64)
        rng = random.Random(9)
        outsider = tls_peer(sim, net, "outsider", "engine1", rng)
        assert outsider.tls.channel("engine1") is not None
        assert send_shard(sim, outsider, {"q": [PLAN], "k": 50},
                          rng) == ["timeout"]
        assert [len(node.tap) for node in nodes] == [0, 0]


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
