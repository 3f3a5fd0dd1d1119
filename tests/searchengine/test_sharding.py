"""Sharded TF-IDF: the byte-identity invariant and replica routing.

The whole engine scale-out rests on one promise (see
:mod:`repro.searchengine.sharding`): the merged sharded top-k is
byte-identical to the unsharded engine's top-k at any shard count.
These tests pin that promise in-process, through
:func:`~repro.searchengine.engine.result_page`, the page function a
replica coordinator runs, for plain and OR queries, including
Hypothesis sweeps of native-OR queries against the reference engine,
one of them over a corpus where exact ties straddle slot k across
shards. A page is ``(-score, doc_id)`` keys, compared by doc id and
score bits.
"""

import functools

import pytest

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.searchengine.corpus import Corpus, build_corpus
from repro.searchengine.engine import (OR_SEPARATOR, SearchEngine,
                                       merge_partials, query_plan,
                                       result_page)
from repro.searchengine.sharding import (
    build_shard_engines,
    replica_addresses,
    route_to_replica,
    shard_documents,
    shard_of,
)
from tests.searchengine.test_rank_kernel import (ReferenceEngine, exact_keys,
                                                 reference_keys, term_lists,
                                                 tied_corpora)

QUERIES = [
    "symptoms cancer treatment",
    "cheap flights travel hotel",
    "symptoms cancer OR football league",
    "vaccine OR mortgage OR laptop",
    "nosuchterm whatsoever",
]

#: Terms the Hypothesis sweep draws from — a mix of head terms from
#: several topics plus one guaranteed non-term.
TERM_POOL = ["symptoms", "cancer", "treatment", "football", "laptop",
             "mortgage", "vaccine", "hotel", "recipe", "zzzunknown"]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(docs_per_topic=40, seed=7)


@pytest.fixture(scope="module")
def oracle(corpus):
    """The earlier kernel with its own OR split and union."""
    return ReferenceEngine(corpus.documents)


@pytest.fixture(scope="module")
def reference(corpus):
    return SearchEngine(corpus)


@pytest.fixture(scope="module")
def shards(corpus):
    """The shard engines at a shard count, built once per count."""
    return functools.lru_cache(maxsize=None)(
        lambda num_shards: build_shard_engines(corpus, num_shards))


def sharded_page(shard_engines, query, topk=10):
    """The page keys a coordinator merges for *query* from every
    shard's partial top-k of each planned sub-query."""
    return result_page(
        [[shard.rank_terms(terms, topk) for shard in shard_engines]
         for terms in query_plan(query, "native")], topk)


class TestPartition:
    def test_every_document_in_exactly_one_shard(self, corpus):
        shards = shard_documents(corpus, 3)
        seen = [doc.doc_id for shard in shards for doc in shard]
        assert sorted(seen) == [doc.doc_id for doc in corpus.documents]
        for index, shard in enumerate(shards):
            assert all(shard_of(doc.doc_id, 3) == index for doc in shard)

    def test_single_shard_is_the_whole_corpus(self, corpus):
        (shard,) = shard_documents(corpus, 1)
        assert [d.doc_id for d in shard] == \
            [d.doc_id for d in corpus.documents]

    def test_invalid_shard_count_rejected(self, corpus):
        with pytest.raises(ValueError):
            shard_documents(corpus, 0)

    def test_single_shard_engine_matches_reference(self, corpus, reference):
        # build_shard_engines(N=1) must reproduce the plain constructor
        # exactly — the global-IDF plumbing is a no-op at one shard.
        (engine,) = build_shard_engines(corpus, 1)
        for query in QUERIES:
            assert engine.search(query) == reference.search(query)


class TestByteIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    def test_search_identical_at_any_shard_count(self, shards, reference,
                                                 num_shards):
        for query in QUERIES:
            assert exact_keys(sharded_page(shards(num_shards), query)) == \
                reference_keys(reference.search(query)), \
                f"divergence at N={num_shards} for {query!r}"

    def test_topk_override_respected(self, shards, reference):
        assert exact_keys(sharded_page(shards(3), QUERIES[0], topk=4)) == \
            reference_keys(reference.search(QUERIES[0], topk=4))

    def test_search_batch_matches_individual_searches(self, reference):
        batch = reference.search_batch(QUERIES + QUERIES)
        assert batch == [reference.search(q) for q in QUERIES + QUERIES]

    @settings(max_examples=50, deadline=None)
    @given(groups=st.lists(st.lists(st.sampled_from(TERM_POOL), min_size=1,
                                    max_size=4), min_size=1, max_size=3),
           num_shards=st.integers(min_value=1, max_value=7),
           topk=st.sampled_from([1, 3, 10]))
    def test_identity_over_random_term_combinations(self, shards, oracle,
                                                    groups, num_shards,
                                                    topk):
        query = OR_SEPARATOR.join(" ".join(terms) for terms in groups)
        assert exact_keys(sharded_page(shards(num_shards), query, topk)) == \
            reference_keys(oracle.search(query, topk))

    @settings(max_examples=100, deadline=None)
    @given(documents=tied_corpora(),
           groups=st.lists(term_lists, min_size=1, max_size=3),
           num_shards=st.integers(min_value=2, max_value=4),
           topk=st.integers(min_value=1, max_value=4))
    def test_ties_across_shards(self, documents, groups, num_shards, topk):
        """Duplicated documents under shuffled ids score the same bits
        in different shards, so exact ties straddle slot k across
        shards: the merge must keep the lower doc id, as the oracle's
        full sort does. A small k makes the straddle common (about a
        third of the examples)."""
        query = OR_SEPARATOR.join(" ".join(terms) for terms in groups)
        oracle = ReferenceEngine(documents)
        for terms in query_plan(query, "native"):
            ranked = oracle.rank_terms(terms, len(documents))
            if 0 < topk < len(ranked) and \
                    ranked[topk - 1].score == ranked[topk].score and \
                    ranked[topk - 1].doc_id % num_shards != \
                    ranked[topk].doc_id % num_shards:
                event("a tie straddles slot k across shards")
        shard_engines = build_shard_engines(Corpus(documents=documents),
                                            num_shards)
        assert exact_keys(sharded_page(shard_engines, query, topk)) == \
            reference_keys(oracle.search(query, topk))

    def test_document_lookup_resolves_through_owning_shard(self, corpus,
                                                          shards):
        doc = corpus.documents[13]
        assert shards(4)[shard_of(doc.doc_id, 4)].document(doc.doc_id) == doc


class TestMergePartials:
    def test_orders_by_score_then_doc_id(self):
        merged = merge_partials(
            [[(-1.0, 4), (-0.5, 9)], [(-2.0, 7), (-1.0, 2)]], topk=3)
        assert merged == [(-2.0, 7), (-1.0, 2), (-1.0, 4)]

    def test_truncates_to_topk(self):
        merged = merge_partials([[(-float(i), i) for i in range(5)]],
                                topk=2)
        assert len(merged) == 2


class TestReplicaRouting:
    def test_replica_zero_keeps_the_historical_address(self):
        assert replica_addresses(1) == ["engine"]
        assert replica_addresses(3) == ["engine", "engine1", "engine2"]

    def test_invalid_replica_count_rejected(self):
        with pytest.raises(ValueError):
            replica_addresses(0)

    def test_routing_is_stable_and_total(self):
        addresses = replica_addresses(4)
        for identity in ("node00", "node07", "client-a", "relay3"):
            first = route_to_replica(identity, addresses)
            assert first in addresses
            assert all(route_to_replica(identity, addresses) == first
                       for _ in range(5))

    def test_routing_spreads_identities(self):
        addresses = replica_addresses(4)
        routed = {route_to_replica(f"node{i:02d}", addresses)
                  for i in range(64)}
        assert len(routed) > 1

    def test_empty_address_list_rejected(self):
        with pytest.raises(ValueError):
            route_to_replica("node00", [])
