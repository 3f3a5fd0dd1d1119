"""The ranking kernel against the one it replaced.

:class:`ReferenceEngine` is the earlier index build and ``_rank``:
postings as ``(doc_id, weight)`` tuples, one ``+=`` per posting and a
full sort of every candidate. The engine keeps array postings, adds
whole posting lists in C and sorts only the candidates at or above the
k-th best score. Every hit list must match the reference exactly:
doc id, url, the score's bits and type, and the snippet.
"""

import hashlib
import json
import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import workload_queries
from repro.searchengine.corpus import Corpus, Document, build_corpus
from repro.searchengine.engine import (OR_SEPARATOR, SearchEngine, SearchHit,
                                       or_union, split_or)
from repro.searchengine.sharding import build_shard_engines, shard_documents
from repro.text.tokenize import tokenize


class ReferenceEngine:
    """The earlier kernel, kept verbatim as the oracle."""

    def __init__(self, documents, idf=None, or_support="native"):
        self.or_support = or_support
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._doc_norms: Dict[int, float] = {}
        self._documents: Dict[int, Document] = {}
        doc_term_counts = []
        term_doc_freq: Dict[str, int] = {}
        for document in documents:
            counts: Dict[str, int] = {}
            for token in document.tokens:
                counts[token] = counts.get(token, 0) + 1
            doc_term_counts.append((document.doc_id, counts))
            self._documents[document.doc_id] = document
            if idf is None:
                for term in counts:
                    term_doc_freq[term] = term_doc_freq.get(term, 0) + 1
        if idf is None:
            num_docs = len(documents)
            idf = {
                term: math.log((1 + num_docs) / (1 + df)) + 1.0
                for term, df in term_doc_freq.items()
            }
        self._idf = idf
        for doc_id, counts in doc_term_counts:
            norm_sq = 0.0
            for term, count in counts.items():
                weight = (1.0 + math.log(count)) * self._idf[term]
                self._postings.setdefault(term, []).append((doc_id, weight))
                norm_sq += weight * weight
            self._doc_norms[doc_id] = math.sqrt(norm_sq) or 1.0

    def search(self, query, topk):
        subqueries = split_or(query, self.or_support)
        if subqueries is not None:
            return or_union(
                (self.rank_terms(tokenize(subquery), topk)
                 for subquery in subqueries), topk)
        return self.rank_terms(
            tokenize(query.replace(OR_SEPARATOR, " ")), topk)

    def rank_terms(self, terms, topk):
        scores: Dict[int, float] = {}
        query_terms = [t for t in terms if t in self._postings]
        if not query_terms:
            return []
        for term in query_terms:
            idf = self._idf[term]
            for doc_id, weight in self._postings[term]:
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * weight
        ranked = sorted(
            ((score / self._doc_norms[doc_id], doc_id)
             for doc_id, score in scores.items()),
            key=lambda pair: (-pair[0], pair[1]))
        hits = []
        for score, doc_id in ranked[:topk]:
            document = self._documents[doc_id]
            snippet = tuple(t for t in query_terms
                            if t in set(document.tokens))[:5]
            hits.append(SearchHit(
                doc_id=doc_id, url=document.url, score=score,
                snippet_terms=snippet))
        return hits


def reference_title_terms(document):
    seen = []
    for token in document.tokens:
        if token not in seen:
            seen.append(token)
        if len(seen) == 8:
            break
    return tuple(seen)


def exact(hits):
    """A hit list with every float spelled out bit for bit."""
    return [(type(hit.doc_id) is int, hit.doc_id, hit.url,
             type(hit.score) is float, hit.score.hex(), hit.snippet_terms)
            for hit in hits]


# -- a tiny corpus where exact ties are the norm --------------------------

VOCABULARY = ["flu", "fever", "cough", "hotel", "flight", "paris"]
UNKNOWN = ["zebra", "quasar"]
TOPKS = [0, 1, 3, 10, 100]  # 100 exceeds every generated corpus


@st.composite
def tied_corpora(draw):
    """Documents drawn from a six-term vocabulary, each repeated up to
    three times under distinct, shuffled doc ids: duplicates score the
    same bits, so ties straddle slot k."""
    originals = draw(st.lists(
        st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=6),
        min_size=1, max_size=10))
    copies = draw(st.lists(st.integers(1, 3), min_size=len(originals),
                           max_size=len(originals)))
    token_lists = [tokens for tokens, count in zip(originals, copies)
                   for _ in range(count)]
    doc_ids = draw(st.permutations(range(len(token_lists))))
    return [Document(doc_id=doc_id, url=f"https://web.example/t/{doc_id}",
                     topic="t", tokens=tuple(tokens))
            for doc_id, tokens in zip(doc_ids, token_lists)]


term_lists = st.lists(st.sampled_from(VOCABULARY + UNKNOWN), max_size=6)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(documents=tied_corpora(), terms=term_lists,
           topk=st.sampled_from(TOPKS))
    def test_rank_terms(self, documents, terms, topk):
        engine = SearchEngine(Corpus(documents=documents))
        reference = ReferenceEngine(documents)
        assert exact(engine.rank_terms(terms, topk)) == \
            exact(reference.rank_terms(terms, topk))

    @settings(max_examples=100, deadline=None)
    @given(documents=tied_corpora(),
           subqueries=st.lists(term_lists, min_size=1, max_size=3),
           topk=st.sampled_from(TOPKS),
           or_support=st.sampled_from(["native", "none"]))
    def test_or_queries(self, documents, subqueries, topk, or_support):
        query = OR_SEPARATOR.join(" ".join(terms) for terms in subqueries)
        engine = SearchEngine(Corpus(documents=documents),
                              or_support=or_support)
        reference = ReferenceEngine(documents, or_support=or_support)
        assert exact(engine.search(query, topk)) == \
            exact(reference.search(query, topk))

    @settings(max_examples=100, deadline=None)
    @given(documents=tied_corpora(), terms=term_lists,
           topk=st.sampled_from(TOPKS), num_shards=st.integers(2, 4))
    def test_shards_with_global_idf(self, documents, terms, topk,
                                    num_shards):
        corpus = Corpus(documents=documents)
        idf = SearchEngine.compute_idf(documents)
        shards = build_shard_engines(corpus, num_shards)
        for shard, members in zip(shards,
                                  shard_documents(corpus, num_shards)):
            reference = ReferenceEngine(members, idf=idf)
            assert exact(shard.rank_terms(terms, topk)) == \
                exact(reference.rank_terms(terms, topk))

    def test_generated_corpus(self):
        corpus = build_corpus(docs_per_topic=40, seed=5)
        engine = SearchEngine(corpus)
        reference = ReferenceEngine(corpus.documents)
        for query in workload_queries(60, seed=5):
            for topk in (1, 10):
                assert exact(engine.search(query, topk)) == \
                    exact(reference.search(query, topk))

    def test_title_terms(self):
        for document in build_corpus(docs_per_topic=20, seed=6).documents:
            assert document.title_terms == reference_title_terms(document)
            assert document.title_terms is document.title_terms


class TestRejectedInput:
    def test_negative_topk(self):
        engine = SearchEngine(build_corpus(docs_per_topic=2, seed=1))
        with pytest.raises(ValueError):
            engine.rank_terms(["flu"], -1)

    def test_duplicate_doc_id(self):
        document = Document(doc_id=0, url="u", topic="t", tokens=("flu",))
        with pytest.raises(ValueError):
            SearchEngine(Corpus(documents=[document, document]))


def ranked_pages_digest(engine, queries):
    """sha256 of every query's result page, scores as float hex."""
    pages = [[[hit.doc_id, hit.url, hit.score.hex(), list(hit.snippet_terms)]
              for hit in engine.search(query)]
             for query in queries]
    encoded = json.dumps(pages, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


#: Recorded with the reference kernel on the engine-miss corpus size.
KNOWN_PAGES_SHA256 = (
    "89a2d516cd591ab824a6e70be748d6ae2141cf3eea9572dd223ea6adc78a17b5")


def test_known_answer_pages():
    engine = SearchEngine(build_corpus(docs_per_topic=2000, seed=0))
    assert ranked_pages_digest(engine, workload_queries(200, seed=0)) == \
        KNOWN_PAGES_SHA256
