"""Corpus generation and IDF against the code they replaced.

:func:`reference_build_corpus` and :func:`reference_compute_idf` are
the earlier bodies, kept verbatim as the oracle: ``build_corpus`` now
makes the same Mersenne Twister calls without ``Random.choice`` and
``Random.expovariate``, and ``compute_idf`` counts document
frequencies in C. Every document's ``doc_id``, ``url``, ``topic`` and
``tokens`` must match, and every IDF value must match bit for bit in
the same key order.
"""

import hashlib
import json
import math
import random
import threading
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.vocabulary import (ALL_TOPICS, GENERAL_TERMS,
                                       build_topic_vocabularies)
from repro.searchengine import corpus as corpus_module
from repro.searchengine.corpus import Corpus, Document, build_corpus
from repro.searchengine.engine import SearchEngine


def reference_build_corpus(docs_per_topic: int = 120, doc_length: int = 60,
                           cross_topic_rate: float = 0.08,
                           seed: int = 0) -> Corpus:
    """The earlier ``build_corpus``, verbatim."""
    rng = random.Random(seed)
    vocabularies = build_topic_vocabularies()
    documents: List[Document] = []
    doc_id = 0
    for topic in ALL_TOPICS:
        own_terms = list(vocabularies[topic].terms)
        for _ in range(docs_per_topic):
            tokens: List[str] = []
            for _ in range(doc_length):
                roll = rng.random()
                if roll < cross_topic_rate:
                    other = rng.choice(ALL_TOPICS)
                    tokens.append(rng.choice(vocabularies[other].terms))
                elif roll < cross_topic_rate + 0.12:
                    tokens.append(rng.choice(GENERAL_TERMS))
                else:
                    # Zipf-ish skew towards the head of the topic vocab.
                    index = min(int(rng.expovariate(1.0 / 25.0)),
                                len(own_terms) - 1)
                    tokens.append(own_terms[index])
            documents.append(Document(
                doc_id=doc_id,
                url=f"https://web.example/{topic}/{doc_id}",
                topic=topic,
                tokens=tuple(tokens),
            ))
            doc_id += 1
    return Corpus(documents=documents)


def reference_compute_idf(documents) -> Dict[str, float]:
    """The earlier ``SearchEngine.compute_idf``, verbatim."""
    num_docs = len(documents)
    term_doc_freq: Dict[str, int] = {}
    for document in documents:
        for term in dict.fromkeys(document.tokens):
            term_doc_freq[term] = term_doc_freq.get(term, 0) + 1
    return {
        term: math.log((1 + num_docs) / (1 + df)) + 1.0
        for term, df in term_doc_freq.items()
    }


def rows(corpus):
    return [(type(d.doc_id), d.doc_id, d.url, d.topic, type(d.tokens),
             d.tokens) for d in corpus.documents]


def idf_exact(idf):
    """Key order and every value's bits."""
    return [(term, type(value), value.hex()) for term, value in idf.items()]


def corpus_digest(corpus):
    """sha256 of every document's doc_id, url, topic and tokens."""
    encoded = json.dumps(
        [[d.doc_id, d.url, d.topic, list(d.tokens)] for d in corpus.documents],
        separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


#: Both ends, the default, and 0.88, where cross-topic and general
#: draws together take every roll.
RATES = [0.0, 0.08, 0.5, 0.88, 1.0]


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 64),
           docs_per_topic=st.integers(0, 25),
           doc_length=st.integers(0, 80),
           cross_topic_rate=st.sampled_from(RATES)
           | st.floats(min_value=0.0, max_value=1.0) | st.floats())
    def test_documents(self, seed, docs_per_topic, doc_length,
                       cross_topic_rate):
        params = dict(docs_per_topic=docs_per_topic, doc_length=doc_length,
                      cross_topic_rate=cross_topic_rate, seed=seed)
        corpus = build_corpus(**params)
        reference = reference_build_corpus(**params)
        assert rows(corpus) == rows(reference)
        assert idf_exact(SearchEngine.compute_idf(corpus.documents)) == \
            idf_exact(reference_compute_idf(reference.documents))

    @settings(max_examples=100, deadline=None)
    @given(token_lists=st.lists(
        st.lists(st.sampled_from(["flu", "fever", "hotel", "paris", "a"]),
                 max_size=6), max_size=12))
    def test_idf(self, token_lists):
        documents = [Document(doc_id=doc_id, url=f"u{doc_id}", topic="t",
                              tokens=tuple(tokens))
                     for doc_id, tokens in enumerate(token_lists)]
        assert idf_exact(SearchEngine.compute_idf(documents)) == \
            idf_exact(reference_compute_idf(documents))

    def test_idf_of_nothing(self):
        empty = Document(doc_id=0, url="u", topic="t", tokens=())
        assert SearchEngine.compute_idf([]) == {}
        assert SearchEngine.compute_idf([empty, empty]) == {}


#: Recorded with the reference generator.
KNOWN_CORPUS_SHA256 = {
    "default": (
        "c6ef1d93147947cae6b2d5a8a09101651376e3c5b6c8eea0fdb25133f41634d4"),
    # The engine-miss corpus size.
    "docs_per_topic=2000": (
        "b0bf5d90e9861a74c076476d2869f8b962cbd06a5268a5bb997114a4819217bc"),
}


def test_known_answer_default():
    assert corpus_digest(build_corpus(seed=0)) == \
        KNOWN_CORPUS_SHA256["default"]


def test_known_answer_engine_size():
    assert corpus_digest(build_corpus(docs_per_topic=2000, seed=0)) == \
        KNOWN_CORPUS_SHA256["docs_per_topic=2000"]


def raises_within(fn, seconds=30.0):
    """Run *fn* on a daemon thread; return what it raised, failing the
    test if it is still running after *seconds* (an empty-sequence draw
    that loops forever)."""
    raised = []

    def target():
        try:
            fn()
        except Exception as error:  # handed to the test thread
            raised.append(error)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), "draw from an empty sequence never ended"
    return raised[0] if raised else None


@pytest.mark.parametrize("generate", [build_corpus, reference_build_corpus])
def test_empty_general_terms_raise(monkeypatch, generate):
    # Each module reads GENERAL_TERMS from its own namespace.
    monkeypatch.setattr(corpus_module, "GENERAL_TERMS", [])
    monkeypatch.setitem(reference_build_corpus.__globals__,
                        "GENERAL_TERMS", [])
    error = raises_within(lambda: generate(
        docs_per_topic=2, doc_length=40, cross_topic_rate=0.0, seed=1))
    assert isinstance(error, IndexError)
