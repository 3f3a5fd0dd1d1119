"""Tests for the synthetic corpus."""

import pytest

from repro.datasets.vocabulary import ALL_TOPICS, build_topic_vocabularies
from repro.searchengine.corpus import build_corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(docs_per_topic=20, doc_length=40, seed=9)


class TestCorpus:
    def test_size(self, corpus):
        assert len(corpus) == 20 * len(ALL_TOPICS)

    def test_topics_covered(self, corpus):
        topics = [document.topic for document in corpus.documents]
        for topic in ALL_TOPICS:
            assert topics.count(topic) == 20

    def test_documents_mostly_on_topic(self, corpus):
        vocabularies = build_topic_vocabularies()
        for document in corpus.documents[:50]:
            own = sum(1 for t in document.tokens
                      if t in vocabularies[document.topic])
            assert own > len(document.tokens) * 0.5

    def test_cross_topic_noise_present(self, corpus):
        vocabularies = build_topic_vocabularies()
        other_hits = 0
        for document in corpus.documents:
            for token in document.tokens:
                for topic, vocabulary in vocabularies.items():
                    if topic != document.topic and token in vocabulary:
                        other_hits += 1
                        break
        assert other_hits > 0  # the polysemy source for Fig 6's losses

    def test_urls_unique(self, corpus):
        urls = [d.url for d in corpus.documents]
        assert len(urls) == len(set(urls))

    def test_title_terms(self, corpus):
        document = corpus.documents[0]
        assert 1 <= len(document.title_terms) <= 8
        assert len(set(document.title_terms)) == len(document.title_terms)
        assert set(document.title_terms) <= set(document.tokens)

    def test_deterministic(self):
        a = build_corpus(docs_per_topic=5, seed=3)
        b = build_corpus(docs_per_topic=5, seed=3)
        assert [d.tokens for d in a.documents] == [d.tokens for d in b.documents]
