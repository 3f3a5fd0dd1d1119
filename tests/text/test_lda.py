"""Tests for repro.text.lda (collapsed Gibbs LDA)."""

import numpy as np
import pytest

from repro.text.lda import fit_lda


def _two_topic_corpus():
    """A trivially separable corpus: 'animal' docs vs 'vehicle' docs."""
    animals = ["cat", "dog", "horse", "bird", "fish"]
    vehicles = ["car", "truck", "train", "plane", "boat"]
    docs = []
    for index in range(30):
        docs.append([animals[(index + j) % 5] for j in range(8)])
        docs.append([vehicles[(index + j) % 5] for j in range(8)])
    return docs, set(animals), set(vehicles)


def _top_terms(model, topic, topn):
    phi = model.topic_term_distribution(topic)
    return {model.vocabulary[i] for i in np.argsort(phi)[::-1][:topn]}


@pytest.fixture(scope="module")
def separable_model():
    docs, _, _ = _two_topic_corpus()
    return fit_lda(docs, num_topics=2, iterations=80, seed=1)


class TestFit:
    def test_counts_are_consistent(self, separable_model):
        docs, _, _ = _two_topic_corpus()
        model = separable_model
        # Every fitted token holds exactly one topic assignment.
        assert model.topic_word_counts.sum() == sum(map(len, docs))
        assert (model.topic_word_counts >= 0).all()

    def test_vocabulary_complete(self, separable_model):
        assert set(separable_model.vocabulary) == {
            "cat", "dog", "horse", "bird", "fish",
            "car", "truck", "train", "plane", "boat"}

    def test_separates_topics(self, separable_model):
        docs, animals, vehicles = _two_topic_corpus()
        top0 = _top_terms(separable_model, 0, 5)
        top1 = _top_terms(separable_model, 1, 5)
        assert (top0 == animals and top1 == vehicles) or \
               (top0 == vehicles and top1 == animals)

    def test_deterministic_given_seed(self):
        docs, _, _ = _two_topic_corpus()
        a = fit_lda(docs, num_topics=2, iterations=20, seed=7)
        b = fit_lda(docs, num_topics=2, iterations=20, seed=7)
        assert np.array_equal(a.topic_word_counts, b.topic_word_counts)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_lda([], num_topics=2)
        with pytest.raises(ValueError):
            fit_lda([[], []], num_topics=2)

    def test_invalid_topic_count(self):
        with pytest.raises(ValueError):
            fit_lda([["a"]], num_topics=0)


class TestTopicDistributions:
    def test_phi_sums_to_one(self, separable_model):
        for topic in range(2):
            phi = separable_model.topic_term_distribution(topic)
            assert phi.sum() == pytest.approx(1.0)
            assert (phi > 0).all()


class TestDictionary:
    def test_dictionary_contains_top_terms(self, separable_model):
        # Every term here occurs in half the corpus documents, so the
        # background filter must be relaxed for this toy corpus.
        dictionary = separable_model.term_dictionary(
            topn_per_topic=3, max_doc_frequency=1.01)
        assert len(dictionary) >= 3

    def test_doc_frequency_filter(self):
        # A glue token present in every document must be filtered out.
        docs, _, _ = _two_topic_corpus()
        docs = [doc + ["glue"] for doc in docs]
        model = fit_lda(docs, num_topics=2, iterations=40, seed=2)
        dictionary = model.term_dictionary(topn_per_topic=10,
                                           max_doc_frequency=0.5)
        assert "glue" not in dictionary
        unfiltered = model.term_dictionary(topn_per_topic=10,
                                           max_doc_frequency=1.01)
        assert "glue" in unfiltered
