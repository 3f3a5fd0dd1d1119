"""Tests for the synthetic WordNet."""

import pytest

from repro.datasets.vocabulary import SENSITIVE_TOPICS, build_topic_vocabularies
from repro.text.wordnet import SyntheticWordNet


@pytest.fixture(scope="module")
def wordnet():
    return SyntheticWordNet.build(seed=4)


class TestStructure:
    def test_every_term_has_a_synset(self, wordnet):
        vocabularies = build_topic_vocabularies()
        lemmas = {lemma for synset in wordnet.synsets
                  for lemma in synset.lemmas}
        for vocabulary in vocabularies.values():
            for term in vocabulary.terms[:20]:
                assert term in lemmas, term


class TestDomains:
    def test_every_synset_has_factotum_domain(self, wordnet):
        for synset in wordnet.synsets:
            assert any(d.startswith("factotum/") for d in synset.domains)

    def test_sensitive_dictionary_covers_most_sensitive_terms(self, wordnet):
        vocabularies = build_topic_vocabularies()
        dictionary = wordnet.sensitive_dictionary()
        covered = 0
        total = 0
        for topic in SENSITIVE_TOPICS:
            for term in vocabularies[topic].terms:
                total += 1
                covered += term in dictionary
        # domain_recall default ≈ 0.72 at synset granularity.
        assert 0.55 < covered / total < 0.9

    def test_sensitive_dictionary_mostly_clean(self, wordnet):
        vocabularies = build_topic_vocabularies()
        dictionary = wordnet.sensitive_dictionary()
        neutral_hits = 0
        neutral_total = 0
        for topic, vocabulary in vocabularies.items():
            if vocabulary.sensitive:
                continue
            for term in vocabulary.terms:
                neutral_total += 1
                neutral_hits += term in dictionary
        # polysemy_noise default ≈ 0.045 — small but non-zero.
        assert 0.0 < neutral_hits / neutral_total < 0.15

    def test_single_topic_dictionary(self, wordnet):
        health_only = wordnet.sensitive_dictionary(("health",))
        full = wordnet.sensitive_dictionary()
        assert health_only < full

    def test_deterministic_build(self):
        a = SyntheticWordNet.build(seed=8)
        b = SyntheticWordNet.build(seed=8)
        assert ([s.domains for s in a.synsets]
                == [s.domains for s in b.synsets])

    def test_calibration_knobs_move_coverage(self):
        strict = SyntheticWordNet.build(domain_recall=0.3, seed=1)
        loose = SyntheticWordNet.build(domain_recall=0.95, seed=1)
        assert (len(strict.sensitive_dictionary())
                < len(loose.sensitive_dictionary()))
