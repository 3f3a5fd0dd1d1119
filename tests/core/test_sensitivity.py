"""Tests for the sensitivity analysis (§V-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sensitivity import (
    LinkabilityAssessor,
    SemanticAssessor,
    SensitivityAnalysis,
    SensitivityReport,
)
from repro.text.wordnet import SyntheticWordNet


class TestSemanticAssessor:
    def test_wordnet_mode_single_hit_flags(self):
        assessor = SemanticAssessor(
            wordnet_terms={"cancer", "tumor"}, mode="wordnet")
        assert assessor.is_sensitive("cancer treatment options")
        assert not assessor.is_sensitive("football scores")

    def test_lda_mode(self):
        assessor = SemanticAssessor(lda_terms={"therapy"}, mode="lda")
        assert assessor.is_sensitive("group therapy near me")
        assert not assessor.is_sensitive("group meetings near me")

    def test_combined_mode_needs_corroboration(self):
        assessor = SemanticAssessor(
            wordnet_terms={"cancer"},
            lda_terms={"chemotherapy", "remission"},
            lda_core_terms=set(),
            mode="combined")
        # One weak LDA hit alone: not flagged.
        assert not assessor.is_sensitive("chemotherapy")
        # Two LDA hits: flagged.
        assert assessor.is_sensitive("chemotherapy remission")
        # LDA + WordNet agreement: flagged.
        assert assessor.is_sensitive("cancer chemotherapy")

    def test_combined_core_term_flags_alone(self):
        assessor = SemanticAssessor(
            lda_terms={"chemotherapy"},
            lda_core_terms={"chemotherapy"},
            mode="combined")
        assert assessor.is_sensitive("chemotherapy")

    def test_dictionaries_are_stemmed(self):
        assessor = SemanticAssessor(
            wordnet_terms={"treatments"}, mode="wordnet")
        assert assessor.is_sensitive("treatment")  # stems collide

    def test_glue_words_excluded_by_default(self):
        assessor = SemanticAssessor(
            wordnet_terms={"free", "cancer"}, mode="wordnet")
        assert not assessor.is_sensitive("free stuff online")
        assert assessor.is_sensitive("cancer")

    def test_custom_exclusions(self):
        assessor = SemanticAssessor(
            wordnet_terms={"cancer"}, mode="wordnet",
            exclude_terms={"cancer"})
        assert not assessor.is_sensitive("cancer")

    def test_empty_query_not_sensitive(self):
        assessor = SemanticAssessor(wordnet_terms={"x"}, mode="wordnet")
        assert not assessor.is_sensitive("")
        assert not assessor.is_sensitive("the of and")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SemanticAssessor(mode="magic")

    def test_wordnet_min_hits_honored(self):
        # Regression: the threshold was stored but never consulted, so
        # min_hits=2 behaved like min_hits=1.
        strict = SemanticAssessor(
            wordnet_terms={"cancer", "tumor"}, mode="wordnet",
            wordnet_min_hits=2)
        assert not strict.is_sensitive("cancer treatment options")
        assert strict.is_sensitive("cancer tumor staging")

    def test_wordnet_min_hits_default_is_single_hit(self):
        # The default must stay 1 — the behaviour every caller observed
        # while the knob was dead.
        assessor = SemanticAssessor(
            wordnet_terms={"cancer", "tumor"}, mode="wordnet")
        assert assessor.wordnet_min_hits == 1
        assert assessor.is_sensitive("cancer treatment options")

    def test_wordnet_min_hits_ignored_outside_wordnet_mode(self):
        assessor = SemanticAssessor(
            lda_terms={"therapy"}, mode="lda", wordnet_min_hits=5)
        assert assessor.is_sensitive("group therapy near me")

    def test_from_resources_honors_min_hits(self):
        wordnet = SyntheticWordNet.build(seed=3)
        strict = SemanticAssessor.from_resources(
            wordnet=wordnet, mode="wordnet", wordnet_min_hits=2)
        assert strict.wordnet_min_hits == 2

    def test_from_resources_topics_scope(self):
        wordnet = SyntheticWordNet.build(seed=3)
        all_topics = SemanticAssessor.from_resources(
            wordnet=wordnet, mode="wordnet")
        health_only = SemanticAssessor.from_resources(
            wordnet=wordnet, mode="wordnet", sensitive_topics=("health",))
        assert len(health_only.wordnet_terms) < len(all_topics.wordnet_terms)


class TestLinkabilityAssessor:
    def test_no_history_scores_zero(self):
        assert LinkabilityAssessor().score("anything at all") == 0.0

    def test_identical_history_scores_high(self):
        assessor = LinkabilityAssessor(
            history=["flu symptoms treatment"] * 3)
        assert assessor.score("flu symptoms treatment") > 0.8

    def test_unrelated_history_scores_low(self):
        assessor = LinkabilityAssessor(
            history=["football scores", "basketball playoffs"])
        assert assessor.score("quantum chromodynamics") == 0.0

    def test_partial_overlap_in_between(self):
        assessor = LinkabilityAssessor(history=["flu symptoms"])
        score = assessor.score("flu vaccine")
        assert 0.0 < score < 1.0

    def test_record_grows_history(self):
        assessor = LinkabilityAssessor()
        assessor.record("flu symptoms")
        assert len(assessor) == 1
        assert assessor.score("flu symptoms") > 0.5

    def test_empty_query_records_nothing(self):
        assessor = LinkabilityAssessor()
        assessor.record("   ")
        assert len(assessor) == 0

    def test_score_bounded(self):
        assessor = LinkabilityAssessor(
            history=["a b c", "a b", "a", "a b c d"] * 10)
        assert 0.0 <= assessor.score("a b c d") <= 1.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            LinkabilityAssessor(alpha=0.0)


# Query strings drawn from a tiny shared vocabulary, so randomized
# corpora get real term overlap (the interesting case for the index).
_VOCAB = ["flu", "symptoms", "treatment", "cancer", "football",
          "scores", "hotel", "paris", "vaccine", "the", "of"]
_query_strategy = st.lists(
    st.sampled_from(_VOCAB), min_size=0, max_size=5).map(" ".join)


class TestLinkabilityIndexEquivalence:
    """The inverted index must reproduce the linear scan bit-for-bit."""

    @settings(max_examples=60, deadline=None)
    @given(history=st.lists(_query_strategy, min_size=0, max_size=30),
           probe=_query_strategy,
           alpha=st.sampled_from([0.25, 0.5, 0.9, 1.0]))
    def test_property_indexed_equals_linear(self, history, probe, alpha):
        assessor = LinkabilityAssessor(alpha=alpha, history=history)
        indexed = assessor.score(probe)
        linear = assessor.score_linear(probe)
        assert indexed == pytest.approx(linear, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(history=st.lists(_query_strategy, min_size=1, max_size=30),
           records=st.lists(_query_strategy, min_size=0, max_size=10),
           probe=_query_strategy)
    def test_property_equivalence_survives_record(self, history, records,
                                                  probe):
        assessor = LinkabilityAssessor(history=history)
        for text in records:
            assessor.record(text)
        assert assessor.score(probe) == pytest.approx(
            assessor.score_linear(probe), abs=1e-12)

    def test_empty_vector_query_scores_zero_both_ways(self):
        assessor = LinkabilityAssessor(history=["flu symptoms"])
        assert assessor.score("the of and") == 0.0
        assert assessor.score_linear("the of and") == 0.0

    def test_fresh_profile_scores_zero_both_ways(self):
        assessor = LinkabilityAssessor()
        assert assessor.score("flu symptoms") == 0.0
        assert assessor.score_linear("flu symptoms") == 0.0

    def test_stopword_only_history_entries_still_count(self):
        # Entries that vectorize to nothing occupy the low end of the
        # ranking (cosine 0.0) — both implementations must agree.
        assessor = LinkabilityAssessor(
            history=["the of", "flu symptoms", "of the"])
        probe = "flu vaccine"
        assert assessor.score(probe) == assessor.score_linear(probe)
        assert assessor.score(probe) > 0.0


class TestSensitivityAnalysis:
    def test_assess_produces_report(self):
        analysis = SensitivityAnalysis(
            SemanticAssessor(wordnet_terms={"cancer"}, mode="wordnet"),
            LinkabilityAssessor(history=["cancer treatment"]))
        report = analysis.assess("cancer treatment")
        assert isinstance(report, SensitivityReport)
        assert report.semantic_sensitive
        assert report.linkability > 0.5

    def test_remember_feeds_linkability(self):
        analysis = SensitivityAnalysis(
            SemanticAssessor(mode="wordnet"), LinkabilityAssessor())
        assert analysis.assess("hotel booking paris").linkability == 0.0
        analysis.remember("hotel booking paris")
        assert analysis.assess("hotel booking paris").linkability > 0.5

    def test_remember_many_records_in_order(self):
        history = ["hotel booking paris", "cheap flights rome",
                   "museum tickets paris"]
        batched, single = (SensitivityAnalysis(
            SemanticAssessor(mode="wordnet"),
            LinkabilityAssessor()) for _ in range(2))
        batched.remember(*history)
        for query in history:
            single.remember(query)
        for probe in history + ["paris weekend"]:
            assert (batched.assess(probe).linkability
                    == single.assess(probe).linkability)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            SensitivityReport(query="q", semantic_sensitive=False,
                              linkability=1.5)
