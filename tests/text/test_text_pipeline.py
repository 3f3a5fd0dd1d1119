"""End-to-end text pipeline: the representations every attack and
assessment share must be mutually consistent."""

import pytest
from hypothesis import given, strategies as st

from repro.text.smoothing import smoothed_similarity
from repro.text.stem import porter_stem
from repro.text.tokenize import stemmed_terms, tokenize
from repro.text.vectorize import cosine_binary, query_vector


class TestPipelineConsistency:
    def test_query_vector_equals_stemmed_terms(self):
        query = "Searching for the BEST flu treatments!"
        assert query_vector(query) == frozenset(stemmed_terms(query))

    def test_morphological_variants_converge(self):
        # The whole point of stemming in this pipeline: variants of the
        # same query produce highly similar vectors.
        a = query_vector("searching flu treatments")
        b = query_vector("searched flu treatment")
        assert cosine_binary(a, b) == pytest.approx(1.0)

    def test_profile_similarity_behaves(self):
        history = [query_vector(q) for q in (
            "flu symptoms", "flu vaccine side effects",
            "treating flu at home")]
        related = query_vector("flu treatment")
        unrelated = query_vector("quantum chromodynamics")
        sim_related = smoothed_similarity(
            [cosine_binary(related, past) for past in history])
        sim_unrelated = smoothed_similarity(
            [cosine_binary(unrelated, past) for past in history])
        assert sim_related > 0.3 > sim_unrelated

    def test_stopword_only_queries_vanish(self):
        assert query_vector("the of and to") == frozenset()

    @given(st.text(alphabet="abcdefghij ", min_size=0, max_size=60))
    def test_property_vector_is_stemmed_tokenization(self, text):
        vector = query_vector(text)
        assert vector == frozenset(porter_stem(t) for t in tokenize(text))

    @given(st.text(alphabet="abcdefghij ", min_size=1, max_size=40))
    def test_property_self_similarity_is_max(self, text):
        vector = query_vector(text)
        if vector:
            assert cosine_binary(vector, vector) == pytest.approx(1.0)
