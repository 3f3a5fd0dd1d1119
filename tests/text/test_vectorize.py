"""Tests for repro.text.vectorize."""

import pytest
from hypothesis import given, strategies as st

from repro.text.vectorize import cosine_binary, query_vector


class TestQueryVector:
    def test_stems_and_dedups(self):
        assert query_vector("searching searches") == frozenset({"search"})

    def test_unstemmed_option(self):
        assert query_vector("searching", stem=False) == frozenset({"searching"})

    def test_empty(self):
        assert query_vector("") == frozenset()


class TestCosineBinary:
    def test_identical(self):
        v = frozenset({"a", "b"})
        assert cosine_binary(v, v) == pytest.approx(1.0)

    def test_disjoint(self):
        assert cosine_binary(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_partial_overlap(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert cosine_binary(a, b) == pytest.approx(1 / 2)

    def test_empty_sets(self):
        assert cosine_binary(frozenset(), frozenset({"a"})) == 0.0

    def test_symmetry(self):
        a = frozenset({"a", "b", "c"})
        b = frozenset({"b", "d"})
        assert cosine_binary(a, b) == cosine_binary(b, a)

    @given(st.frozensets(st.text(alphabet="abcde", min_size=1, max_size=3),
                         max_size=8),
           st.frozensets(st.text(alphabet="abcde", min_size=1, max_size=3),
                         max_size=8))
    def test_property_bounds_and_symmetry(self, a, b):
        value = cosine_binary(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == cosine_binary(b, a)
