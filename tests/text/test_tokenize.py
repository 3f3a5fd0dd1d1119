"""Tests for repro.text.tokenize."""

from repro.text.tokenize import STOPWORDS, stemmed_terms, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Flu SYMPTOMS") == ["flu", "symptoms"]

    def test_splits_on_punctuation(self):
        assert tokenize("best-rated: hotels!") == ["best", "rated", "hotels"]

    def test_drops_stopwords(self):
        assert tokenize("the flu and a cold") == ["flu", "cold"]

    def test_keeps_stopwords_when_asked(self):
        assert "the" in tokenize("the flu", drop_stopwords=False)

    def test_min_length(self):
        assert tokenize("a b cd", drop_stopwords=False) == ["cd"]
        assert tokenize("a b cd", drop_stopwords=False, min_length=1) == \
            ["a", "b", "cd"]

    def test_numbers_kept(self):
        assert tokenize("windows 95") == ["windows", "95"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   !!! ") == []

    def test_stopword_list_plausible(self):
        assert "the" in STOPWORDS and "flu" not in STOPWORDS


class TestStemmedTerms:
    def test_pipeline(self):
        assert stemmed_terms("searching searches") == ("search", "search")
