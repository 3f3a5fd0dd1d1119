"""The ranking kernel against the one it replaced.

:class:`ReferenceEngine` is the earlier index build and ``_rank``:
postings as ``(doc_id, weight)`` tuples, one ``+=`` per posting and a
full sort of every candidate. Its OR split and union are copies of the
engine's earlier ``split_or`` and ``or_union``, so the OR page is
checked against code the engine does not share. The engine keeps array
postings, scores the documents of every term but the longest first,
completes them with the rest of the longest list only when its skip
bound does not rule it out, and sorts only the candidates at or above
the k-th best score. Every ranking must match the reference exactly:
``rank_terms`` keys by doc id and the score's bits and type, and
``search`` hit lists by doc id, url, the score's bits and type, and the
snippet.
"""

import hashlib
import json
import math
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from unittest.mock import patch

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.perf import workload_queries
from repro.searchengine.corpus import Corpus, Document, build_corpus
from repro.searchengine.engine import SearchEngine, SearchHit
from repro.searchengine.sharding import build_shard_engines, shard_documents
from repro.text.tokenize import tokenize

OR_SEPARATOR = " OR "


def split_or(query: str, or_support: str) -> Optional[List[str]]:
    """The sub-queries of a native-OR query, or ``None`` when the query
    is served as one bag of words (plain query, or OR without native
    support)."""
    if OR_SEPARATOR in query and or_support == "native":
        subqueries = [part for part in query.split(OR_SEPARATOR)
                      if part.strip()]
        if subqueries:
            return subqueries
    return None


def or_union(rankings: Iterable[Sequence[SearchHit]],
             topk: int) -> List[SearchHit]:
    """Union of per-subquery rankings, merged by score.

    An OR query matches more documents, so the engine returns a
    proportionally larger result page (up to ``2 * topk``). The client
    still cannot tell which document answered which sub-query —
    recovering the real answer from this merged list is the filtering
    problem that costs OR systems accuracy (Fig 6). A document hit by
    several sub-queries keeps its best score (first sub-query wins
    ties, matching iteration order).
    """
    best: Dict[int, SearchHit] = {}
    for ranking in rankings:
        for hit in ranking:
            existing = best.get(hit.doc_id)
            if existing is None or hit.score > existing.score:
                best[hit.doc_id] = hit
    merged = sorted(best.values(), key=lambda h: (-h.score, h.doc_id))
    # The engine's OR result page is larger than a plain page but
    # not k+1 pages: sub-queries compete for the slots. This is the
    # completeness loss OR systems pay (and it worsens with k).
    return merged[: 2 * topk]


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


def exact_keys(keys):
    """Ranked ``(-score, doc_id)`` keys with every score spelled out bit
    for bit."""
    return [(type(doc_id) is int, doc_id, type(negated) is float,
             (-negated).hex())
            for negated, doc_id in keys]


def reference_keys(hits):
    """:func:`exact_keys` of a reference hit list's keys."""
    return exact_keys([(-hit.score, hit.doc_id) for hit in hits])


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
        assert exact_keys(engine.rank_terms(terms, topk)) == \
            reference_keys(reference.rank_terms(terms, topk))

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
            assert exact_keys(shard.rank_terms(terms, topk)) == \
                reference_keys(reference.rank_terms(terms, topk))

    @pytest.mark.parametrize("first, second", [("flu", "common"),
                                               ("common", "flu")])
    def test_or_tie_takes_the_first_snippet(self, first, second):
        """Both sub-queries rank document 0 at the same score bits, each
        with its own snippet: the first sub-query wins the tie, as the
        reference's union keeps the first of equal scores."""
        documents = documents_of("flu common", "flu x", "common y")
        engine = SearchEngine(Corpus(documents=documents), idf=UNIT_IDF)
        query = f"{first}{OR_SEPARATOR}{second}"
        hits = engine.search(query, 3)
        assert (hits[0].doc_id, hits[0].snippet_terms) == (0, (first,))
        assert exact(hits) == \
            exact(ReferenceEngine(documents, idf=UNIT_IDF).search(query, 3))

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


# -- the skip bound ----------------------------------------------------------

FREQUENT = "common"
RARE = ["flu", "fever", "cough"]
FILLER = ["alpha", "beta", "gamma", "delta"]

#: The kernel steps one rank call took (see :func:`spied_kernel`), by
#: branch. A single term has no candidates, and a repeated longest term
#: skips the bound: both go straight to the completion.
BRANCHES = {
    ("candidates", "bound"): "bounded",
    ("candidates", "bound", "completion"): "bound not below",
    ("candidates", "completion"): "fewer than k",
    ("no candidates", "completion"): "single term",
    ("no candidates", "repeated completion"): "single repeated term",
    ("candidates", "repeated completion"): "repeated longest",
}


@contextmanager
def spied_kernel():
    """Record each step the kernel takes: "candidates" (or "no
    candidates") for the candidate accumulation, "bound" for a look at
    the longest list's bound, "completion" (or "repeated completion",
    for a longest term that occurs more than once) for the rest of the
    longest list."""
    steps: List[str] = []
    scores, bound = SearchEngine._scores, SearchEngine._bound
    complete = SearchEngine._complete

    def spy_scores(self, query_terms, longest):
        candidates = scores(self, query_terms, longest)
        steps.append("candidates" if candidates else "no candidates")
        return candidates

    def spy_bound(self, term):
        steps.append("bound")
        return bound(self, term)

    def spy_complete(self, candidates, longest, repeats):
        steps.append("completion" if repeats == 1 else "repeated completion")
        return complete(self, candidates, longest, repeats)

    with patch.object(SearchEngine, "_scores", spy_scores), \
            patch.object(SearchEngine, "_bound", spy_bound), \
            patch.object(SearchEngine, "_complete", spy_complete):
        yield steps


def rank_with_branch(engine, terms, topk):
    """The keys *engine* ranks for *terms*, and the branch it took."""
    with spied_kernel() as steps:
        keys = engine.rank_terms(terms, topk)
    return keys, BRANCHES.get(tuple(steps), "no indexed term")


@st.composite
def skewed_corpora(draw):
    """One frequent term in most documents, so it has the longest
    posting list, rare terms in a few, and filler terms that spread the
    norms. Some documents hold the frequent term alone, the best score
    its list can give, and some hold a rare term diluted by fillers,
    weak candidates, so the bound sometimes reaches the page. A
    document may repeat under another id, so exact ties straddle slot
    k. Ids are distinct and the documents come in shuffled, descending
    or ascending doc-id order."""
    token_lists = []
    for _ in range(draw(st.integers(2, 24))):
        shape = draw(st.sampled_from(["mixed", "alone", "diluted"]))
        if shape == "diluted":
            tokens = [draw(st.sampled_from(RARE))]
            tokens += draw(st.lists(st.sampled_from(FILLER), min_size=3,
                                    max_size=8))
        else:
            tokens = [FREQUENT] * draw(st.sampled_from([1, 2, 3, 0]))
        if shape == "mixed":
            tokens += draw(st.lists(st.sampled_from(RARE), max_size=2))
            tokens += draw(st.lists(st.sampled_from(FILLER), max_size=6))
        tokens = draw(st.permutations(tokens or FILLER[:1]))
        token_lists += [tokens] * draw(st.integers(1, 2))
    step = draw(st.integers(1, 5))
    doc_ids = [step * index for index in range(len(token_lists))]
    order = draw(st.sampled_from(["shuffled", "descending", "ascending"]))
    if order == "shuffled":
        doc_ids = draw(st.permutations(doc_ids))
    elif order == "descending":
        doc_ids.reverse()
    return [Document(doc_id=doc_id, url=f"https://web.example/s/{doc_id}",
                     topic="s", tokens=tuple(tokens))
            for doc_id, tokens in zip(doc_ids, token_lists)]


#: One to three other terms and the frequent term once, twice or not.
skewed_terms = st.tuples(
    st.lists(st.sampled_from(RARE + FILLER[:2] + UNKNOWN[:1]), min_size=1,
             max_size=3),
    st.sampled_from([1, 2, 0])).flatmap(
        lambda drawn: st.permutations(drawn[0] + [FREQUENT] * drawn[1]))
SKEWED_TOPKS = [1, 3, 10, 100]  # 100 exceeds every candidate set


def documents_of(*token_lists, doc_ids=None):
    doc_ids = range(len(token_lists)) if doc_ids is None else doc_ids
    return [Document(doc_id=doc_id, url=f"https://web.example/h/{doc_id}",
                     topic="h", tokens=tuple(tokens.split()))
            for doc_id, tokens in zip(doc_ids, token_lists)]


#: Three long documents hold the frequent term and score low on it.
LONG = ["common a b c", "common d e f", "common g h i"]
#: Every term weighs 1.0, so scores are exact fractions of square roots.
UNIT_IDF = {term: 1.0
            for term in "common flu x y z a b c d e f g h i j k l".split()}


class TestSkipBound:
    @settings(max_examples=200, deadline=None)
    @given(documents=skewed_corpora(), terms=skewed_terms,
           topk=st.sampled_from(SKEWED_TOPKS))
    def test_rank_terms(self, documents, terms, topk):
        engine = SearchEngine(Corpus(documents=documents))
        keys, branch = rank_with_branch(engine, terms, topk)
        event(branch)
        assert exact_keys(keys) == \
            reference_keys(ReferenceEngine(documents).rank_terms(terms, topk))

    @settings(max_examples=100, deadline=None)
    @given(documents=skewed_corpora(), terms=skewed_terms,
           topk=st.sampled_from(SKEWED_TOPKS), num_shards=st.integers(2, 3))
    def test_shards_with_global_idf(self, documents, terms, topk,
                                    num_shards):
        corpus = Corpus(documents=documents)
        idf = SearchEngine.compute_idf(documents)
        shards = build_shard_engines(corpus, num_shards)
        for shard, members in zip(shards,
                                  shard_documents(corpus, num_shards)):
            keys, branch = rank_with_branch(shard, terms, topk)
            event(branch)
            assert exact_keys(keys) == reference_keys(
                ReferenceEngine(members, idf=idf).rank_terms(terms, topk))

    @pytest.mark.parametrize("token_lists, terms, topk, idf, branch", [
        # The rare term's one document beats every long one.
        pytest.param(LONG + ["flu"], ["common", "flu"], 1, None, "bounded",
                     id="bounded-longest-first"),
        pytest.param(LONG + ["flu"], ["flu", "common"], 1, None, "bounded",
                     id="bounded-longest-last"),
        # A short document holding only the frequent term wins.
        pytest.param(LONG + ["common", "flu j k l"], ["flu", "common"], 1,
                     None, "bound not below", id="bound-not-below"),
        pytest.param(LONG + ["flu"], ["common", "flu"], 3, None,
                     "fewer than k", id="fewer-than-k"),
        pytest.param(LONG + ["flu"], ["common"], 1, None, "single term",
                     id="single-term"),
        # Doubled, "common x" scores 2/sqrt(2) and beats "flu" (1.0),
        # although 1/sqrt(2), its single contribution, does not.
        pytest.param(LONG + ["common x", "flu"], ["common", "flu", "common"],
                     1, UNIT_IDF, "repeated longest",
                     id="repeated-longest"),
        pytest.param(LONG + ["flu"], ["zebra"], 1, None, "no indexed term",
                     id="no-indexed-term"),
    ])
    def test_each_branch(self, token_lists, terms, topk, idf, branch):
        documents = documents_of(*token_lists,
                                 doc_ids=range(len(token_lists), 0, -1))
        engine = SearchEngine(Corpus(documents=documents), idf=idf)
        keys, taken = rank_with_branch(engine, terms, topk)
        assert taken == branch
        assert exact_keys(keys) == reference_keys(
            ReferenceEngine(documents, idf=idf).rank_terms(terms, topk))

    def test_exact_tie_at_slot_k(self):
        """Document 0 holds only the longest term and scores 1/sqrt(2),
        bit for bit the score of document 5, the second candidate. The
        bound equals the k-th candidate score, so the completion ranks
        both, and the lower doc id takes slot k."""
        documents = documents_of("common x", *LONG, "flu", "flu y")
        engine = SearchEngine(Corpus(documents=documents), idf=UNIT_IDF)
        reference = ReferenceEngine(documents, idf=UNIT_IDF)
        ranked = reference.rank_terms(["flu", "common"], 3)
        assert [hit.doc_id for hit in ranked] == [4, 0, 5]
        assert ranked[1].score.hex() == ranked[2].score.hex()
        keys, branch = rank_with_branch(engine, ["flu", "common"], 2)
        assert branch == "bound not below"
        assert exact_keys(keys) == \
            reference_keys(reference.rank_terms(["flu", "common"], 2))

    def test_bound_skips_the_longest_list(self):
        """The guard: on a generated corpus, most multi-term calls that
        have a k-th candidate never read the rest of the longest list.
        At k = 10, 59 of the 68 calls with 10 candidates skip it; the
        other 59 multi-term calls have fewer than 10 candidates."""
        engine = SearchEngine(build_corpus(docs_per_topic=200, seed=0))
        taken = [rank_with_branch(engine, tokenize(query), 10)[1]
                 for query in workload_queries(200, seed=0)]
        bounded = taken.count("bounded")
        assert bounded > 3 * taken.count("bound not below")
        assert bounded > 40


class TestRejectedInput:
    def test_negative_topk(self):
        engine = SearchEngine(build_corpus(docs_per_topic=2, seed=1))
        with pytest.raises(ValueError):
            engine.rank_terms(["flu"], -1)

    def test_duplicate_doc_id(self):
        document = Document(doc_id=0, url="u", topic="t", tokens=("flu",))
        with pytest.raises(ValueError):
            SearchEngine(Corpus(documents=[document, document]))


def pages_digest(pages):
    """sha256 of result pages, scores as float hex."""
    encoded = json.dumps(
        [[[hit.doc_id, hit.url, hit.score.hex(), list(hit.snippet_terms)]
          for hit in page] for page in pages],
        separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


#: Recorded with the reference kernel on the engine-miss corpus size.
KNOWN_PAGES_SHA256 = (
    "89a2d516cd591ab824a6e70be748d6ae2141cf3eea9572dd223ea6adc78a17b5")
#: The two engine-miss shards' rank_terms pages, recorded with the
#: kernel that accumulated every posting list in full, when it returned
#: hits; its keys now become hits through the engine's own builder.
KNOWN_SHARD_PAGES_SHA256 = (
    "f54a85ccb2daef22292e71645935267837859039f6366f28f6f8f7900d84afa3")


@pytest.fixture(scope="module")
def engine_miss_corpus():
    return build_corpus(docs_per_topic=2000, seed=0)


def test_known_answer_pages(engine_miss_corpus):
    engine = SearchEngine(engine_miss_corpus)
    assert pages_digest(engine.search(query)
                        for query in workload_queries(200, seed=0)) == \
        KNOWN_PAGES_SHA256


def test_known_answer_shard_pages(engine_miss_corpus):
    engines = build_shard_engines(engine_miss_corpus, 2)
    plans = [tokenize(query) for query in workload_queries(200, seed=0)]
    assert pages_digest([engine._hit(key, terms)
                         for key in engine.rank_terms(terms, 10)]
                        for engine in engines for terms in plans) == \
        KNOWN_SHARD_PAGES_SHA256
