"""TF-IDF ranked retrieval with optional OR-operator semantics.

The engine answers a query with its top-*k* documents under cosine
TF-IDF scoring. Two behaviours matter for the paper's accuracy argument
(§II-A3, Fig 6):

- ``or_support="native"``: ``a OR b`` returns a score-merged union of
  the sub-queries' results — the best case GooPIR/PEAS can hope for.
- ``or_support="none"``: the OR string is treated as one long bag of
  words (what §II-A3 reports real engines do), diluting the real
  query's terms among the fakes' and wrecking result relevance.

Either way the response to an OR query is a single merged list in which
the client cannot tell which document answered which sub-query — the
root cause of the correctness/completeness losses CYCLOSA avoids by
never aggregating queries.

One path builds every result page, whether one engine indexes the whole
corpus or N replicas each index one shard
(:mod:`repro.searchengine.sharding`):

1. *Plan* — :func:`query_plan` turns the query into term lists, one per
   sub-query of a native-OR query, otherwise one bag of words.
2. *Rank* — every shard ranks each term list into a partial top-k of
   ``(-score, doc_id)`` keys (:data:`RankKey`). A shard scores with
   corpus-global IDF, so a document accumulates exactly the same terms
   with exactly the same weights whichever index ranks it, and its key
   carries bit-identical scores.
3. *Merge* — :func:`merge_partials` sorts each sub-query's partial keys,
   a total order, and keeps the first k: a global top-k document is in
   its own shard's top k.
4. *Union* — :func:`or_union` merges the sub-queries' pages, each
   document at its best key. Each page is cut to the global top k
   first: a document can sneak into a small shard's partial while
   missing its sub-query's page.

:func:`result_page` runs steps 3–4 on keys alone. Hits are built once,
from the page's keys: :meth:`SearchEngine.search` runs the path over its
own ranking and builds a :class:`SearchHit` for each page key, with the
snippet of the sub-query whose score won it; a replica coordinator runs
it over its own and its siblings' partials and builds wire hits
(:mod:`repro.searchengine.node`). So the page is byte-identical at any
shard count.

The ranking kernel: each term's postings are two arrays, document ids
(``array("q")``, ascending, since the index is built in doc-id order)
and ``idf[term] * weight`` (``array("d")``), the term's whole
contribution to each document's score, computed once at index time; a
posting costs 16 bytes. A query first scores only the *candidates*, the
documents of every query term but the one with the longest list. It
copies its first list into a score dict and adds each later one in
query-term order, every occurrence of the longest cut to the candidates
it holds (found by bisection in its ids), so every candidate's score is
the same float sum a ``+=`` per posting gives. It then divides by the
document norms and finds the k-th best value with ``heapq.nlargest``. A
document outside the candidates holds the longest term alone and scores
one ``contrib / norm`` of its list, so when the largest of those (the
term's skip bound, computed on first use) is strictly below the k-th
candidate score, the page holds candidates only and the rest of the
longest list is never read. Otherwise — a tie at slot k, fewer than k
candidates (a single term has none) or a repeated longest term — the
candidate scores are *completed* with the rest of the longest list: a
document only it holds scores its ``contrib`` summed once per occurrence
of the term, left to right, exactly what ``0.0 + contrib`` and each
further ``+=`` give. Either way only the documents at or above the k-th
best value are sorted by ``(-score, doc_id)``. Keeping every tie at the
k-th value makes that order's first k entries exactly those of a full
sort, and those pairs are the ranked keys: no hit and no snippet is
built per ranking. The keys carry the doc ids and score bits of the
earlier tuple-posting, full-sort kernel's hit lists, which
``tests/searchengine/test_rank_kernel.py`` keeps as its oracle.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from itertools import chain, islice
from operator import add, attrgetter, truediv
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.searchengine.corpus import Corpus, Document
from repro.text.tokenize import tokenize

OR_SEPARATOR = " OR "


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: int
    url: str
    score: float
    snippet_terms: Tuple[str, ...]


#: A ranked document as ``(-score, doc_id)``: plain tuple order is page
#: order, the best score first and the lower doc id on a tie.
RankKey = Tuple[float, int]


def query_plan(query: str, or_support: str) -> List[List[str]]:
    """The term lists *query* is ranked by: one per sub-query of a
    native-OR query, otherwise one bag of words (a plain query, or OR
    on an engine without native support)."""
    if OR_SEPARATOR in query and or_support == "native":
        subqueries = [part for part in query.split(OR_SEPARATOR)
                      if part.strip()]
        if subqueries:
            return [tokenize(subquery) for subquery in subqueries]
    return [tokenize(query.replace(OR_SEPARATOR, " "))]


def merge_partials(partials: Sequence[Sequence[RankKey]],
                   topk: int) -> List[RankKey]:
    """Merge per-shard partial top-k keys into the global top-k.

    Byte-deterministic: keys sort in ``(-score, doc_id)`` order, the
    same total order every shard ranks under. Each document appears in
    at most one partial, so no dedup is needed.
    """
    return sorted(chain.from_iterable(partials))[:topk]


def or_union(rankings: Iterable[Sequence[RankKey]],
             topk: int) -> List[RankKey]:
    """Union of per-subquery rankings, merged by score.

    An OR query matches more documents, so the engine returns a
    proportionally larger result page (up to ``2 * topk``). The client
    still cannot tell which document answered which sub-query —
    recovering the real answer from this merged list is the filtering
    problem that costs OR systems accuracy (Fig 6). A document ranked
    by several sub-queries keeps its best score: its first key in
    sorted order. Tied keys are equal, so which sub-query won a tie
    matters only to the snippet, which :meth:`SearchEngine.search`
    takes from the first.
    """
    best: Dict[int, float] = {}
    for negated, doc_id in sorted(chain.from_iterable(rankings)):
        best.setdefault(doc_id, negated)
    # The engine's OR result page is larger than a plain page but
    # not k+1 pages: sub-queries compete for the slots. This is the
    # completeness loss OR systems pay (and it worsens with k).
    return [(negated, doc_id)
            for doc_id, negated in islice(best.items(), 2 * topk)]


def result_page(partials: Sequence[Sequence[Sequence[RankKey]]],
                topk: int) -> List[RankKey]:
    """The result page's keys from each planned sub-query's shard
    partials: every sub-query's partials merged into its global top-k,
    then, for more than one sub-query, the OR union of those pages."""
    rankings = [merge_partials(shard_partials, topk)
                for shard_partials in partials]
    if len(rankings) == 1:
        return rankings[0]
    return or_union(rankings, topk)


class SearchEngine:
    """An inverted-index TF-IDF engine over a :class:`Corpus`.

    Pass *documents* to index only a subset (one shard) and *idf* to
    score with precomputed corpus-global statistics; by default the
    engine indexes and computes statistics over the whole corpus.
    """

    def __init__(self, corpus: Corpus, results_per_query: int = 10,
                 or_support: str = "native", *,
                 documents: Optional[Sequence[Document]] = None,
                 idf: Optional[Dict[str, float]] = None) -> None:
        if or_support not in ("native", "none"):
            raise ValueError("or_support must be 'native' or 'none'")
        self.corpus = corpus
        self.results_per_query = results_per_query
        self.or_support = or_support
        # Per term: the ids of the documents that contain it and, in
        # the same order, idf[term] * weight — the term's contribution
        # to each document's score.
        self._postings: Dict[str, Tuple[array, array]] = {}
        # Per term, max(contrib / norm) over its postings, filled in by
        # _bound the first time the term is a query's longest list.
        self._bounds: Dict[str, float] = {}
        self._doc_norms: Dict[int, float] = {}
        self._documents: Dict[int, Document] = {}
        self._build_index(
            corpus.documents if documents is None else documents, idf)

    @staticmethod
    def compute_idf(documents: Sequence[Document]) -> Dict[str, float]:
        """Smoothed IDF over *documents* — the corpus-global statistics
        every shard must share for scores to stay bit-identical."""
        num_docs = len(documents)
        # Each document's distinct terms, counted in C; Counter keeps
        # first-occurrence order, so the IDF dict's order matches a
        # per-document loop's.
        term_doc_freq = Counter(chain.from_iterable(
            map(dict.fromkeys, map(attrgetter("tokens"), documents))))
        return {
            term: math.log((1 + num_docs) / (1 + df)) + 1.0
            for term, df in term_doc_freq.items()
        }

    def _build_index(self, documents: Sequence[Document],
                     idf: Optional[Dict[str, float]]) -> None:
        if idf is None:
            idf = self.compute_idf(documents)
        longest = max((len(document.tokens) for document in documents),
                      default=0)
        log_of = [0.0] + [math.log(count) for count in range(1, longest + 1)]
        postings = self._postings
        # In doc-id order, so every id array is sorted for _rank's
        # bisection.
        for document in sorted(documents, key=attrgetter("doc_id")):
            doc_id = document.doc_id
            if doc_id in self._documents:
                # The score accumulation relies on a term listing each
                # document at most once.
                raise ValueError(f"duplicate doc_id {doc_id}")
            self._documents[doc_id] = document
            norm_sq = 0.0
            # Counter keeps first-occurrence order, so the norm sums
            # the squared weights in the order the terms first occur.
            for term, count in Counter(document.tokens).items():
                term_idf = idf[term]
                weight = (1.0 + log_of[count]) * term_idf
                posting = postings.get(term)
                if posting is None:
                    posting = postings[term] = (array("q"), array("d"))
                posting[0].append(doc_id)
                posting[1].append(term_idf * weight)
                norm_sq += weight * weight
            self._doc_norms[doc_id] = math.sqrt(norm_sq) or 1.0

    # -- querying --------------------------------------------------------

    def search(self, query: str, topk: int | None = None) -> List[SearchHit]:
        """Answer *query*; handles the OR operator per ``or_support``.
        The whole index is the one shard of :func:`result_page`, and
        only the page's keys become hits, each with the snippet of the
        first sub-query that ranks it at its page score."""
        topk = topk if topk is not None else self.results_per_query
        plan = query_plan(query, self.or_support)
        rankings = [self._rank(terms, topk) for terms in plan]
        ranked_by: Dict[RankKey, Sequence[str]] = {}
        for terms, ranking in zip(plan, rankings):
            for key in ranking:
                ranked_by.setdefault(key, terms)
        return [self._hit(key, ranked_by[key])
                for key in result_page([[ranking] for ranking in rankings],
                                       topk)]

    def search_batch(self, queries: Sequence[str],
                     topk: int | None = None) -> List[List[SearchHit]]:
        """One result list per query, with duplicate queries ranked
        once. Equivalent to ``[self.search(q, topk) for q in queries]``.
        Replicas do not call it: a replica dedupes a batch's queries in
        :meth:`SearchEngineNode._serve_jobs
        <repro.searchengine.node.SearchEngineNode._serve_jobs>`. Outside
        the tests, only the benchmark's layer table (``bench/layers.py``)
        names it."""
        memo: Dict[str, List[SearchHit]] = {}
        results: List[List[SearchHit]] = []
        for query in queries:
            ranked = memo.get(query)
            if ranked is None:
                ranked = self.search(query, topk)
                memo[query] = ranked
            results.append(list(ranked))
        return results

    def rank_terms(self, terms: Sequence[str], topk: int) -> List[RankKey]:
        """Rank a pre-tokenised term list into its top-k keys — the
        partial a shard serves to scatter-gather coordinators."""
        return self._rank(terms, topk)

    def _rank(self, terms: Sequence[str], topk: int) -> List[RankKey]:
        if topk < 0:
            raise ValueError("topk must be >= 0")
        postings = self._postings
        query_terms = [t for t in terms if t in postings]
        if not query_terms or topk == 0:
            return []
        # Skip bound: score the candidates, the documents of every term
        # but the longest, first. A document outside them scores one
        # contrib / norm of the longest list alone, so when the list's
        # largest such value is strictly below the k-th candidate score
        # the page holds candidates only. Otherwise — a tie at slot k,
        # fewer than k candidates or a repeated longest term — the rest
        # of the longest list completes the scores.
        longest = max(query_terms, key=lambda term: len(postings[term][0]))
        repeats = query_terms.count(longest)
        scores = self._scores(query_terms, longest)
        if repeats == 1 and len(scores) >= topk:
            values, cut = self._kth(scores, topk)
            if self._bound(longest) < cut:
                return self._top(scores, values, cut, topk)
        scores = self._complete(scores, longest, repeats)
        values, cut = self._kth(scores, topk)
        return self._top(scores, values, cut, topk)

    def _scores(self, query_terms: Sequence[str],
                longest: str) -> Dict[int, float]:
        """The candidates' summed contributions in query-term order,
        repeated terms included, as in one += per posting: every
        occurrence of *longest* keeps its place in the order with its
        list cut to the documents of the other terms, found by
        bisection in its sorted ids."""
        postings = self._postings
        ids, contribs = postings[longest]
        end = len(ids)
        found = {}
        for doc_id in set(chain.from_iterable(
                postings[term][0] for term in query_terms
                if term != longest)):
            at = bisect_left(ids, doc_id)
            if at != end and ids[at] == doc_id:
                found[doc_id] = contribs[at]
        cut = (found.keys(), found.values())
        lists = [cut if term == longest else postings[term]
                 for term in query_terms]
        # The first list is copied in C; a plain loop adds the rest,
        # which measured faster than an update over map(add, ...) that
        # boxes every array element twice.
        ids, contribs = lists[0]
        scores = dict(zip(ids, contribs))
        get = scores.get
        for ids, contribs in lists[1:]:
            for doc_id, contrib in zip(ids, contribs):
                scores[doc_id] = get(doc_id, 0.0) + contrib
        return scores

    def _complete(self, candidates: Dict[int, float], longest: str,
                  repeats: int) -> Dict[int, float]:
        """Every document's score: the candidates' own, and for each
        document only *longest* holds, its contrib summed *repeats*
        times left to right — what 0.0 + contrib and each further +=
        give."""
        ids, contribs = self._postings[longest]
        totals: Iterable[float] = contribs
        for _ in range(repeats - 1):
            totals = map(add, totals, contribs)
        scores = dict(zip(ids, totals))
        scores.update(candidates)
        return scores

    def _kth(self, scores: Dict[int, float],
             topk: int) -> Tuple[List[float], float]:
        """Each document's score over its norm, and the k-th best."""
        values = list(map(truediv, scores.values(),
                          map(self._doc_norms.__getitem__, scores)))
        return values, nlargest(topk, values)[-1]

    def _bound(self, term: str) -> float:
        """The largest contrib / norm in *term*'s list: the best score a
        document holding no other query term can reach. Computed on the
        term's first use as the longest list."""
        bound = self._bounds.get(term)
        if bound is None:
            ids, contribs = self._postings[term]
            bound = self._bounds[term] = max(map(
                truediv, contribs, map(self._doc_norms.__getitem__, ids)))
        return bound

    @staticmethod
    def _top(scores: Dict[int, float], values: List[float], cut: float,
             topk: int) -> List[RankKey]:
        # Every document scoring at least the k-th best value, ties at
        # slot k included: the (-score, doc_id) order of these few
        # starts with the top k of a full sort.
        return sorted([(-score, doc_id)
                       for score, doc_id in zip(values, scores)
                       if score >= cut])[:topk]

    def _hit(self, key: RankKey, terms: Sequence[str]) -> SearchHit:
        """The hit of a ranked key; its snippet is the first five of
        *terms* the document holds (a term the index lacks is in no
        document)."""
        negated, doc_id = key
        document = self._documents[doc_id]
        tokens = set(document.tokens)
        return SearchHit(doc_id=doc_id, url=document.url, score=-negated,
                         snippet_terms=tuple(t for t in terms
                                             if t in tokens)[:5])

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]
