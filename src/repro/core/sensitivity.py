"""Query sensitivity analysis (§V-A).

Two independent assessments, both computed *outside* the enclave
because they only touch the local user's own data (§IV):

- **Semantic** (§V-A1): binary — does the query contain a term from a
  dictionary associated with a topic the user marked sensitive? The
  dictionary is the union of two legs: the (synthetic) WordNet domains
  and a trained LDA model's topic terms. Modes:

  * ``"wordnet"``  — one dictionary hit flags the query (high recall,
    poor precision: WordNet's polysemy tags neutral terms too);
  * ``"lda"``      — one LDA-dictionary hit flags the query;
  * ``"combined"`` — corroboration: a query is flagged when it hits a
    *core* (high-probability) LDA term, has two LDA hits, or has one
    LDA hit confirmed by a WordNet hit. Demanding corroboration for
    weak single-term evidence trades a little of LDA's recall for the
    best precision — Table II's third row.

  Both dictionaries are built after removing an *extended stoplist* of
  web-search glue words ("free", "best", "pictures", ...), exactly as
  a Mallet-style pipeline strips corpus-frequent function words; glue
  words carry no topical signal and would otherwise flag most queries.

- **Linkability** (§V-A2): a score in [0, 1] — cosine similarity of the
  query's binary term vector against each of the user's past queries,
  ranked ascending and exponentially smoothed, so the aggregate is
  dominated by the closest matches.

The linkability assessor keeps an incremental inverted index
(term → history entries containing it), the same structure the
SimAttack adversary builds over whole profile corpora
(:mod:`repro.attacks.simattack`): scoring touches only the history
entries that share a term with the query — the only entries with a
non-zero cosine — instead of scanning the full history, while
returning bit-identical scores (see :meth:`LinkabilityAssessor.score`
and the reference :meth:`LinkabilityAssessor.score_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.text.smoothing import exponential_smoothing, smoothed_similarity
from repro.text.stem import porter_stem
from repro.text.tokenize import stemmed_terms, tokenize
from repro.text.vectorize import cosine_binary, query_vector


@dataclass(frozen=True)
class SensitivityReport:
    """Outcome of the two-dimensional assessment for one query."""

    query: str
    semantic_sensitive: bool
    linkability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.linkability <= 1.0:
            raise ValueError("linkability must be in [0, 1]")


class SemanticAssessor:
    """Dictionary-based semantic sensitivity tagging.

    Build one with explicit dictionaries, or via :meth:`from_resources`
    from a :class:`~repro.text.wordnet.SyntheticWordNet` and/or a
    fitted :class:`~repro.text.lda.LdaModel`.
    """

    MODES = ("wordnet", "lda", "combined")

    def __init__(self, wordnet_terms: Iterable[str] = (),
                 lda_terms: Iterable[str] = (),
                 lda_core_terms: Iterable[str] = (),
                 mode: str = "combined",
                 wordnet_min_hits: int = 1,
                 stem_dictionaries: bool = True,
                 exclude_terms: Optional[Iterable[str]] = None) -> None:
        # wordnet_min_hits: dictionary hits required to flag a query in
        # "wordnet" mode. The default is 1 — the paper's single-hit
        # tagging rule, and the behaviour every existing caller
        # observed while the threshold was stored but never consulted.
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.mode = mode
        self.wordnet_min_hits = max(1, wordnet_min_hits)
        normalise = porter_stem if stem_dictionaries else (lambda t: t)
        self._stem = stem_dictionaries
        if exclude_terms is None:
            from repro.datasets.vocabulary import GENERAL_TERMS

            exclude_terms = GENERAL_TERMS
        excluded = frozenset(normalise(term) for term in exclude_terms)
        self.wordnet_terms: FrozenSet[str] = frozenset(
            normalise(term) for term in wordnet_terms) - excluded
        self.lda_terms: FrozenSet[str] = frozenset(
            normalise(term) for term in lda_terms) - excluded
        self.lda_core_terms: FrozenSet[str] = frozenset(
            normalise(term) for term in lda_core_terms) - excluded

    @classmethod
    def from_resources(cls, wordnet=None, lda_model=None,
                       sensitive_topics: Optional[Tuple[str, ...]] = None,
                       mode: str = "combined",
                       lda_topn: int = 90,
                       lda_topn_core: int = 50,
                       wordnet_min_hits: int = 1) -> "SemanticAssessor":
        """Build dictionaries from the lexical resources (§V-F).

        *lda_topn* sizes the broad LDA dictionary; *lda_topn_core* the
        high-confidence core used by the combined corroboration rule.
        """
        wordnet_terms: Set[str] = set()
        if wordnet is not None:
            if sensitive_topics is None:
                wordnet_terms = set(wordnet.sensitive_dictionary())
            else:
                wordnet_terms = set(
                    wordnet.sensitive_dictionary(tuple(sensitive_topics)))
        lda_terms: Set[str] = set()
        lda_core_terms: Set[str] = set()
        if lda_model is not None:
            lda_terms = set(lda_model.term_dictionary(topn_per_topic=lda_topn))
            lda_core_terms = set(
                lda_model.term_dictionary(topn_per_topic=lda_topn_core))
        return cls(wordnet_terms=wordnet_terms, lda_terms=lda_terms,
                   lda_core_terms=lda_core_terms,
                   mode=mode, wordnet_min_hits=wordnet_min_hits)

    def _query_terms(self, query: str) -> Sequence[str]:
        if self._stem:
            # Memoized tokenise+stem (repro.text.cache): repeated
            # queries skip the whole text pipeline.
            return stemmed_terms(query)
        return tokenize(query)

    def is_sensitive(self, query: str) -> bool:
        """Binary semantic assessment of one query."""
        terms = self._query_terms(query)
        if not terms:
            return False
        wordnet_hits = sum(1 for term in terms if term in self.wordnet_terms)
        lda_hits = sum(1 for term in terms if term in self.lda_terms)
        if self.mode == "wordnet":
            return wordnet_hits >= self.wordnet_min_hits
        if self.mode == "lda":
            return lda_hits >= 1
        # combined: corroboration — a high-confidence core LDA term, two
        # broad LDA hits, or one LDA hit confirmed by WordNet. Weak
        # single-term evidence is no longer enough, which is where the
        # precision gain over LDA-alone comes from (Table II, row 3).
        core_hits = sum(1 for term in terms if term in self.lda_core_terms)
        if core_hits >= 1 or lda_hits >= 2:
            return True
        return lda_hits >= 1 and wordnet_hits >= 1


class LinkabilityAssessor:
    """Similarity of a query to the user's own past queries (§V-A2).

    Backed by an incremental inverted index: :meth:`record` appends the
    query's terms to per-term postings lists, and :meth:`score` visits
    only the history entries sharing at least one term with the query.
    Entries sharing no term have cosine exactly 0.0 and enter the
    exponentially-smoothed aggregate only through their *count* (they
    occupy the low end of the ascending ranking), so the indexed score
    is bit-identical to the O(history) scan it replaces —
    :meth:`score_linear` keeps that reference implementation for
    equivalence tests and the index-speedup floor. Every recorded
    query stays in the history, as the paper assumes.

    Parameters
    ----------
    alpha:
        Exponential-smoothing factor of the ranked aggregate.
    history:
        Pre-CYCLOSA queries to preload (every entry counts toward the
        ranking, even ones that vectorize to nothing — matching the
        original constructor).
    """

    def __init__(self, alpha: float = 0.5,
                 history: Sequence[str] = ()) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        #: history entries' binary term vectors, oldest first.
        self._vectors: List[FrozenSet[str]] = []
        #: term -> ascending indices of history entries containing it.
        self._postings: Dict[str, List[int]] = {}
        for text in history:
            self._append(query_vector(text))

    def __len__(self) -> int:
        return len(self._vectors)

    def _append(self, vector: FrozenSet[str]) -> None:
        index = len(self._vectors)
        self._vectors.append(vector)
        postings = self._postings
        for term in vector:
            postings.setdefault(term, []).append(index)

    def record(self, query: str) -> None:
        """Append a query the user actually issued to the local history."""
        vector = query_vector(query)
        if vector:
            self._append(vector)

    def score(self, query: str) -> float:
        """Linkability in [0, 1]; 0.0 with no history (a fresh profile
        cannot be linked to anything).

        Index walk instead of history scan: accumulate per-entry term
        overlaps from the postings of the query's terms, turn them into
        the non-zero cosines, and smooth. Entries never touched have
        cosine 0.0; ranked ascending they precede every non-zero value
        and leave the running smoothed value at exactly 0.0, so only
        *whether* zeros exist matters — reproduced here by seeding the
        recurrence with 0.0 whenever fewer entries overlap than exist.
        """
        vector = query_vector(query)
        total = len(self._vectors)
        if not vector or not total:
            return 0.0
        overlaps: Dict[int, int] = {}
        postings_get = self._postings.get
        for term in vector:
            for index in postings_get(term, ()):
                overlaps[index] = overlaps.get(index, 0) + 1
        qlen = len(vector)
        vectors = self._vectors
        similarities = [
            count / math.sqrt(qlen * len(vectors[index]))
            for index, count in overlaps.items()
        ]
        similarities.sort()
        if len(similarities) < total:
            # At least one zero-cosine entry ranks first: the smoothing
            # recurrence reaches the non-zero tail with value 0.0.
            alpha = self.alpha
            beta = 1.0 - alpha
            smoothed = 0.0
            for value in similarities:
                smoothed = alpha * value + beta * smoothed
        else:
            # No zeros: the smallest non-zero seeds the recurrence.
            smoothed = exponential_smoothing(similarities, alpha=self.alpha)
        return min(1.0, max(0.0, smoothed))

    def score_linear(self, query: str) -> float:
        """The pre-index reference: cosine against *every* history
        entry, then :func:`~repro.text.smoothing.smoothed_similarity`.
        O(history); kept for equivalence tests and the index-speedup
        floor (``benchmarks/test_bench_pipeline.py``)."""
        vector = query_vector(query)
        if not vector or not self._vectors:
            return 0.0
        similarities = (
            cosine_binary(vector, past) for past in self._vectors
        )
        return min(1.0, max(0.0, smoothed_similarity(
            similarities, alpha=self.alpha)))


class SensitivityAnalysis:
    """The full §V-A pipeline: semantic + linkability for one user."""

    def __init__(self, semantic: SemanticAssessor,
                 linkability: LinkabilityAssessor) -> None:
        self.semantic = semantic
        self.linkability = linkability

    def assess(self, query: str) -> SensitivityReport:
        return SensitivityReport(
            query=query,
            semantic_sensitive=self.semantic.is_sensitive(query),
            linkability=self.linkability.score(query),
        )

    def remember(self, *queries: str) -> None:
        """Record issued queries, in order, so future linkability sees
        them (a whole history in one call, or one query at a time)."""
        for query in queries:
            self.linkability.record(query)
