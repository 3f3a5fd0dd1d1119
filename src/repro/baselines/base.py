"""Common interface of the analytic baseline pipelines.

An analytic system answers two questions per user query:

1. :meth:`PrivateSearchSystem.protect` — what does the search engine
   *observe*? A list of :class:`EngineObservation`: the network
   identity each message arrives from, its text (possibly an
   OR-aggregated group), and ground-truth annotations used only by the
   metrics.
2. :meth:`PrivateSearchSystem.results_for` — what does the *user* get
   back after the system's response handling (forwarding, filtering,
   merging)? A ranked list of result URLs, compared against the
   unprotected engine answer by the accuracy metrics (Fig 6).

Each system also declares its :class:`AttackSurface` — which SimAttack
variant applies (§VIII-A evaluates each system against the attack that
matches its protection model) — and its Table I property row.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.searchengine.engine import OR_SEPARATOR, SearchEngine
from repro.text.tokenize import tokenize


class AttackSurface(enum.Enum):
    """Which re-identification game the adversary plays (§VII-E)."""

    #: Engine knows the user; no fakes (Direct) or fakes under the same
    #: identity (TrackMeNot): attacker separates real from fake.
    IDENTIFIED = "identified"
    #: Engine knows the user; one OR-group per query (GooPIR): attacker
    #: picks the real sub-query out of the group.
    GROUP_IDENTIFIED = "group_identified"
    #: Anonymous OR-group (PEAS, X-Search): attacker must pick the real
    #: sub-query *and* the originating user.
    GROUP_ANONYMOUS = "group_anonymous"
    #: Individually delivered anonymous queries (TOR, CYCLOSA):
    #: attacker attributes every arriving query to a user profile.
    ANONYMOUS_SINGLE = "anonymous_single"


@dataclass(frozen=True)
class EngineObservation:
    """One message as the engine sees it, plus evaluation ground truth."""

    identity: str
    text: str
    #: Ground truth (never read by attack code): the user whose real
    #: query this observation protects.
    true_user: str
    is_fake: bool = False
    #: For OR-groups: index of the real sub-query within ``text``.
    real_index: Optional[int] = None
    group_id: Optional[int] = None

    def subqueries(self) -> List[str]:
        """Split an OR-aggregated observation into its sub-queries."""
        if OR_SEPARATOR in self.text:
            return self.text.split(OR_SEPARATOR)
        return [self.text]


class PrivateSearchSystem(abc.ABC):
    """Base class of the analytic pipelines."""

    #: Display name, matching the paper's figures.
    name: str = "abstract"
    #: Which attack variant evaluates this system.
    attack_surface: AttackSurface = AttackSurface.IDENTIFIED
    #: Table I row: the properties the system is designed to provide.
    properties: Dict[str, bool] = {
        "unlinkability": False,
        "indistinguishability": False,
        "accuracy": False,
        "scalability": False,
    }

    def __init__(self) -> None:
        self._group_ids = itertools.count(1)

    @abc.abstractmethod
    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        """Process one user query; return the engine-side observations."""

    def results_for(self, engine: SearchEngine, query: str,
                    observations: List[EngineObservation]) -> List[str]:
        """URLs shown to the user. Default: the real query is served
        unmodified on its own (perfect accuracy systems)."""
        return [hit.url for hit in engine.search(query)]

    def next_group_id(self) -> int:
        return next(self._group_ids)


def or_aggregate(real_query: str, fakes: List[str], rng) -> "tuple[str, int]":
    """Build ``f1 OR .. OR q OR .. OR fk`` with the real query at a
    random position; returns (text, real_index)."""
    parts = list(fakes)
    index = rng.randrange(len(parts) + 1)
    parts.insert(index, real_query)
    return OR_SEPARATOR.join(parts), index


def filter_by_query_terms(query: str, hits: List[dict]) -> List[str]:
    """Client/proxy-side response filtering for OR systems (§II-A3):
    keep results whose visible text (title + snippet) contains at least
    one term of the original query; return their URLs in rank order."""
    query_terms = set(tokenize(query))
    kept = []
    for hit in hits:
        visible_terms = set(hit.get("title", ())) | set(hit.get("snippet", ()))
        if query_terms & visible_terms:
            kept.append(hit["url"])
    return kept


def hits_as_dicts(engine: SearchEngine, query: str) -> List[dict]:
    """Run *query* and package its hits as dicts for the analytic
    pipelines' filtering.

    Unlike the network engine node's page dicts (``doc_id``, ``url``,
    ``score``, ``title``), these also carry the hit's ``snippet`` terms,
    so :func:`filter_by_query_terms` keeps more here than the network
    X-Search proxy does (ROADMAP item 4 records the difference; making
    them agree moves Fig 8a).
    """
    return [
        {
            "doc_id": hit.doc_id,
            "url": hit.url,
            "score": hit.score,
            "title": list(engine.document(hit.doc_id).title_terms),
            "snippet": list(hit.snippet_terms),
        }
        for hit in engine.search(query)
    ]
