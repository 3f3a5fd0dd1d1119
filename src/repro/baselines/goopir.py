"""GooPIR: OR-aggregation with dictionary fakes (§II-A2, Fig 2b).

Each real query is merged with ``k`` fake queries using the logical OR
operator and sent under the user's own identity. Fakes are drawn from a
keyword dictionary with frequencies similar to the real query's terms
(the h(k)-PIR construction of Domingo-Ferrer et al.).

Measured weaknesses (Figs 5 and 6): the engine knows the user, the
dictionary fakes are distributed differently from the user's real
interests (attacker picks the real sub-query ≈50 % of the time at
k = 7... trivially ≥ 1/(k+1) by chance), and the OR response mixes all
sub-queries' results — client-side filtering recovers the real answer
only imperfectly.
"""

from __future__ import annotations

import random
from typing import List

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
    filter_by_query_terms,
    hits_as_dicts,
    or_aggregate,
)
from repro.datasets.vocabulary import ALL_TOPICS, GENERAL_TERMS, build_topic_vocabularies
from repro.searchengine.engine import SearchEngine
from repro.text.tokenize import tokenize


class GooPir(PrivateSearchSystem):
    """OR-aggregated dictionary fakes under the user's identity."""

    name = "GooPIR"
    attack_surface = AttackSurface.GROUP_IDENTIFIED
    properties = {
        "unlinkability": False,
        "indistinguishability": True,
        "accuracy": False,
        "scalability": True,
    }

    def __init__(self, k: int = 3, seed: int = 0) -> None:
        super().__init__()
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self._rng = random.Random(seed)
        vocabularies = build_topic_vocabularies()
        # GooPIR's h(k) construction matches fake terms to the real
        # terms' frequency band. Per-topic pools keep each fake
        # *topically coherent* (frequency-matched words co-occur within
        # a domain), which is what makes them non-trivial to dismiss.
        self._topic_pools: List[List[str]] = [
            list(vocabularies[topic].terms) for topic in ALL_TOPICS
        ]

    def _fake_like(self, query: str) -> str:
        """A coherent fake with the same number of terms as the query."""
        width = max(1, len(tokenize(query, drop_stopwords=False)))
        pool = self._rng.choice(self._topic_pools)
        # Bias towards the head of the vocabulary (frequent words),
        # like the frequency-matching dictionary of the original.
        picks = []
        for _ in range(width):
            if self._rng.random() < 0.3:
                # Frequency matching pulls in the high-frequency glue
                # words real queries carry ("best", "free", ...) —
                # these overlap every profile a little, which is what
                # lets a fake occasionally outscore a weakly-linkable
                # real query.
                picks.append(self._rng.choice(GENERAL_TERMS))
                continue
            index = min(int(self._rng.expovariate(1.0 / 30.0)),
                        len(pool) - 1)
            picks.append(pool[index])
        return " ".join(picks)

    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        fakes = [self._fake_like(query) for _ in range(self.k)]
        text, real_index = or_aggregate(query, fakes, self._rng)
        return [EngineObservation(
            identity=user_id, text=text, true_user=user_id,
            real_index=real_index, group_id=self.next_group_id())]

    def results_for(self, engine: SearchEngine, query: str,
                    observations: List[EngineObservation]) -> List[str]:
        """The engine answers the OR group; the client filters by the
        original query's keywords (§II-A3)."""
        group_text = observations[0].text
        hits = hits_as_dicts(engine, group_text)
        return filter_by_query_terms(query, hits)
