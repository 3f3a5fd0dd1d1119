"""PEAS: proxy + issuer with co-occurrence fakes (§II-A2, Fig 2c).

Two non-colluding servers: the *proxy* knows who is asking but sees
only ciphertext; the *issuer* sees the query but not the user. The
issuer aggregates the real query with ``k`` fakes generated from a
co-occurrence matrix of terms it builds from *all* users' past queries
— syntactically much closer to real queries than RSS/dictionary fakes,
hence PEAS's better Fig 5 score; still synthetic, hence worse than
X-Search/CYCLOSA whose fakes are verbatim real queries.

The engine-side identity for every query is the issuer's address: a
single choke point — the scalability failure Fig 8d demonstrates.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
    filter_by_query_terms,
    hits_as_dicts,
    or_aggregate,
)
from repro.searchengine.engine import SearchEngine
from repro.text.tokenize import tokenize


class CooccurrenceModel:
    """The issuer's term co-occurrence matrix.

    Built online from the queries flowing through the issuer. A fake is
    synthesised by a weighted walk: seed term ∝ unigram frequency, each
    next term ∝ co-occurrence with the previous one.
    """

    def __init__(self, rng) -> None:
        self._rng = rng
        self._unigrams: Dict[str, int] = {}
        self._pairs: Dict[str, Dict[str, int]] = {}

    def observe(self, query: str) -> None:
        terms = tokenize(query)
        for term in terms:
            self._unigrams[term] = self._unigrams.get(term, 0) + 1
        for a in terms:
            for b in terms:
                if a != b:
                    self._pairs.setdefault(a, {})[b] = (
                        self._pairs.get(a, {}).get(b, 0) + 1)

    def __len__(self) -> int:
        return len(self._unigrams)

    def _weighted_choice(self, weights: Dict[str, int]) -> str:
        total = sum(weights.values())
        threshold = self._rng.random() * total
        running = 0.0
        for term, weight in weights.items():
            running += weight
            if running >= threshold:
                return term
        return next(iter(weights))

    def generate_fake(self, length: int, teleport: float = 0.75) -> str:
        """Synthesise one fake query of roughly *length* terms.

        *teleport* is the probability of restarting from the unigram
        model instead of following a co-occurrence edge. It models what
        makes PEAS fakes weaker than verbatim past queries (X-Search,
        CYCLOSA): the generator blends term statistics *across* users,
        so a synthetic fake rarely matches any single profile as well
        as a real query does — the reason Fig 5 ranks PEAS above
        (worse than) X-Search.
        """
        if not self._unigrams:
            return "popular search"
        terms = [self._weighted_choice(self._unigrams)]
        while len(terms) < length:
            neighbours = self._pairs.get(terms[-1])
            if neighbours and self._rng.random() >= teleport:
                candidate = self._weighted_choice(neighbours)
            else:
                candidate = self._weighted_choice(self._unigrams)
            if candidate not in terms:
                terms.append(candidate)
            else:
                candidate = self._weighted_choice(self._unigrams)
                if candidate not in terms:
                    terms.append(candidate)
                else:
                    break
        return " ".join(terms)


class Peas(PrivateSearchSystem):
    """Proxy + issuer, OR-aggregation, co-occurrence fakes."""

    name = "PEAS"
    attack_surface = AttackSurface.GROUP_ANONYMOUS
    properties = {
        "unlinkability": True,
        "indistinguishability": True,
        "accuracy": False,
        "scalability": False,
    }

    #: The single engine-facing identity (the issuer's address).
    ISSUER_IDENTITY = "peas-issuer"

    def __init__(self, k: int = 3, seed: int = 0) -> None:
        super().__init__()
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self._rng = random.Random(seed)
        self.cooccurrence = CooccurrenceModel(self._rng)

    def prime(self, past_queries: List[str]) -> None:
        """Feed historical traffic into the issuer's matrix (the paper's
        issuer has seen other users' queries before the attack window)."""
        for query in past_queries:
            self.cooccurrence.observe(query)

    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        width = max(1, len(tokenize(query)))
        fakes = []
        for _ in range(self.k):
            fake = self.cooccurrence.generate_fake(width)
            for _attempt in range(5):
                if fake != query:
                    break
                # Never emit the protected query itself as a fake.
                fake = self.cooccurrence.generate_fake(width)
            fakes.append(fake)
        # The issuer observes the (real) query *after* generating fakes
        # for it — fakes never echo the query they protect.
        self.cooccurrence.observe(query)
        text, real_index = or_aggregate(query, fakes, self._rng)
        return [EngineObservation(
            identity=self.ISSUER_IDENTITY, text=text, true_user=user_id,
            real_index=real_index, group_id=self.next_group_id())]

    def results_for(self, engine: SearchEngine, query: str,
                    observations: List[EngineObservation]) -> List[str]:
        """Engine answers the OR group; filtering happens client-side
        (the issuer cannot filter — it must not learn which sub-query
        mattered... it generated the fakes, but PEAS filters at the
        client per §II-A3)."""
        hits = hits_as_dicts(engine, observations[0].text)
        return filter_by_query_terms(query, hits)
