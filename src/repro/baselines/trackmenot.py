"""TrackMeNot: RSS-feed fake queries (§II-A2, Fig 2a).

The browser extension sends fake queries *under the user's own
identity*; over time the engine-side profile mixes real and fake
interests. Its periodic background stream is modelled as a fixed
number of fakes per real query (:class:`TrackMeNot`). Two weaknesses
the paper measures:

- no unlinkability: the engine still knows exactly who queries;
- fakes come from RSS feeds, whose vocabulary rarely matches the
  user's actual interests — SimAttack separates real from fake easily
  (≈45 % of real queries retrieved, Fig 5).

The RSS feed is synthesised from headline-ish combinations of *seed*
terms of the neutral topics plus news glue words — deliberately a
different distribution from any user's personal Zipf preferences.
"""

from __future__ import annotations

import random
from typing import List

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
)
from repro.datasets.vocabulary import NEUTRAL_TOPICS, build_topic_vocabularies

_HEADLINE_GLUE = [
    "breaking", "report", "update", "announces", "latest", "today",
    "exclusive", "analysis", "reveals", "statement",
]


class RssFeedSource:
    """A stream of headline-derived fake queries."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        vocabularies = build_topic_vocabularies()
        self._seed_terms: List[str] = []
        for topic in NEUTRAL_TOPICS:
            self._seed_terms.extend(vocabularies[topic].seeds)

    def next_fake(self) -> str:
        length = self._rng.choice([2, 2, 3])
        terms = self._rng.sample(self._seed_terms, length)
        if self._rng.random() < 0.5:
            terms.insert(self._rng.randrange(len(terms) + 1),
                         self._rng.choice(_HEADLINE_GLUE))
        return " ".join(terms)


class TrackMeNot(PrivateSearchSystem):
    """Fake queries under the user's own identity.

    *fakes_per_query* models the extension's background query rate
    relative to the user's real search rate (TMN defaults to one fake
    every few minutes; ≈3 fakes per real query at typical usage).
    """

    name = "TrackMeNot"
    attack_surface = AttackSurface.IDENTIFIED
    properties = {
        "unlinkability": False,
        "indistinguishability": True,
        "accuracy": True,
        "scalability": True,
    }

    def __init__(self, fakes_per_query: int = 3, seed: int = 0) -> None:
        super().__init__()
        if fakes_per_query < 0:
            raise ValueError("fakes_per_query must be >= 0")
        self.fakes_per_query = fakes_per_query
        self._feed = RssFeedSource(seed=seed)

    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        observations = [EngineObservation(
            identity=user_id, text=query, true_user=user_id)]
        for _ in range(self.fakes_per_query):
            observations.append(EngineObservation(
                identity=user_id, text=self._feed.next_fake(),
                true_user=user_id, is_fake=True))
        return observations
