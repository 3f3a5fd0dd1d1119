"""Synthetic AOL-like query log.

The real AOL log (Pass et al. 2006) cannot be redistributed, so this
generator reproduces the statistical structure the evaluation depends
on:

- **Skewed activity**: per-user query counts follow a log-normal with a
  heavy tail; "most active users" are well defined (§VII-B studies the
  most active/most exposed users).
- **Distinctive interest profiles**: each user draws a Dirichlet
  mixture over a small set of preferred topics *and* a user-specific
  Zipf permutation over each topic's vocabulary. Users therefore reuse
  their own favourite terms across queries — exactly the regularity
  SimAttack exploits to re-identify anonymous queries.
- **Calibrated sensitivity**: each query is generated from a known
  topic, so ground-truth sensitivity labels come for free; the expected
  fraction of sensitive queries is calibrated to the paper's
  crowd-sourcing result of 15.74 % (§VII-C).
- **Timestamps** spread over a three-month window, Poisson per user.

Determinism: the full log is a pure function of the generator
parameters and the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.datasets.vocabulary import (
    GENERAL_TERMS,
    NEUTRAL_TOPICS,
    SENSITIVE_TOPICS,
    TopicVocabulary,
    build_topic_vocabularies,
)

# Paper §VII-C: the crowd-sourcing campaign found 15.74 % of queries
# relate to sensitive topics.
PAPER_SENSITIVE_RATE = 0.1574

LOG_WINDOW_SECONDS = 90 * 24 * 3600.0  # three months, as in the AOL log


@dataclass(frozen=True)
class QueryRecord:
    """One query in the log, with ground-truth labels."""

    query_id: int
    user_id: str
    timestamp: float
    text: str
    topic: str
    is_sensitive: bool


@dataclass
class UserModel:
    """The latent preferences one synthetic user queries from."""

    user_id: str
    topic_weights: Dict[str, float]
    term_preferences: Dict[str, List[str]]  # topic -> user-ordered vocab
    sensitive_probability: float
    num_queries: int


@dataclass
class SyntheticAolLog:
    """A generated query log plus per-user indexes."""

    records: List[QueryRecord]
    users: List[str]
    _by_user: Dict[str, List[QueryRecord]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_user:
            for record in self.records:
                self._by_user.setdefault(record.user_id, []).append(record)
            for queries in self._by_user.values():
                queries.sort(key=lambda r: r.timestamp)

    def queries_of(self, user_id: str) -> List[QueryRecord]:
        """All queries of one user, time-ordered."""
        return list(self._by_user.get(user_id, []))

    def most_active_users(self, count: int) -> List[str]:
        """User ids sorted by descending query volume."""
        ranked = sorted(self._by_user, key=lambda u: len(self._by_user[u]),
                        reverse=True)
        return ranked[:count]

    def sensitive_rate(self) -> float:
        """Observed fraction of sensitive queries (≈ 0.1574 by default)."""
        if not self.records:
            return 0.0
        return sum(r.is_sensitive for r in self.records) / len(self.records)


def _zipf_weights(count: int, exponent: float) -> List[float]:
    weights = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _sample_weighted(rng: random.Random, items: Sequence,
                     cumulative: List[float]):
    """Draw from *items* under precomputed cumulative weights."""
    u = rng.random() * cumulative[-1]
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return items[lo]


def _build_user(rng: random.Random, user_id: str,
                vocabularies: Dict[str, TopicVocabulary],
                mean_queries: float, sensitive_rate: float,
                topics_per_user: int, zipf_exponent: float,
                exploration_rate: float) -> UserModel:
    # Activity: log-normal around the mean with a heavy upper tail.
    num_queries = max(5, int(mean_queries * math.exp(0.9 * rng.gauss(0, 1))))

    # Interests: a few preferred neutral topics with Dirichlet-ish weights.
    preferred = rng.sample(list(NEUTRAL_TOPICS), k=topics_per_user)
    raw = [rng.gammavariate(1.2, 1.0) for _ in preferred]
    total = sum(raw)
    topic_weights = {topic: w / total for topic, w in zip(preferred, raw)}

    # Sensitive interest: one sensitive topic per user; the per-query
    # probability of drawing it is jittered around the target rate so
    # the population average calibrates to the paper's 15.74 %.
    # Exploration queries (below) are always neutral, so the in-profile
    # rate is scaled up to keep the *overall* rate on target.
    sensitive_topic = rng.choice(list(SENSITIVE_TOPICS))
    adjusted_rate = sensitive_rate / max(1e-9, 1.0 - exploration_rate)
    p_sensitive = min(0.9, max(0.01, rng.gauss(adjusted_rate, 0.05)))
    topic_weights = {
        topic: weight * (1.0 - p_sensitive)
        for topic, weight in topic_weights.items()
    }
    topic_weights[sensitive_topic] = p_sensitive

    # Per-user Zipf permutation of each relevant topic vocabulary: this
    # is what makes users re-identifiable — two health-interested users
    # favour *different* health terms.
    term_preferences: Dict[str, List[str]] = {}
    for topic in topic_weights:
        terms = list(vocabularies[topic].terms)
        rng.shuffle(terms)
        term_preferences[topic] = terms

    return UserModel(
        user_id=user_id,
        topic_weights=topic_weights,
        term_preferences=term_preferences,
        sensitive_probability=p_sensitive,
        num_queries=num_queries,
    )


def _generate_query_text(rng: random.Random, user: UserModel, topic: str,
                         zipf_cumulative: List[float]) -> str:
    vocabulary = user.term_preferences[topic]
    # 1-4 topic terms, geometric length distribution.
    length = 1
    while length < 4 and rng.random() < 0.45:
        length += 1
    terms = []
    seen = set()
    for _ in range(length):
        term = _sample_weighted(rng, vocabulary, zipf_cumulative)
        if term not in seen:
            seen.add(term)
            terms.append(term)
    if rng.random() < 0.3:
        terms.append(rng.choice(GENERAL_TERMS))
    return " ".join(terms)


def generate_aol_log(num_users: int = 198,
                     mean_queries_per_user: float = 120.0,
                     sensitive_rate: float = PAPER_SENSITIVE_RATE,
                     topics_per_user: int = 3,
                     zipf_exponent: float = 1.2,
                     exploration_rate: float = 0.22,
                     seed: int = 0) -> SyntheticAolLog:
    """Generate a synthetic AOL-like log.

    Parameters
    ----------
    num_users:
        Number of users. The paper extracts 198 most-active users with
        at least one sensitive query (§VII-B); that is the default.
    mean_queries_per_user:
        Mean of the per-user activity distribution. The paper's subset
        averages ≈ 730 queries/user (487.6 training + testing); smaller
        defaults keep tests fast — experiments pass larger values.
    sensitive_rate:
        Target expected fraction of sensitive queries (§VII-C: 0.1574).
    topics_per_user:
        Preferred neutral topics per user (interest diversity).
    zipf_exponent:
        Skew of per-user term preferences; higher = more distinctive
        users = easier re-identification.
    exploration_rate:
        Probability a query is *exploratory*: a fresh neutral topic
        sampled uniformly rather than from the user's preferences.
        Exploratory queries are what make ~25 % of real traffic
        unlinkable to any profile (the k = 0 mass of Fig 7 and the
        ceiling on every re-identification attack).
    seed:
        Generator seed; the log is a pure function of the parameters.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    rng = random.Random(seed)
    vocabularies = build_topic_vocabularies()

    if not 0.0 <= exploration_rate < 1.0:
        raise ValueError("exploration_rate must be in [0, 1)")
    users = [f"u{i:04d}" for i in range(num_users)]
    models = [
        _build_user(rng, user_id, vocabularies, mean_queries_per_user,
                    sensitive_rate, topics_per_user, zipf_exponent,
                    exploration_rate)
        for user_id in users
    ]

    # Zipf cumulative weights are shared (same vocab sizes per topic
    # after expansion differ slightly; compute per size, cached).
    zipf_cache: Dict[int, List[float]] = {}

    def cumulative_for(size: int) -> List[float]:
        if size not in zipf_cache:
            weights = _zipf_weights(size, zipf_exponent)
            cumulative = []
            running = 0.0
            for w in weights:
                running += w
                cumulative.append(running)
            zipf_cache[size] = cumulative
        return zipf_cache[size]

    records: List[QueryRecord] = []
    query_id = 0
    for user in models:
        topics = list(user.topic_weights)
        weights = [user.topic_weights[t] for t in topics]
        cumulative_topics = []
        running = 0.0
        for w in weights:
            running += w
            cumulative_topics.append(running)
        for _ in range(user.num_queries):
            if rng.random() < exploration_rate:
                # Exploration: a one-off interest outside the profile.
                topic = rng.choice(list(NEUTRAL_TOPICS))
                vocabulary = vocabularies[topic].terms
                length = 1 + (rng.random() < 0.45) + (rng.random() < 0.2)
                terms = rng.sample(list(vocabulary),
                                   k=min(length, len(vocabulary)))
                if rng.random() < 0.3:
                    terms.append(rng.choice(GENERAL_TERMS))
                text = " ".join(terms)
            else:
                topic = _sample_weighted(rng, topics, cumulative_topics)
                text = _generate_query_text(
                    rng, user, topic,
                    cumulative_for(len(user.term_preferences[topic])))
            timestamp = rng.uniform(0.0, LOG_WINDOW_SECONDS)
            records.append(QueryRecord(
                query_id=query_id,
                user_id=user.user_id,
                timestamp=timestamp,
                text=text,
                topic=topic,
                is_sensitive=topic in SENSITIVE_TOPICS,
            ))
            query_id += 1

    records.sort(key=lambda r: r.timestamp)
    return SyntheticAolLog(records=records, users=users)
