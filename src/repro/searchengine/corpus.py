"""Synthetic web corpus for the search engine.

Documents are generated per topic from the shared vocabularies: a
document about "health" mostly contains health terms, a sprinkling of
general terms, and occasional cross-topic words (which is what makes
fake-query results sometimes collide with real-query results — the
correctness loss Fig 6 measures for filtering-based systems).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Dict, List, Tuple

from repro.datasets.vocabulary import (
    ALL_TOPICS,
    GENERAL_TERMS,
    build_topic_vocabularies,
)


@dataclass(frozen=True)
class Document:
    """One indexed web page."""

    doc_id: int
    url: str
    topic: str
    tokens: Tuple[str, ...]

    @cached_property
    def title_terms(self) -> Tuple[str, ...]:
        """The first few distinct tokens act as the page title — the
        only document text a search client sees in result snippets
        (what OR-based systems filter on). Computed once per document."""
        return tuple(islice(dict.fromkeys(self.tokens), 8))


@dataclass
class Corpus:
    """A generated document collection."""

    documents: List[Document]
    _by_topic: Dict[str, List[Document]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_topic:
            for document in self.documents:
                self._by_topic.setdefault(document.topic, []).append(document)

    def __len__(self) -> int:
        return len(self.documents)

    def by_topic(self, topic: str) -> List[Document]:
        return list(self._by_topic.get(topic, []))


def build_corpus(docs_per_topic: int = 120, doc_length: int = 60,
                 cross_topic_rate: float = 0.08,
                 seed: int = 0) -> Corpus:
    """Generate a corpus covering every topic.

    Parameters
    ----------
    docs_per_topic:
        Documents per topic (12 topics → ~1.4 k documents at default).
    doc_length:
        Tokens per document.
    cross_topic_rate:
        Probability each token is borrowed from a random *other* topic —
        the polysemy/noise source that makes client-side filtering
        imperfect for OR-based systems.
    seed:
        Generator seed.
    """
    rng = random.Random(seed)
    vocabularies = build_topic_vocabularies()
    documents: List[Document] = []
    doc_id = 0
    for topic in ALL_TOPICS:
        own_terms = list(vocabularies[topic].terms)
        for _ in range(docs_per_topic):
            tokens: List[str] = []
            for _ in range(doc_length):
                roll = rng.random()
                if roll < cross_topic_rate:
                    other = rng.choice(ALL_TOPICS)
                    tokens.append(rng.choice(vocabularies[other].terms))
                elif roll < cross_topic_rate + 0.12:
                    tokens.append(rng.choice(GENERAL_TERMS))
                else:
                    # Zipf-ish skew towards the head of the topic vocab.
                    index = min(int(rng.expovariate(1.0 / 25.0)),
                                len(own_terms) - 1)
                    tokens.append(own_terms[index])
            documents.append(Document(
                doc_id=doc_id,
                url=f"https://web.example/{topic}/{doc_id}",
                topic=topic,
                tokens=tuple(tokens),
            ))
            doc_id += 1
    return Corpus(documents=documents)
