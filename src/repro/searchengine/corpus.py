"""Synthetic web corpus for the search engine.

Documents are generated per topic from the shared vocabularies: a
document about "health" mostly contains health terms, a sprinkling of
general terms, and occasional cross-topic words (which is what makes
fake-query results sometimes collide with real-query results — the
correctness loss Fig 6 measures for filtering-based systems).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import List, Tuple

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

    def __len__(self) -> int:
        return len(self.documents)


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
    # The stdlib draws, made without their per-token Python wrappers:
    # the same Mersenne Twister calls in the same order with the same
    # arithmetic, so every document matches the rng.choice /
    # rng.expovariate version bit for bit.
    # - rng.choice(seq) is seq[r] for the first r = getrandbits(k) below
    #   n = len(seq), k = n.bit_length() (Random._randbelow); an empty
    #   seq draws r = 0 and raises IndexError, as choice does.
    # - rng.expovariate(lambd) is -log(1.0 - random()) / lambd.
    rand = rng.random
    getrandbits = rng.getrandbits
    log = math.log
    lambd = 1.0 / 25.0
    vocabularies = build_topic_vocabularies()
    # (terms, n, k) per topic, in ALL_TOPICS order: the cross-topic
    # draw indexes this with the topic choice's r.
    other_terms = [(terms, len(terms), len(terms).bit_length())
                   for terms in (vocabularies[other].terms
                                 for other in ALL_TOPICS)]
    # Never 0 at a draw: every draw is inside the loop over ALL_TOPICS.
    num_topics = len(ALL_TOPICS)
    topic_bits = num_topics.bit_length()
    num_general = len(GENERAL_TERMS)
    general_bits = num_general.bit_length()
    general_cut = cross_topic_rate + 0.12
    documents: List[Document] = []
    doc_id = 0
    for topic in ALL_TOPICS:
        own_terms = list(vocabularies[topic].terms)
        last = len(own_terms) - 1
        for _ in range(docs_per_topic):
            tokens: List[str] = []
            append = tokens.append
            for _ in range(doc_length):
                roll = rand()
                if roll < cross_topic_rate:
                    r = getrandbits(topic_bits)
                    while r >= num_topics:
                        r = getrandbits(topic_bits)
                    terms, n, k = other_terms[r]
                    r = getrandbits(k)
                    while r >= n:
                        if not n:
                            raise IndexError(
                                "Cannot choose from an empty sequence")
                        r = getrandbits(k)
                    append(terms[r])
                elif roll < general_cut:
                    r = getrandbits(general_bits)
                    while r >= num_general:
                        if not num_general:
                            raise IndexError(
                                "Cannot choose from an empty sequence")
                        r = getrandbits(general_bits)
                    append(GENERAL_TERMS[r])
                else:
                    # Zipf-ish skew towards the head of the topic vocab.
                    index = int(-log(1.0 - rand()) / lambd)
                    append(own_terms[index] if index < last
                           else own_terms[last])
            documents.append(Document(
                doc_id=doc_id,
                url=f"https://web.example/{topic}/{doc_id}",
                topic=topic,
                tokens=tuple(tokens),
            ))
            doc_id += 1
    return Corpus(documents=documents)
