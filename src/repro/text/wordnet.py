"""A synthetic WordNet with domain labels.

The real pipeline (§V-A1, §V-F) uses WordNet synsets plus the eXtended
WordNet Domains mapping (synset → 170 domain labels) to build per-topic
sensitive dictionaries. We synthesise the equivalent resource over the
generator's vocabularies, with two calibration knobs that reproduce the
real resource's failure modes (and hence Table II's precision/recall
trade-off):

- ``domain_recall`` — the probability a genuinely sensitive synset
  carries its sensitive domain label. Real WordNet Domains has coverage
  gaps; missing labels cost *recall*.
- ``polysemy_noise`` — the probability a neutral synset *additionally*
  carries some sensitive domain label (real polysemy: "pitcher" is
  baseball and anatomy, "score" is sports and music). Spurious labels
  cost *precision* — this is why WordNet-only tagging shows P ≈ 0.53
  in the paper while recall stays high.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.datasets.vocabulary import (
    SENSITIVE_TOPICS,
    TopicVocabulary,
    build_topic_vocabularies,
)


@dataclass(frozen=True)
class Synset:
    """A set of synonymous lemmas with domain labels."""

    synset_id: int
    lemmas: Tuple[str, ...]
    domains: FrozenSet[str]


class SyntheticWordNet:
    """Lexical database: lemma → synsets → domains.

    Use :meth:`build` to construct one over the standard topic
    vocabularies; :meth:`sensitive_dictionary` is the lookup the
    sensitivity analysis needs.
    """

    def __init__(self, synsets: List[Synset]) -> None:
        self.synsets = synsets

    @classmethod
    def build(cls, vocabularies: Optional[Dict[str, TopicVocabulary]] = None,
              domain_recall: float = 0.72,
              polysemy_noise: float = 0.045,
              seed: int = 0) -> "SyntheticWordNet":
        """Construct the database.

        Each seed term and its morphological variants form one synset.
        Sensitive-topic synsets get their true domain with probability
        *domain_recall*; neutral synsets pick up a spurious sensitive
        domain with probability *polysemy_noise*. Defaults are
        calibrated so dictionary-only tagging of the synthetic workload
        lands near the paper's WordNet row in Table II (P 0.53, R 0.83).
        """
        if vocabularies is None:
            vocabularies = build_topic_vocabularies()
        rng = random.Random(seed)
        synsets: List[Synset] = []
        synset_id = 0
        for topic, vocabulary in vocabularies.items():
            grouped = _group_variants(vocabulary)
            for lemmas in grouped:
                domains: Set[str] = {f"factotum/{topic}"}
                if vocabulary.sensitive:
                    if rng.random() < domain_recall:
                        domains.add(topic)
                else:
                    if rng.random() < polysemy_noise:
                        domains.add(rng.choice(list(SENSITIVE_TOPICS)))
                synsets.append(Synset(
                    synset_id=synset_id,
                    lemmas=tuple(lemmas),
                    domains=frozenset(domains),
                ))
                synset_id += 1
        return cls(synsets)

    # -- lookups ---------------------------------------------------------

    def sensitive_dictionary(self, topics: Tuple[str, ...] = SENSITIVE_TOPICS
                             ) -> FrozenSet[str]:
        """Every lemma whose domains intersect the given sensitive topics.

        This is the "dictionary of terms associated to each identified
        sensitive topic" of §V-A1, for the WordNet leg.
        """
        wanted = set(topics)
        lemmas: Set[str] = set()
        for synset in self.synsets:
            if synset.domains & wanted:
                lemmas.update(synset.lemmas)
        return frozenset(lemmas)


def _group_variants(vocabulary: TopicVocabulary) -> List[List[str]]:
    """Group a topic's expanded terms into per-seed synonym sets."""
    groups: Dict[str, List[str]] = {seed: [] for seed in vocabulary.seeds}
    # Longest-prefix match assigns each variant to its seed.
    seeds_by_length = sorted(vocabulary.seeds, key=len, reverse=True)
    for term in vocabulary.terms:
        for seed in seeds_by_length:
            if term.startswith(seed):
                groups[seed].append(term)
                break
        else:
            groups.setdefault(term, []).append(term)
    return [lemmas for lemmas in groups.values() if lemmas]
