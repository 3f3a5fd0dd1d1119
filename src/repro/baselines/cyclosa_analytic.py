"""CYCLOSA's protection pipeline in analytic form.

The privacy and accuracy experiments (Figs 5-7) process tens of
thousands of test queries; running the full enclave + network stack for
each would dominate runtime without changing what the engine observes.
This class reproduces, exactly, the *observable* behaviour of the full
stack (verified against it by an equivalence test):

- adaptive ``k`` from the same :class:`~repro.core.sensitivity` code;
- fakes drawn from a past-queries table fed by the queries the system
  itself has carried (bootstrap-seeded from trends), as relays' tables
  are in the full stack;
- the real query and each fake emitted as *individual* observations,
  each from a distinct random relay identity;
- perfect result accuracy: the real query is answered alone, fakes'
  responses are dropped.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
)
from repro.core.adaptive import choose_k
from repro.core.fake_queries import PastQueryTable
from repro.core.sensitivity import (
    LinkabilityAssessor,
    SemanticAssessor,
    SensitivityAnalysis,
)
from repro.datasets.trends import trending_queries


class CyclosaAnalytic(PrivateSearchSystem):
    """Adaptive, decentralized protection — analytic pipeline."""

    name = "CYCLOSA"
    attack_surface = AttackSurface.ANONYMOUS_SINGLE
    properties = {
        "unlinkability": True,
        "indistinguishability": True,
        "accuracy": True,
        "scalability": True,
    }

    def __init__(self, semantic: SemanticAssessor,
                 kmax: int = 7, num_relays: int = 198,
                 table_capacity: int = 20000,
                 adaptive: bool = True,
                 seed: int = 0) -> None:
        super().__init__()
        if kmax < 0:
            raise ValueError("kmax must be >= 0")
        self.kmax = kmax
        self.adaptive = adaptive
        self._rng = random.Random(seed)
        self._semantic = semantic
        self._relays = [f"cyclosa-node-{i:03d}" for i in range(num_relays)]
        self.table = PastQueryTable(capacity=table_capacity)
        self.table.extend(trending_queries(50, seed=seed))
        self._linkability: Dict[str, LinkabilityAssessor] = {}
        self.k_history: List[int] = []

    def _analysis_for(self, user_id: str) -> SensitivityAnalysis:
        if user_id not in self._linkability:
            self._linkability[user_id] = LinkabilityAssessor()
        return SensitivityAnalysis(self._semantic,
                                   self._linkability[user_id])

    def preload_history(self, user_id: str, queries: List[str]) -> None:
        """Load a user's pre-CYCLOSA history for linkability scoring."""
        self._analysis_for(user_id).remember(*queries)

    def protect(self, user_id: str, query: str,
                k_override: Optional[int] = None) -> List[EngineObservation]:
        analysis = self._analysis_for(user_id)
        if k_override is not None:
            k = k_override
        elif self.adaptive:
            k = choose_k(analysis.assess(query), self.kmax)
        else:
            k = self.kmax
        analysis.remember(query)

        fakes = self.table.sample(k, self._rng, exclude=query)
        # Every query carried by the system lands in relay tables.
        self.table.add(query)
        self.k_history.append(len(fakes))

        relays = self._rng.sample(self._relays, len(fakes) + 1)
        group_id = self.next_group_id()
        observations = [EngineObservation(
            identity=relays[0], text=query, true_user=user_id,
            group_id=group_id)]
        for relay, fake in zip(relays[1:], fakes):
            observations.append(EngineObservation(
                identity=relay, text=fake, true_user=user_id,
                is_fake=True, group_id=group_id))
        self._rng.shuffle(observations)
        return observations
