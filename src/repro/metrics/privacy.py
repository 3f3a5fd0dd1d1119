"""Privacy metric: the re-identification success rate (Fig 5).

One function evaluates any system's engine-side observations against a
:class:`~repro.attacks.simattack.SimAttack` instance, playing the game
that matches the system's :class:`~repro.baselines.base.AttackSurface`:

- **IDENTIFIED** (Direct, TrackMeNot): the engine knows the user; the
  attacker's job is retrieving the user's real queries from the fake
  ones. Rate = correctly-recognised real queries / real queries.
- **GROUP_IDENTIFIED** (GooPIR): one OR-group per query from a known
  user; the attacker picks the real sub-query. Rate = groups where the
  pick is the real sub-query / groups.
- **GROUP_ANONYMOUS** (PEAS, X-Search): anonymous OR-groups; the
  attacker must pick the real sub-query *and* name the user. Rate =
  groups fully re-identified / groups.
- **ANONYMOUS_SINGLE** (TOR, CYCLOSA): individually arriving anonymous
  queries, real and fake indistinguishable; the attacker attributes
  each arriving query. A success is an arriving query that *is* real
  and is attributed to its true user. Rate = successes / arriving
  queries. With k = 0 (TOR) this reduces to per-real-query accuracy —
  which is why the paper notes TOR's bar "also represents the
  re-identification rate of PEAS, X-SEARCH and CYCLOSA with k = 0";
  with k fakes per real query the attacker's haystack grows by k+1×,
  which is precisely CYCLOSA's confusion argument (§VIII-A).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.attacks.simattack import SimAttack
from repro.baselines.base import AttackSurface, EngineObservation


def reidentification_rate(attack: SimAttack,
                          observations: Iterable[EngineObservation],
                          surface: AttackSurface) -> float:
    """Play the matching game over *observations*; return the rate."""
    observations = list(observations)
    if not observations:
        return 0.0
    if surface is AttackSurface.IDENTIFIED:
        return _identified(attack, observations)
    if surface is AttackSurface.GROUP_IDENTIFIED:
        return _group_identified(attack, observations)
    if surface is AttackSurface.GROUP_ANONYMOUS:
        return _group_anonymous(attack, observations)
    if surface is AttackSurface.ANONYMOUS_SINGLE:
        return _anonymous_single(attack, observations)
    raise ValueError(f"unknown attack surface {surface!r}")


def _identified(attack: SimAttack,
                observations: List[EngineObservation]) -> float:
    real = [obs for obs in observations if not obs.is_fake]
    if not real:
        return 0.0
    recognised = sum(
        1 for obs in real if attack.classify_real(obs.text, obs.identity))
    return recognised / len(real)


def _group_identified(attack: SimAttack,
                      observations: List[EngineObservation]) -> float:
    groups = [obs for obs in observations if obs.real_index is not None]
    if not groups:
        return 0.0
    successes = 0
    for obs in groups:
        picked = attack.pick_real_identified(obs.subqueries(), obs.identity)
        if picked == obs.real_index:
            successes += 1
    return successes / len(groups)


def _group_anonymous(attack: SimAttack,
                     observations: List[EngineObservation]) -> float:
    groups = [obs for obs in observations if obs.real_index is not None]
    if not groups:
        return 0.0
    successes = 0
    for obs in groups:
        index, user = attack.pick_real_anonymous(obs.subqueries())
        if index == obs.real_index and user == obs.true_user:
            successes += 1
    return successes / len(groups)


def _anonymous_single(attack: SimAttack,
                      observations: List[EngineObservation]) -> float:
    successes = 0
    for obs in observations:
        attributed = attack.attribute(obs.text)
        if attributed is not None and not obs.is_fake \
                and attributed == obs.true_user:
            successes += 1
    return successes / len(observations)
