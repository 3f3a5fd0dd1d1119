"""Traffic-analysis metrics: size-based distinguishability.

§IV argues that in PEAS/X-Search "an adversary can infer whether an
outgoing message is a real query or an obfuscated one from the request
size", while CYCLOSA's per-query records are uniform.
:func:`size_advantage` quantifies that claim for any two populations of
wire sizes: the best single-threshold classifier's advantage over
guessing, i.e. the operational risk of the leak (equal to the
two-sample Kolmogorov-Smirnov distance between the size
distributions: 0 = indistinguishable, 1 = perfectly separable).
"""

from __future__ import annotations

from typing import Sequence, Tuple


def size_advantage(sizes_a: Sequence[int], sizes_b: Sequence[int]
                   ) -> Tuple[float, int]:
    """The best threshold classifier's advantage and its threshold.

    Returns ``(advantage, threshold)`` where advantage ∈ [0, 1] is
    ``|P(a ≤ t) - P(b ≤ t)|`` maximised over thresholds t — 0 means a
    size-observing adversary does no better than a coin flip.
    """
    if not sizes_a or not sizes_b:
        raise ValueError("both populations must be non-empty")
    candidates = sorted(set(sizes_a) | set(sizes_b))
    best_advantage = 0.0
    best_threshold = candidates[0]
    for threshold in candidates:
        p_a = sum(1 for s in sizes_a if s <= threshold) / len(sizes_a)
        p_b = sum(1 for s in sizes_b if s <= threshold) / len(sizes_b)
        advantage = abs(p_a - p_b)
        if advantage > best_advantage:
            best_advantage = advantage
            best_threshold = threshold
    return best_advantage, best_threshold
