"""Latency models for links and servers.

Each model is a distribution over per-message delays, sampled with the
caller's seeded RNG so simulations stay deterministic. The models used
by the experiment calibrations:

- Unit tests and the transport's default link: :class:`ConstantLatency`.
- WAN residential links (CYCLOSA peers): :class:`LogNormalLatency`,
  median ``CyclosaConfig.peer_link_median`` (105 ms) with a moderate
  tail.
- TOR circuits: :class:`HeavyTailLatency` (log-normal body with a
  Pareto tail), reproducing the multi-second medians and minute-scale
  tails the paper measures for full search round-trips over TOR.
- Search-engine processing: :class:`LogNormalLatency` around 320 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol


class LatencyModel(Protocol):
    """Anything that can sample a non-negative delay in seconds."""

    def sample(self, rng) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Always the same delay; the default for unit tests."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def sample(self, rng) -> float:
        return self.delay


@dataclass(frozen=True)
class LogNormalLatency:
    """Log-normal delay parameterised by its *median* and shape sigma.

    The log-normal is the standard empirical fit for WAN round-trip
    times: most samples near the median, an exponential-ish upper tail.
    """

    median: float
    sigma: float = 0.4

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma <= 0:
            raise ValueError("median and sigma must be positive")

    def sample(self, rng) -> float:
        return self.median * math.exp(self.sigma * rng.gauss(0.0, 1.0))


@dataclass(frozen=True)
class HeavyTailLatency:
    """Log-normal body with a Pareto tail.

    With probability ``tail_prob`` the sample is drawn from a Pareto
    distribution starting at ``tail_scale`` with exponent ``tail_alpha``
    (alpha ≤ 2 gives the minute-scale stragglers seen on TOR circuits);
    otherwise from the log-normal body.
    """

    median: float
    sigma: float = 0.6
    tail_prob: float = 0.08
    tail_scale: float = 4.0
    tail_alpha: float = 1.6

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError("median must be positive")
        if not 0 <= self.tail_prob <= 1:
            raise ValueError("tail_prob must be a probability")
        if self.tail_alpha <= 0 or self.tail_scale <= 0:
            raise ValueError("tail parameters must be positive")

    def sample(self, rng) -> float:
        if rng.random() < self.tail_prob:
            # Inverse-CDF Pareto sample.
            u = 1.0 - rng.random()
            return self.tail_scale * u ** (-1.0 / self.tail_alpha)
        return self.median * math.exp(self.sigma * rng.gauss(0.0, 1.0))
