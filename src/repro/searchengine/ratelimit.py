"""Per-identity rate limiting and bot detection.

§II-A4 and §VIII-D: "after a high flow of queries, Google's bot
protection triggers and asks to fill a captcha". A centralized proxy
(PEAS, X-Search) funnels *all* users' real and fake queries through one
network identity and trips this defence almost immediately; CYCLOSA
spreads the same load over every participating node and stays far below
the threshold (Fig 8d).

Model: a sliding one-hour window per identity. Exceeding
``max_per_window`` flips the identity into a captcha state: requests
are rejected until the window drains below the threshold *and* a
cool-down elapses (bots do not solve captchas, so a blocked proxy stays
blocked while it keeps hammering).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.obs import OBS


class RateLimitVerdict(enum.Enum):
    """Outcome of one admission check."""

    ADMITTED = "admitted"
    CAPTCHA = "captcha"


@dataclass
class _IdentityState:
    window: Deque[float] = field(default_factory=deque)
    blocked_until: float = 0.0
    admitted: int = 0
    rejected: int = 0


class RateLimiter:
    """Sliding-window per-identity admission control.

    Parameters
    ----------
    max_per_window:
        Requests allowed per identity per window. The experiments use
        the paper's implied Google-ish threshold (hundreds per hour
        from one address; Fig 8d draws the "Limit" line at 1 000/h).
    window_seconds:
        Window length (default one hour).
    captcha_cooldown:
        Extra seconds an identity stays blocked after last exceeding
        the limit.
    """

    def __init__(self, max_per_window: int = 1000,
                 window_seconds: float = 3600.0,
                 captcha_cooldown: float = 600.0) -> None:
        if max_per_window < 1:
            raise ValueError("max_per_window must be >= 1")
        self.max_per_window = max_per_window
        self.window_seconds = window_seconds
        self.captcha_cooldown = captcha_cooldown
        self._states: Dict[str, _IdentityState] = {}

    def check(self, identity: str, now: float) -> RateLimitVerdict:
        """Admit or reject one request from *identity* at time *now*."""
        state = self._states.setdefault(identity, _IdentityState())
        window = state.window
        cutoff = now - self.window_seconds
        while window and window[0] <= cutoff:
            window.popleft()
        if now < state.blocked_until:
            # Bots do not solve captchas: hammering while blocked renews
            # the cooldown, so a saturating proxy never recovers.
            state.blocked_until = max(state.blocked_until,
                                      now + self.captcha_cooldown)
            state.rejected += 1
            self._count_verdict(blocked=True)
            return RateLimitVerdict.CAPTCHA
        if len(window) >= self.max_per_window:
            state.blocked_until = now + self.captcha_cooldown
            state.rejected += 1
            self._count_verdict(blocked=True)
            return RateLimitVerdict.CAPTCHA
        window.append(now)
        state.admitted += 1
        self._count_verdict(blocked=False)
        return RateLimitVerdict.ADMITTED

    @staticmethod
    def _count_verdict(blocked: bool) -> None:
        if not OBS.enabled:
            return
        if blocked:
            OBS.registry.counter(
                "cyclosa_engine_ratelimit_captcha_total",
                "requests rejected by the engine's bot protection").inc()
        else:
            OBS.registry.counter(
                "cyclosa_engine_ratelimit_admitted_total",
                "requests admitted by the engine's bot protection").inc()

    def admitted(self, identity: str) -> int:
        state = self._states.get(identity)
        return state.admitted if state else 0

    def rejected(self, identity: str) -> int:
        state = self._states.get(identity)
        return state.rejected if state else 0
