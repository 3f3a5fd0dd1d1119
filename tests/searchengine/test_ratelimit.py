"""Tests for the rate limiter / bot detection."""

import pytest

from repro.searchengine.ratelimit import RateLimiter, RateLimitVerdict


class TestRateLimiter:
    def test_under_limit_admitted(self):
        limiter = RateLimiter(max_per_window=10, window_seconds=3600)
        for second in range(10):
            assert limiter.check("id", float(second)) is RateLimitVerdict.ADMITTED

    def test_over_limit_captcha(self):
        limiter = RateLimiter(max_per_window=5, window_seconds=3600)
        for second in range(5):
            limiter.check("id", float(second))
        assert limiter.check("id", 6.0) is RateLimitVerdict.CAPTCHA

    def test_identities_independent(self):
        limiter = RateLimiter(max_per_window=2, window_seconds=3600)
        limiter.check("a", 0.0)
        limiter.check("a", 1.0)
        assert limiter.check("a", 2.0) is RateLimitVerdict.CAPTCHA
        assert limiter.check("b", 2.0) is RateLimitVerdict.ADMITTED

    def test_window_slides(self):
        limiter = RateLimiter(max_per_window=2, window_seconds=10,
                              captcha_cooldown=0.0)
        limiter.check("id", 0.0)
        limiter.check("id", 1.0)
        # Window drained: old entries have expired.
        assert limiter.check("id", 30.0) is RateLimitVerdict.ADMITTED

    def test_cooldown_blocks_even_after_drain(self):
        limiter = RateLimiter(max_per_window=2, window_seconds=10,
                              captcha_cooldown=100.0)
        limiter.check("id", 0.0)
        limiter.check("id", 1.0)
        limiter.check("id", 2.0)  # trips captcha until t=102
        assert limiter.check("id", 50.0) is RateLimitVerdict.CAPTCHA
        assert limiter.check("id", 150.0) is RateLimitVerdict.ADMITTED

    def test_counters(self):
        limiter = RateLimiter(max_per_window=1, window_seconds=3600)
        limiter.check("id", 0.0)
        limiter.check("id", 1.0)
        limiter.check("id", 2.0)
        assert limiter.admitted("id") == 1
        assert limiter.rejected("id") == 2
        assert limiter.admitted("ghost") == 0

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            RateLimiter(max_per_window=0)

    def test_hammering_proxy_stays_blocked(self):
        # The Fig 8d scenario: a proxy over the limit that keeps sending
        # never recovers (every burst renews the cooldown).
        limiter = RateLimiter(max_per_window=10, window_seconds=3600,
                              captcha_cooldown=600)
        time = 0.0
        verdicts = []
        for _ in range(200):
            verdicts.append(limiter.check("proxy", time))
            time += 30.0
        assert verdicts[-1] is RateLimitVerdict.CAPTCHA
        admitted = sum(v is RateLimitVerdict.ADMITTED for v in verdicts)
        assert admitted <= 15
