"""Tests for repro.net.latency models."""

import random

import pytest

from repro.net.latency import (
    ConstantLatency,
    HeavyTailLatency,
    LogNormalLatency,
)


@pytest.fixture
def rng():
    return random.Random(99)


def _samples(model, rng, n=4000):
    return [model.sample(rng) for _ in range(n)]


class TestConstant:
    def test_always_same(self, rng):
        model = ConstantLatency(0.05)
        assert all(s == 0.05 for s in _samples(model, rng, 10))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-0.1)


class TestLogNormal:
    def test_median_calibration(self, rng):
        model = LogNormalLatency(median=0.1, sigma=0.4)
        samples = sorted(_samples(model, rng))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(0.1, rel=0.1)

    def test_all_positive(self, rng):
        model = LogNormalLatency(median=0.1)
        assert all(s > 0 for s in _samples(model, rng, 500))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(median=0.1, sigma=0.0)


class TestHeavyTail:
    def test_has_a_heavier_tail_than_its_body(self, rng):
        model = HeavyTailLatency(median=1.0, tail_prob=0.1, tail_scale=10.0)
        samples = sorted(_samples(model, rng))
        p50 = samples[len(samples) // 2]
        p99 = samples[int(len(samples) * 0.99)]
        assert p99 > 8 * p50

    def test_zero_tail_prob_is_lognormal_like(self, rng):
        model = HeavyTailLatency(median=1.0, tail_prob=0.0)
        assert max(_samples(model, rng, 500)) < 50.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HeavyTailLatency(median=-1.0)
        with pytest.raises(ValueError):
            HeavyTailLatency(median=1.0, tail_prob=1.5)
        with pytest.raises(ValueError):
            HeavyTailLatency(median=1.0, tail_alpha=0.0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        model = LogNormalLatency(median=0.1)
        a = _samples(model, random.Random(5), 50)
        b = _samples(model, random.Random(5), 50)
        assert a == b
