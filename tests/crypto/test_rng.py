"""Tests for repro.crypto.rng: the one-call seeded byte draw."""

import random

from hypothesis import given, settings, strategies as st

from repro.crypto.rng import random_bytes


def _per_byte(rng, n):
    return bytes(rng.getrandbits(8) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64),
       warmup=st.integers(min_value=0, max_value=700),
       n=st.integers(min_value=0, max_value=64))
def test_random_bytes_matches_the_per_byte_loop(seed, warmup, n):
    """Same bytes and same generator state afterwards, from any point of
    the Mersenne Twister's 624-word cycle."""
    fast, slow = random.Random(seed), random.Random(seed)
    fast.getrandbits(32 * warmup)
    slow.getrandbits(32 * warmup)
    assert random_bytes(fast, n) == _per_byte(slow, n)
    assert fast.getstate() == slow.getstate()
