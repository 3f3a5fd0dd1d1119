"""Tests for repro.crypto.dh."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import DhKeyPair, DhParams


@pytest.fixture
def params():
    return DhParams.small_test_group()


class TestParams:
    def test_group14_modulus_size(self):
        params = DhParams.rfc3526_group14()
        assert params.p.bit_length() == 2048
        assert params.g == 2

    def test_small_group_is_mersenne_prime(self, params):
        assert params.p == (1 << 127) - 1

    def test_public_from_private(self, params):
        assert params.public_from_private(5) == pow(params.g, 5, params.p)


class TestKeyAgreement:
    def test_shared_secret_agrees(self, params):
        rng = random.Random(1)
        alice = DhKeyPair.generate(params, rng=rng)
        bob = DhKeyPair.generate(params, rng=rng)
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_third_party_disagrees(self, params):
        rng = random.Random(4)
        alice = DhKeyPair.generate(params, rng=rng)
        bob = DhKeyPair.generate(params, rng=rng)
        eve = DhKeyPair.generate(params, rng=rng)
        assert alice.shared_secret(bob.public) != eve.shared_secret(bob.public)

    def test_out_of_range_peer_rejected(self, params):
        rng = random.Random(5)
        alice = DhKeyPair.generate(params, rng=rng)
        with pytest.raises(ValueError):
            alice.shared_secret(0)
        with pytest.raises(ValueError):
            alice.shared_secret(params.p)

    def test_deterministic_generation(self, params):
        a = DhKeyPair.generate(params, rng=random.Random(9))
        b = DhKeyPair.generate(params, rng=random.Random(9))
        assert a.private == b.private and a.public == b.public

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_property_agreement_any_seed(self, seed):
        params = DhParams.small_test_group()
        rng = random.Random(seed)
        alice = DhKeyPair.generate(params, rng=rng)
        bob = DhKeyPair.generate(params, rng=rng)
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)
