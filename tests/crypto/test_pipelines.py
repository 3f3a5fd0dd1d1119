"""Cross-primitive pipelines: the compositions the protocols rely on."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import AeadKey, open_ as aead_open, seal as aead_seal
from repro.crypto.dh import DhKeyPair, DhParams
from repro.crypto.hashes import hkdf
from repro.crypto.rsa import RsaKeyPair


class TestDhToAead:
    """The TLS handshake composition: DH secret → HKDF → AEAD."""

    def test_agreed_keys_carry_traffic(self):
        rng = random.Random(1)
        params = DhParams.small_test_group()
        alice = DhKeyPair.generate(params, rng=rng)
        bob = DhKeyPair.generate(params, rng=rng)
        key_a = AeadKey(hkdf(alice.shared_secret(bob.public), b"s", 32))
        key_b = AeadKey(hkdf(bob.shared_secret(alice.public), b"s", 32))
        sealed = aead_seal(key_a, b"session traffic", rng=rng)
        assert aead_open(key_b, sealed) == b"session traffic"

    def test_eavesdropper_without_private_fails(self):
        rng = random.Random(2)
        params = DhParams.small_test_group()
        alice = DhKeyPair.generate(params, rng=rng)
        bob = DhKeyPair.generate(params, rng=rng)
        eve = DhKeyPair.generate(params, rng=rng)
        key_ab = AeadKey(hkdf(alice.shared_secret(bob.public), b"s", 32))
        key_eb = AeadKey(hkdf(eve.shared_secret(bob.public), b"s", 32))
        sealed = aead_seal(key_ab, b"secret", rng=rng)
        from repro.crypto.aead import AeadError

        with pytest.raises(AeadError):
            aead_open(key_eb, sealed)


class TestOnionLayering:
    """The TOR baseline's composition: nested RSA-hybrid layers."""

    @pytest.fixture(scope="class")
    def relays(self):
        rng = random.Random(3)
        return [RsaKeyPair.generate(bits=512, rng=rng) for _ in range(3)]

    def test_three_layer_onion_peels_in_order(self, relays):
        rng = random.Random(4)
        payload = b"the innermost query"
        onion = payload
        for keypair in reversed(relays):
            onion = keypair.public.encrypt(onion, rng=rng)
        for keypair in relays:
            onion = keypair.decrypt(onion)
        assert onion == payload

    def test_wrong_order_fails(self, relays):
        rng = random.Random(5)
        onion = relays[1].public.encrypt(
            relays[0].public.encrypt(b"payload", rng=rng), rng=rng)
        from repro.crypto.rsa import RsaError

        # Peeling with the inner key first must fail.
        with pytest.raises(RsaError):
            relays[0].decrypt(onion)

    def test_middle_relay_cannot_skip_ahead(self, relays):
        rng = random.Random(6)
        onion = b"core"
        for keypair in reversed(relays):
            onion = keypair.public.encrypt(onion, rng=rng)
        once_peeled = relays[0].decrypt(onion)
        from repro.crypto.rsa import RsaError

        with pytest.raises(RsaError):
            relays[2].decrypt(once_peeled)  # layer 1 still wraps it

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=600))
    def test_property_layering_roundtrip(self, payload):
        rng = random.Random(7)
        keypairs = [RsaKeyPair.generate(bits=512, rng=random.Random(i))
                    for i in range(2)]
        onion = payload
        for keypair in reversed(keypairs):
            onion = keypair.public.encrypt(onion, rng=rng)
        for keypair in keypairs:
            onion = keypair.decrypt(onion)
        assert onion == payload
