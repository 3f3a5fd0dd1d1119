"""Tests for repro.crypto.keys."""

import random

from repro.crypto.keys import IdentityKeyPair


class TestIdentityKeyPair:
    def test_fingerprint_matches_public_key(self):
        identity = IdentityKeyPair.generate(bits=512, rng=random.Random(1))
        assert identity.fingerprint == identity.public.fingerprint()

    def test_distinct_identities(self):
        rng = random.Random(2)
        a = IdentityKeyPair.generate(bits=512, rng=rng)
        b = IdentityKeyPair.generate(bits=512, rng=rng)
        assert a.fingerprint != b.fingerprint
