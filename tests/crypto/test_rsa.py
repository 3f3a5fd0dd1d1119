"""Tests for repro.crypto.rsa."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaError, RsaKeyPair, is_probable_prime


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(bits=512, rng=random.Random(42))


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p, rng=random.Random(0))

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 561, 7917):
            assert not is_probable_prime(n, rng=random.Random(0))

    def test_carmichael_number_rejected(self):
        # 561 = 3*11*17 fools Fermat but not Miller-Rabin.
        assert not is_probable_prime(561, rng=random.Random(0))

    def test_large_known_prime(self):
        assert is_probable_prime((1 << 127) - 1, rng=random.Random(0))


class TestKeyGeneration:
    def test_deterministic_with_seed(self):
        a = RsaKeyPair.generate(bits=256, rng=random.Random(5))
        b = RsaKeyPair.generate(bits=256, rng=random.Random(5))
        assert a.public.n == b.public.n

    def test_modulus_size(self, keypair):
        assert 511 <= keypair.public.n.bit_length() <= 512

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = RsaKeyPair.generate(bits=256, rng=random.Random(6))
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other.public.fingerprint()


class TestHybridEncryption:
    def test_roundtrip(self, keypair):
        rng = random.Random(1)
        ciphertext = keypair.public.encrypt(b"the message", rng=rng)
        assert keypair.decrypt(ciphertext) == b"the message"

    def test_roundtrip_large_payload(self, keypair):
        rng = random.Random(2)
        payload = bytes(range(256)) * 64  # 16 KiB, far beyond modulus size
        assert keypair.decrypt(keypair.public.encrypt(payload, rng=rng)) == payload

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(bits=512, rng=random.Random(7))
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(1))
        with pytest.raises(RsaError):
            other.decrypt(ciphertext)

    def test_tampered_payload_rejected(self, keypair):
        ciphertext = bytearray(keypair.public.encrypt(b"secret",
                                                      rng=random.Random(1)))
        ciphertext[-1] ^= 0x01
        with pytest.raises(RsaError):
            keypair.decrypt(bytes(ciphertext))

    def test_truncated_rejected(self, keypair):
        ciphertext = keypair.public.encrypt(b"secret", rng=random.Random(1))
        with pytest.raises(RsaError):
            keypair.decrypt(ciphertext[:10])

    def test_randomised_encryption(self, keypair):
        rng = random.Random(3)
        assert (keypair.public.encrypt(b"m", rng=rng)
                != keypair.public.encrypt(b"m", rng=rng))


class TestSignatures:
    def test_sign_verify(self, keypair):
        signature = keypair.sign(b"message")
        assert keypair.public.verify(b"message", signature)

    def test_wrong_message_rejected(self, keypair):
        signature = keypair.sign(b"message")
        assert not keypair.public.verify(b"other", signature)

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(bits=512, rng=random.Random(8))
        signature = keypair.sign(b"message")
        assert not other.public.verify(b"message", signature)

    def test_tampered_signature_rejected(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[0] ^= 0x01
        assert not keypair.public.verify(b"message", bytes(signature))

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"message", b"\x00" * 8)

    @settings(max_examples=15, deadline=None)
    @given(st.binary(max_size=512))
    def test_property_sign_verify_any_message(self, message):
        keypair = RsaKeyPair.generate(bits=512, rng=random.Random(99))
        assert keypair.public.verify(message, keypair.sign(message))


# (bits, seed, order of the two primes generate() draws, sha256 of
# "n|e|d", the RNG's next 64 bits after generate()), recorded before
# signing moved to the Chinese remainder theorem. Key generation must
# draw the same values in the same order, so all of it stays fixed.
SEEDED_KEYS = [
    (256, 1, "p>q",
     "4296dbed9361b738d2bb751bb77d67c0edaaf50f33057d4ac0a31982b1bf18eb",
     2998256254294343987),
    (512, 2, "p<q",
     "479014fcf48117b8040e89023141a324042da024109cfb11b8fbe3a2bff8b780",
     10639920543301807543),
    (512, 5, "p>q",
     "ad2a28a4a72ec29306368eea3df544f98380641fd8a1a4c04f01e55834a4a26b",
     14272928992231637367),
    (1024, 3, "p<q",
     "dfb69911a92b1e50218d7d3f2afe18c8aa4e943f470b1c17d3f758f803603a26",
     14681582942274315492),
    (1024, 6, "p>q",
     "31ef488fcb4830105d5ad563e5bbb826aa37e0350929457b381c4dddc4177c2d",
     16464883630109369685),
]
_SEEDED_IDS = [f"{bits}-bit-seed{seed}" for bits, seed, *_ in SEEDED_KEYS]


@pytest.fixture(scope="module")
def seeded_keys():
    return {(bits, seed): RsaKeyPair.generate(bits, random.Random(seed))
            for bits, seed, *_ in SEEDED_KEYS}


class TestPrivateKeyReference:
    @pytest.mark.parametrize("bits,seed,order,digest,next_draw", SEEDED_KEYS,
                             ids=_SEEDED_IDS)
    def test_generation_is_unchanged(self, bits, seed, order, digest,
                                     next_draw):
        rng = random.Random(seed)
        key = RsaKeyPair.generate(bits, rng)
        material = b"%d|%d|%d" % (key.public.n, key.public.e, key.d)
        assert hashlib.sha256(material).hexdigest() == digest
        assert rng.getrandbits(64) == next_draw
        # The cases cover both prime orders, which the CRT recombination
        # must handle alike.
        draws = random.Random(seed)
        p = rsa._random_prime(bits // 2, draws)
        q = rsa._random_prime(bits - bits // 2, draws)
        assert p * q == key.public.n
        assert ("p>q" if p > q else "p<q") == order
        assert str(p) not in repr(key) and str(q) not in repr(key)

    @pytest.mark.parametrize("bits,seed", [case[:2] for case in SEEDED_KEYS],
                             ids=_SEEDED_IDS)
    def test_sign_equals_textbook_exponentiation(self, seeded_keys, bits,
                                                 seed):
        key = seeded_keys[bits, seed]
        for message in (b"", b"message", bytes(range(256))):
            m = int.from_bytes(rsa._SIG_PREFIX + sha256(message), "big")
            if m >= key.public.n:
                # A 256-bit modulus cannot hold the signature block.
                with pytest.raises(RsaError):
                    key.sign(message)
                continue
            signature = key.sign(message)
            assert int.from_bytes(signature, "big") == pow(
                m, key.d, key.public.n)
            assert key.public.verify(message, signature)

    def test_decrypt_roundtrips(self, seeded_keys):
        for (bits, _), key in seeded_keys.items():
            if bits < 512:
                continue  # too small to transport a 32-byte key
            ciphertext = key.public.encrypt(b"transported",
                                            rng=random.Random(9))
            assert key.decrypt(ciphertext) == b"transported"

    def test_known_answer_signature(self):
        key = RsaKeyPair.generate(1024, random.Random(14))
        signature = key.sign(b"repro known-answer")
        assert hashlib.sha256(signature).hexdigest() == (
            "e55f0e60d2f13781514a3fe56941c7c81c4321eddb73140b1cb55776d8d3eda8")
