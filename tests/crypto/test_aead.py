"""Tests for repro.crypto.aead."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import (
    AeadError,
    AeadKey,
    KEY_SIZE,
    NONCE_SIZE,
    TAG_SIZE,
    _keystream,
    open_,
    seal,
)


@pytest.fixture
def key():
    return AeadKey.generate(random.Random(7))


class TestAeadKey:
    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            AeadKey(b"short")

    def test_generate_deterministic_with_rng(self):
        assert (AeadKey.generate(random.Random(1)).key
                == AeadKey.generate(random.Random(1)).key)

    def test_generate_without_rng_uses_entropy(self):
        assert AeadKey.generate().key != AeadKey.generate().key

    def test_subkeys_differ(self, key):
        assert key._enc_key != key._mac_key


class TestSealOpen:
    def test_roundtrip(self, key):
        assert open_(key, seal(key, b"hello")) == b"hello"

    def test_roundtrip_empty_plaintext(self, key):
        assert open_(key, seal(key, b"")) == b""

    def test_roundtrip_with_associated_data(self, key):
        sealed = seal(key, b"payload", b"header")
        assert open_(key, sealed, b"header") == b"payload"

    def test_wrong_associated_data_rejected(self, key):
        sealed = seal(key, b"payload", b"header")
        with pytest.raises(AeadError):
            open_(key, sealed, b"other")

    def test_wrong_key_rejected(self, key):
        other = AeadKey.generate(random.Random(8))
        with pytest.raises(AeadError):
            open_(other, seal(key, b"payload"))

    def test_tampered_ciphertext_rejected(self, key):
        sealed = bytearray(seal(key, b"payload"))
        sealed[NONCE_SIZE] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))

    def test_tampered_tag_rejected(self, key):
        sealed = bytearray(seal(key, b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))

    def test_truncated_rejected(self, key):
        with pytest.raises(AeadError):
            open_(key, b"short")

    def test_nonces_are_fresh(self, key):
        rng = random.Random(3)
        first = seal(key, b"m", rng=rng)
        second = seal(key, b"m", rng=rng)
        assert first != second  # same plaintext, different wire bytes

    def test_overhead_constant(self, key):
        sealed = seal(key, b"x" * 100)
        assert len(sealed) - 100 == NONCE_SIZE + TAG_SIZE

    @given(st.binary(max_size=2048), st.binary(max_size=64))
    def test_property_roundtrip(self, plaintext, associated):
        key = AeadKey.generate(random.Random(11))
        sealed = seal(key, plaintext, associated, rng=random.Random(0))
        assert open_(key, sealed, associated) == plaintext

    @given(st.binary(min_size=1, max_size=256),
           st.integers(min_value=0))
    def test_property_single_bitflip_detected(self, plaintext, position):
        key = AeadKey.generate(random.Random(12))
        sealed = bytearray(seal(key, plaintext, rng=random.Random(0)))
        index = position % len(sealed)
        sealed[index] ^= 0x01
        with pytest.raises(AeadError):
            open_(key, bytes(sealed))


def _reference_keystream(enc_key, nonce, length):
    # The keystream's definition: SHAKE-256 absorbs the 32-byte key, then
    # the 16-byte nonce, and is squeezed to *length* bytes, 136 bytes
    # (its rate) per sponge block.
    sponge = hashlib.shake_256()
    sponge.update(enc_key)
    sponge.update(nonce)
    return sponge.digest(length)


_keys = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
_nonces = st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE)


class TestKeystreamReference:
    # Either side of one and two 32-byte digests and of SHAKE-256's
    # 136-byte rate.
    @pytest.mark.parametrize(
        "length", [0, 1, 31, 32, 33, 63, 64, 65, 135, 136, 137, 4096])
    def test_matches_block_definition(self, key, length):
        nonce = bytes(range(NONCE_SIZE))
        assert (_keystream(key._enc_key, nonce, length)
                == _reference_keystream(key._enc_key, nonce, length))

    @given(_keys, _nonces, st.integers(min_value=0, max_value=8192))
    def test_property_matches_block_definition(self, enc_key, nonce, length):
        assert (_keystream(enc_key, nonce, length)
                == _reference_keystream(enc_key, nonce, length))

    @given(_keys, _nonces, st.integers(min_value=0, max_value=8192),
           st.integers(min_value=0, max_value=8192))
    def test_property_shorter_pad_is_a_prefix(self, enc_key, nonce, a, b):
        # Seal and open squeeze the pad to the same length from either
        # side, so they agree at every length.
        short, long = sorted((a, b))
        assert (_keystream(enc_key, nonce, short)
                == _keystream(enc_key, nonce, long)[:short])

    def test_nonce_and_key_each_change_the_pad(self, key):
        nonce = bytes(NONCE_SIZE)
        other_key = AeadKey.generate(random.Random(8))._enc_key
        pad = _keystream(key._enc_key, nonce, 64)
        assert _keystream(key._enc_key, b"\x01" + nonce[1:], 64) != pad
        assert _keystream(other_key, nonce, 64) != pad

    @pytest.mark.parametrize("key_size, nonce_size", [
        (0, NONCE_SIZE), (KEY_SIZE - 1, NONCE_SIZE), (KEY_SIZE + 1, NONCE_SIZE),
        (KEY_SIZE, 0), (KEY_SIZE, NONCE_SIZE - 1), (KEY_SIZE, NONCE_SIZE + 1),
        (KEY_SIZE + NONCE_SIZE, 0),
    ])
    def test_other_key_or_nonce_sizes_rejected(self, key_size, nonce_size):
        # key || nonce splits only one way when both sizes are fixed: a
        # 48-byte key and no nonce would absorb the same bytes.
        with pytest.raises(ValueError):
            _keystream(bytes(key_size), bytes(nonce_size), 16)

    def test_known_answer(self):
        # Recorded when the keystream became SHAKE-256(enc_key || nonce);
        # any change to the construction changes these bytes.
        key = AeadKey.generate(random.Random(14))
        plaintext = random.Random(15).randbytes(5000)
        sealed = seal(key, plaintext, b"kat", rng=random.Random(16))
        assert hashlib.sha256(sealed).hexdigest() == (
            "67abc5baf4f9cc105314e8d1dbe94a32df515e3a002a70847c11c5d9c8b22ad2")
        assert open_(key, sealed, b"kat") == plaintext
