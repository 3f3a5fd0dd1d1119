"""Tests for repro.crypto.hashes."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashes import (
    DIGEST_SIZE,
    constant_time_equal,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
    sha256,
)


class TestSha256:
    def test_empty_matches_known_vector(self):
        assert sha256().hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_abc_matches_known_vector(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_chunking_is_equivalent_to_concatenation(self):
        assert sha256(b"ab", b"c") == sha256(b"abc")

    def test_digest_size(self):
        assert len(sha256(b"x")) == DIGEST_SIZE


class TestHmac:
    def test_rfc4231_case_2(self):
        # RFC 4231 test case 2: key "Jefe", data "what do ya want..."
        mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert mac.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")

    def test_different_keys_differ(self):
        assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")

    def test_chunked_equals_whole(self):
        assert hmac_sha256(b"k", b"a", b"b") == hmac_sha256(b"k", b"ab")


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"same", b"same")

    def test_unequal(self):
        assert not constant_time_equal(b"same", b"diff")

    def test_length_mismatch(self):
        assert not constant_time_equal(b"a", b"ab")


class TestHkdf:
    def test_deterministic(self):
        assert hkdf(b"secret", b"label") == hkdf(b"secret", b"label")

    def test_label_separation(self):
        assert hkdf(b"secret", b"label-a") != hkdf(b"secret", b"label-b")

    def test_salt_changes_output(self):
        assert hkdf(b"s", b"l", salt=b"x") != hkdf(b"s", b"l", salt=b"y")

    def test_requested_length(self):
        for length in (1, 16, 32, 64, 100):
            assert len(hkdf(b"s", b"l", length)) == length

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"p" * 32, b"info", 0)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"p" * 32, b"info", 255 * 32 + 1)

    def test_rfc5869_case_1(self):
        # RFC 5869 test case 1: basic test case with SHA-256.
        ikm = b"\x0b" * 22
        salt = bytes(range(0x0d))
        info = bytes(range(0xf0, 0xfa))
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
        assert hkdf_expand(prk, info, 42).hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c"
            "5db02d56ecc4c5bf34007208d5b887185865")
        assert hkdf(ikm, info, 42, salt=salt) == hkdf_expand(prk, info, 42)

    def test_extract_empty_salt_uses_zero_block(self):
        assert hkdf_extract(b"", b"ikm") == hkdf_extract(b"\x00" * 32, b"ikm")

    @given(st.binary(min_size=0, max_size=64),
           st.binary(min_size=0, max_size=32),
           st.integers(min_value=1, max_value=128))
    def test_property_output_length_and_determinism(self, ikm, info, length):
        first = hkdf(ikm, info, length)
        second = hkdf(ikm, info, length)
        assert first == second
        assert len(first) == length

    @given(st.binary(min_size=1, max_size=32))
    def test_property_prefix_consistency(self, ikm):
        # HKDF output streams: shorter requests are prefixes of longer ones.
        long = hkdf(ikm, b"info", 64)
        short = hkdf(ikm, b"info", 32)
        assert long[:32] == short
