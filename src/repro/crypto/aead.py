"""Authenticated encryption (encrypt-then-MAC over an HMAC-CTR keystream).

CYCLOSA encrypts every inter-enclave message and every enclave-to-search-
engine payload. We build an AEAD from the primitives in
:mod:`repro.crypto.hashes`:

- The keystream is ``HMAC-SHA256(enc_key, nonce || counter)`` blocks,
  with an 8-byte big-endian counter from 0, XORed with the plaintext (a
  CTR-mode stream cipher with SHA-256 as the block function). Block 0
  is one HMAC call; blocks 1, 2, ... come out of a single
  one-iteration PBKDF2-HMAC-SHA256 call, so OpenSSL runs the block loop
  (see :func:`_keystream`).
- Integrity is an HMAC-SHA256 tag over ``nonce || associated_data ||
  ciphertext`` under an independent MAC key; both keys are derived from
  the AEAD key with distinct HKDF labels.

The construction is IND-CPA + INT-CTXT under standard PRF assumptions —
the point here is that every byte that crosses a trust boundary in the
simulation is genuinely encrypted and authenticated, so tests can assert
that tampering or key mismatch is *detected* rather than trusted.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import os
from dataclasses import dataclass, field

from repro.crypto.hashes import (
    DIGEST_SIZE,
    constant_time_equal,
    hkdf,
    hmac_sha256,
)
from repro.crypto.rng import random_bytes

NONCE_SIZE = 16
TAG_SIZE = DIGEST_SIZE
KEY_SIZE = 32


class AeadError(Exception):
    """Raised when decryption fails authentication."""


@dataclass(frozen=True)
class AeadKey:
    """An AEAD key with pre-derived encryption and MAC subkeys."""

    key: bytes
    _enc_key: bytes = field(init=False, repr=False)
    _mac_key: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.key) != KEY_SIZE:
            raise ValueError(f"AEAD key must be {KEY_SIZE} bytes")
        object.__setattr__(
            self, "_enc_key", hkdf(self.key, b"repro.aead.enc"))
        object.__setattr__(
            self, "_mac_key", hkdf(self.key, b"repro.aead.mac"))

    @classmethod
    def generate(cls, rng=None) -> "AeadKey":
        """Create a fresh random key (from *rng* if given, else OS entropy)."""
        if rng is None:
            return cls(os.urandom(KEY_SIZE))
        return cls(random_bytes(rng, KEY_SIZE))

    @classmethod
    def from_secret(cls, secret: bytes, label: bytes = b"repro.aead.key") -> "AeadKey":
        """Derive an AEAD key from an arbitrary shared secret."""
        return cls(hkdf(secret, label, KEY_SIZE))


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    first = _hmac.digest(enc_key, nonce + bytes(8), "sha256")
    if length <= DIGEST_SIZE:
        return first[:length]
    # PBKDF2 with one iteration emits HMAC(P, S || i as 4 bytes BE) for
    # i = 1, 2, ... (RFC 8018 5.2); with S = nonce || 4 zero bytes that is
    # block i of this stream. The 4-byte index cannot wrap: pbkdf2_hmac
    # rejects dklen >= 2**31.
    return first + hashlib.pbkdf2_hmac(
        "sha256", enc_key, nonce + bytes(4), 1, length - DIGEST_SIZE)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    # Single big-int XOR instead of a per-byte generator: both paths
    # produce the same bytes, this one stays in C.
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def seal(key: AeadKey, plaintext: bytes, associated_data: bytes = b"",
         rng=None) -> bytes:
    """Encrypt and authenticate *plaintext*.

    Returns ``nonce || ciphertext || tag``. *associated_data* is
    authenticated but not encrypted (used for headers/addresses that
    relays must read).
    """
    if rng is None:
        nonce = os.urandom(NONCE_SIZE)
    else:
        nonce = random_bytes(rng, NONCE_SIZE)
    stream = _keystream(key._enc_key, nonce, len(plaintext))
    ciphertext = _xor_bytes(plaintext, stream)
    tag = hmac_sha256(key._mac_key, nonce, associated_data, ciphertext)
    return nonce + ciphertext + tag


def open_(key: AeadKey, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a message produced by :func:`seal`.

    Raises :class:`AeadError` on truncation, tampering, wrong key or
    wrong associated data — callers must treat that as a hard protocol
    failure, never as recoverable noise.
    """
    if len(sealed) < NONCE_SIZE + TAG_SIZE:
        raise AeadError("sealed message too short")
    nonce = sealed[:NONCE_SIZE]
    tag = sealed[-TAG_SIZE:]
    ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
    expected = hmac_sha256(key._mac_key, nonce, associated_data, ciphertext)
    if not constant_time_equal(tag, expected):
        raise AeadError("authentication failed")
    stream = _keystream(key._enc_key, nonce, len(ciphertext))
    return _xor_bytes(ciphertext, stream)


def sealed_overhead() -> int:
    """Bytes added by :func:`seal` over the plaintext length."""
    return NONCE_SIZE + TAG_SIZE
