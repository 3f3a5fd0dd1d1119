"""Authenticated encryption (encrypt-then-MAC over a SHAKE-256 keystream).

CYCLOSA encrypts every inter-enclave message and every enclave-to-search-
engine payload. We build an AEAD from the primitives in
:mod:`repro.crypto.hashes` and :mod:`hashlib`:

- The keystream is ``SHAKE-256(enc_key || nonce)`` squeezed to the
  plaintext's length and XORed with it (a stream cipher whose pad is
  the output of the FIPS 202 extendable-output function). SHAKE-256 with
  a secret prefix of fixed length is a PRF (the keyed sponge), and the
  input is always the 32-byte subkey followed by the 16-byte nonce, so
  the concatenation is unambiguous; :func:`_keystream` refuses any
  other sizes. One C call squeezes the whole pad, whatever its length.
- Integrity is an HMAC-SHA256 tag over ``nonce || associated_data ||
  ciphertext`` under an independent MAC key, checked before anything is
  decrypted; both keys are derived from the AEAD key with distinct HKDF
  labels.

A unique nonce per key gives an independent pad, so the construction
is IND-CPA + INT-CTXT under standard PRF assumptions — the point here
is that every byte that crosses a trust boundary in the simulation is
genuinely encrypted and authenticated, so tests can assert that
tampering or key mismatch is *detected* rather than trusted.
"""

from __future__ import annotations

import hashlib
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


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    """The first *length* bytes of SHAKE-256 over ``enc_key || nonce``.

    Keyed by prefix, which is a PRF only while the secret prefix has a
    fixed length and the input splits one way: so the key must be
    exactly 32 bytes and the nonce exactly 16. A shorter pad is a
    prefix of a longer one under the same key and nonce.
    """
    if len(enc_key) != KEY_SIZE or len(nonce) != NONCE_SIZE:
        raise ValueError(f"keystream takes a {KEY_SIZE}-byte key and a "
                         f"{NONCE_SIZE}-byte nonce")
    return hashlib.shake_256(enc_key + nonce).digest(length)


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
