"""Hashing, MACs and key derivation.

Thin, typed wrappers over :mod:`hashlib`'s SHA-256 plus an HMAC and an
HKDF-style expand/extract built on it. Everything above this module
(AEAD subkeys, TLS-like handshake transcripts, attestation
measurements, sealed-storage keys) derives its keys here, so key
separation labels are centralised in one place.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

DIGEST_SIZE = 32


def sha256(*chunks: bytes) -> bytes:
    """Return the SHA-256 digest of the concatenation of *chunks*."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def hmac_sha256(key: bytes, *chunks: bytes) -> bytes:
    """Return HMAC-SHA256 of the concatenated *chunks* under *key*."""
    return _hmac.digest(key, b"".join(chunks), "sha256")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return _hmac.compare_digest(a, b)


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract (RFC 5869): concentrate entropy into a PRK."""
    if not salt:
        salt = b"\x00" * DIGEST_SIZE
    return hmac_sha256(salt, input_key_material)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand (RFC 5869): derive *length* bytes labelled by *info*."""
    if length <= 0:
        raise ValueError("length must be positive")
    if length > 255 * DIGEST_SIZE:
        raise ValueError("HKDF output too long")
    blocks = []
    previous = b""
    for counter in range(1, -(-length // DIGEST_SIZE) + 1):
        previous = _hmac.digest(prk, previous + info + bytes([counter]),
                                "sha256")
        blocks.append(previous)
    return b"".join(blocks)[:length]


def hkdf(input_key_material: bytes, info: bytes, length: int = DIGEST_SIZE,
         salt: bytes = b"") -> bytes:
    """One-shot HKDF: extract then expand.

    Parameters
    ----------
    input_key_material:
        Raw secret (e.g. a Diffie-Hellman shared secret).
    info:
        Domain-separation label; distinct protocols must use distinct
        labels so derived keys never collide.
    length:
        Number of output bytes (default: one digest).
    salt:
        Optional public salt.
    """
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)
