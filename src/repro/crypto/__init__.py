"""From-scratch cryptographic substrate.

CYCLOSA's design leans on cryptography in three places: TLS-like secure
channels between enclaves and to the search engine, layered (onion)
encryption for the TOR baseline, and signed attestation quotes. This
package implements the needed primitives from scratch on top of the
standard library's SHA-256 and SHAKE-256:

- :mod:`repro.crypto.hashes` — SHA-256 / HMAC / HKDF-style derivation.
- :mod:`repro.crypto.aead`   — authenticated encryption (encrypt-then-MAC:
  a SHAKE-256 keystream and an HMAC-SHA256 tag).
- :mod:`repro.crypto.dh`     — finite-field Diffie-Hellman key agreement.
- :mod:`repro.crypto.rsa`    — RSA keygen / encrypt / sign (Miller-Rabin
  primes, deterministic-padding hybrid encryption for onion layers).
- :mod:`repro.crypto.keys`   — key containers and identity key pairs.
- :mod:`repro.crypto.bignum` — ``pow(b, e, m)`` in OpenSSL's bignum
  library, which the RSA and DH exponentiations run through.
- :mod:`repro.crypto.rng`    — the one sanctioned system-entropy RNG
  (everything else threads a seeded ``random.Random``; the
  determinism checker in :mod:`repro.lint` enforces this).

These are *simulation-grade* primitives: algorithmically faithful,
constant-time-agnostic, and sized for test speed. They exist so the
systems above them exercise real byte-level encryption, decryption and
verification paths rather than pretending with no-ops.
"""

from repro.crypto.aead import AeadKey, AeadError, seal, open_ as open_sealed
from repro.crypto.dh import DhKeyPair, DhParams
from repro.crypto.hashes import hkdf, hmac_sha256, sha256
from repro.crypto.keys import IdentityKeyPair
from repro.crypto.rng import system_rng
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, RsaError

__all__ = [
    "AeadKey",
    "AeadError",
    "seal",
    "open_sealed",
    "DhKeyPair",
    "DhParams",
    "hkdf",
    "hmac_sha256",
    "sha256",
    "IdentityKeyPair",
    "RsaKeyPair",
    "RsaPublicKey",
    "RsaError",
    "system_rng",
]
