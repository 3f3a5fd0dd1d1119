"""RSA key generation, hybrid encryption and signatures.

The TOR baseline builds onions by encrypting each layer to a relay's
public key, and attestation quotes are RSA-signed by the (simulated)
quoting enclave. Keys default to 1024 bits — small by modern standards
but fast enough that tests can generate dozens of relay identities.

Encryption is *hybrid*: RSA transports a fresh AEAD key, and the payload
is sealed under it (so onion layers have no RSA size limit). Signatures
are RSA over the SHA-256 digest with a fixed PKCS#1-v1.5-style prefix.

The private-key operations (signing, key-transport decryption) use the
Chinese remainder theorem: one half-size exponentiation per prime,
recombined with Garner's formula. The result is the same integer as
``pow(x, d, n)`` at a fraction of the cost (measured in
docs/performance.md, "Crypto and codec fast path").

Every full-width exponentiation — each Miller-Rabin round's ``a^d mod
n``, both CRT halves, and the public-key ``x^e mod n`` of ``verify`` and
``encrypt`` — runs in OpenSSL through
:func:`repro.crypto.bignum.powmod`, which returns the same integer as
``pow``, so keys, signatures and RNG consumption are unchanged. The
Miller-Rabin squaring loop stays on the builtin ``pow(x, 2, n)``: one
squaring costs less than a foreign call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.crypto.aead import (
    AeadError,
    AeadKey,
    open_ as aead_open,
    seal as aead_seal,
)
from repro.crypto.bignum import powmod
from repro.crypto.hashes import sha256
from repro.crypto.rng import system_rng

_SIG_PREFIX = b"repro.rsa.sig.v1:"
_ENC_PREFIX = b"\x00\x02"  # marks a well-formed key-transport block

# Deterministic small-prime sieve used before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
]


class RsaError(Exception):
    """Raised on malformed ciphertexts or invalid signatures."""


def is_probable_prime(n: int, rounds: int = 32, rng=None) -> bool:
    """Miller-Rabin primality test with a small-prime pre-sieve."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        if rng is None:
            a = 2 + int.from_bytes(os.urandom(8), "big") % (n - 3)
        else:
            a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> bytes:
        """Stable 32-byte identifier for this key (hash of n||e)."""
        return sha256(self.n.to_bytes(self.byte_length, "big"),
                      self.e.to_bytes(8, "big"))

    def encrypt(self, plaintext: bytes, rng=None) -> bytes:
        """Hybrid-encrypt *plaintext* to this key.

        Output layout: ``len(rsa_block) [2 bytes] || rsa_block || sealed``
        where *rsa_block* transports a fresh 32-byte AEAD key.
        """
        session = AeadKey.generate(rng)
        pad_len = self.byte_length - len(_ENC_PREFIX) - len(session.key) - 1
        if pad_len < 8:
            raise RsaError("modulus too small for key transport")
        if rng is None:
            padding = bytes((b % 255) + 1 for b in os.urandom(pad_len))
        else:
            padding = bytes(rng.randrange(1, 256) for _ in range(pad_len))
        block = _ENC_PREFIX + padding + b"\x00" + session.key
        m = int.from_bytes(block, "big")
        if m >= self.n:
            raise RsaError("message representative out of range")
        c = powmod(m, self.e, self.n)
        rsa_block = c.to_bytes(self.byte_length, "big")
        sealed = aead_seal(session, plaintext, rng=rng)
        return len(rsa_block).to_bytes(2, "big") + rsa_block + sealed

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check an RSA signature over SHA-256(*message*)."""
        if len(signature) != self.byte_length:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        m = powmod(s, self.e, self.n)
        expected = int.from_bytes(_SIG_PREFIX + sha256(message), "big")
        return m == expected


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA key pair: the public key, the private exponent *d*, and the
    primes with their CRT exponents (``dp = d mod p-1``, ``dq = d mod
    q-1``, ``qinv = q^-1 mod p``) that the private-key operations use."""

    public: RsaPublicKey
    d: int
    p: int = field(repr=False)
    q: int = field(repr=False)
    dp: int = field(repr=False)
    dq: int = field(repr=False)
    qinv: int = field(repr=False)

    @classmethod
    def generate(cls, bits: int = 1024, rng=None) -> "RsaKeyPair":
        """Generate a key pair with a *bits*-bit modulus.

        Without an explicit *rng*, key material comes from the
        sanctioned system-entropy helper — the one place the
        determinism checker whitelists (see :mod:`repro.crypto.rng`).
        """
        if rng is None:
            rng = system_rng()
        e = 65537
        while True:
            p = _random_prime(bits // 2, rng)
            q = _random_prime(bits - bits // 2, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % e == 0:
                continue
            d = pow(e, -1, phi)
            return cls(public=RsaPublicKey(n=n, e=e), d=d, p=p, q=q,
                       dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p))

    def _private(self, x: int) -> int:
        """``pow(x, d, n)`` by the Chinese remainder theorem."""
        mp = powmod(x % self.p, self.dp, self.p)
        mq = powmod(x % self.q, self.dq, self.q)
        return mq + (self.qinv * (mp - mq) % self.p) * self.q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`RsaPublicKey.encrypt`."""
        if len(ciphertext) < 2:
            raise RsaError("ciphertext too short")
        rsa_len = int.from_bytes(ciphertext[:2], "big")
        if rsa_len != self.public.byte_length:
            raise RsaError("ciphertext key-transport length mismatch")
        if len(ciphertext) < 2 + rsa_len:
            raise RsaError("truncated ciphertext")
        rsa_block = ciphertext[2:2 + rsa_len]
        sealed = ciphertext[2 + rsa_len:]
        c = int.from_bytes(rsa_block, "big")
        if c >= self.public.n:
            raise RsaError("ciphertext representative out of range")
        block = self._private(c).to_bytes(self.public.byte_length, "big")
        if not block.startswith(_ENC_PREFIX):
            raise RsaError("bad key-transport padding")
        try:
            sep = block.index(b"\x00", len(_ENC_PREFIX))
        except ValueError as exc:
            raise RsaError("bad key-transport padding") from exc
        session_key = block[sep + 1:]
        if len(session_key) != 32:
            raise RsaError("bad transported key length")
        try:
            return aead_open(AeadKey(session_key), sealed)
        except AeadError as exc:
            raise RsaError("payload authentication failed") from exc

    def sign(self, message: bytes) -> bytes:
        """RSA-sign SHA-256(*message*)."""
        m = int.from_bytes(_SIG_PREFIX + sha256(message), "big")
        if m >= self.public.n:
            raise RsaError("modulus too small to sign")
        return self._private(m).to_bytes(self.public.byte_length, "big")
