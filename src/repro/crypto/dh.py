"""Finite-field Diffie-Hellman key agreement.

Used by the TLS-like secure channels (:mod:`repro.net.tls`) and by the
attestation handshake to establish per-session AEAD keys between
enclaves. We use the 2048-bit MODP group from RFC 3526 (group 14) by
default; a small test group is provided for speed-sensitive property
tests.

Both exponentiations, the public value ``g^x mod p`` and the shared
secret, run in OpenSSL through :func:`repro.crypto.bignum.powmod`,
which returns the same integer as ``pow``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.crypto.bignum import powmod

# RFC 3526, group 14 (2048-bit MODP). Generator 2.
_MODP_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
)


@dataclass(frozen=True)
class DhParams:
    """A Diffie-Hellman group: safe prime *p* and generator *g*."""

    p: int
    g: int

    @classmethod
    def rfc3526_group14(cls) -> "DhParams":
        """The standard 2048-bit MODP group (production default)."""
        return cls(p=int(_MODP_2048_HEX, 16), g=2)

    @classmethod
    def small_test_group(cls) -> "DhParams":
        """A 127-bit group for fast tests. NOT for real security margins.

        Uses the Mersenne prime 2^127 - 1 with generator 3; the subgroup
        structure is irrelevant for functional tests.
        """
        return cls(p=(1 << 127) - 1, g=3)

    def public_from_private(self, private: int) -> int:
        """Compute g^private mod p."""
        return powmod(self.g, private, self.p)


@dataclass(frozen=True)
class DhKeyPair:
    """An ephemeral DH key pair bound to its group parameters."""

    params: DhParams
    private: int
    public: int

    @classmethod
    def generate(cls, params: DhParams | None = None, rng=None) -> "DhKeyPair":
        """Generate a fresh key pair (seeded via *rng* when provided)."""
        if params is None:
            params = DhParams.rfc3526_group14()
        nbits = max(256, params.p.bit_length() // 8)
        if rng is None:
            private = int.from_bytes(os.urandom(nbits // 8), "big")
        else:
            private = rng.getrandbits(nbits)
        private = (private % (params.p - 3)) + 2  # in [2, p-2]
        return cls(params=params,
                   private=private,
                   public=params.public_from_private(private))

    def shared_secret(self, peer_public: int) -> bytes:
        """Raw DH shared secret with a peer's public value, as bytes."""
        if not 2 <= peer_public <= self.params.p - 2:
            raise ValueError("peer public value out of range")
        secret = powmod(peer_public, self.private, self.params.p)
        length = (self.params.p.bit_length() + 7) // 8
        return secret.to_bytes(length, "big")
