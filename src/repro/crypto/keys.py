"""Key containers: node identities.

Every simulated node (CYCLOSA peers, TOR relays, PEAS servers, the
search engine front-end) owns an :class:`IdentityKeyPair` — a long-term
RSA signing/decryption key plus a stable fingerprint used as its wire
identity in directories, gossip descriptors and attestation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey


@dataclass(frozen=True)
class IdentityKeyPair:
    """A node's long-term identity: RSA key pair + fingerprint."""

    rsa: RsaKeyPair
    fingerprint: bytes = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fingerprint", self.rsa.public.fingerprint())

    @classmethod
    def generate(cls, bits: int = 1024, rng=None) -> "IdentityKeyPair":
        """Generate a fresh identity (deterministic when *rng* is seeded)."""
        return cls(rsa=RsaKeyPair.generate(bits=bits, rng=rng))

    @property
    def public(self) -> RsaPublicKey:
        return self.rsa.public
