"""Sealed storage: persist enclave secrets to untrusted disk.

A sealing key is derived from a per-platform seal secret and the enclave
measurement (MRENCLAVE policy): the same enclave build on the same
platform can unseal; any other enclave, or the untrusted host, or the
same enclave on another platform, cannot. CYCLOSA uses this to let a
node's past-queries table survive browser restarts without ever exposing
other users' queries to the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AeadError, AeadKey, open_ as aead_open, seal as aead_seal
from repro.crypto.hashes import hkdf
from repro.crypto.rng import random_bytes
from repro.sgx.errors import SgxError


class SealingError(SgxError):
    """Raised when a blob cannot be unsealed (wrong enclave/platform)."""


@dataclass(frozen=True)
class SealedBlob:
    """An opaque sealed payload plus the public metadata needed to route
    it back to the right enclave."""

    measurement: bytes
    platform_id: int
    ciphertext: bytes


class SealingService:
    """Per-platform sealing, keyed by a secret fused into the CPU.

    The host exposes the service, but the derivation binds the enclave
    measurement, so the host learns nothing it could decrypt.
    """

    def __init__(self, platform_id: int, rng) -> None:
        self.platform_id = platform_id
        self._seal_secret = random_bytes(rng, 32)

    def _key_for(self, measurement: bytes) -> AeadKey:
        material = hkdf(self._seal_secret, b"repro.sgx.seal:" + measurement, 32)
        return AeadKey(material)

    def seal(self, measurement: bytes, plaintext: bytes, rng=None) -> SealedBlob:
        """Seal *plaintext* to (this platform, *measurement*)."""
        ciphertext = aead_seal(self._key_for(measurement), plaintext,
                               associated_data=measurement, rng=rng)
        return SealedBlob(measurement=measurement,
                          platform_id=self.platform_id,
                          ciphertext=ciphertext)

    def unseal(self, measurement: bytes, blob: SealedBlob) -> bytes:
        """Unseal a blob; fails unless platform and measurement match."""
        if blob.platform_id != self.platform_id:
            raise SealingError("sealed on a different platform")
        if blob.measurement != measurement:
            raise SealingError("sealed for a different enclave measurement")
        try:
            return aead_open(self._key_for(measurement), blob.ciphertext,
                             associated_data=measurement)
        except AeadError as exc:
            raise SealingError("sealed blob failed authentication") from exc
