"""Remote attestation: quotes and a simulated Intel Attestation Service.

CYCLOSA's bootstrap (§V-D) requires every connecting peer to prove it
runs a *genuine* enclave with a *known* measurement before any key
material is exchanged. The flow simulated here mirrors EPID-style
attestation:

1. The enclave binds a value (e.g. its DH public key) into a local
   report (`EREPORT`).
2. The platform's quoting facility signs the report into a
   :class:`Quote` with its provisioned attestation key.
3. The verifier submits the quote to the :class:`IntelAttestationService`
   (IAS), which checks the platform signature.
4. The verifier separately pins the measurement against its own list of
   known-good enclave builds (IAS vouches for *genuineness*, not for
   *which code* — that check is the relying party's).

Byzantine peers in the evaluation exercise every failure branch:
unknown platforms, forged signatures, unknown measurements and (under
the fault injector's IAS denial) revoked platforms are all rejected
before any query material flows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.crypto.rsa import RsaPublicKey
from repro.sgx.errors import SgxError


class AttestationError(SgxError):
    """Raised when an attestation exchange cannot proceed at all."""


class QuoteStatus(enum.Enum):
    """IAS verification verdicts (subset of the real report statuses)."""

    OK = "OK"
    SIGNATURE_INVALID = "SIGNATURE_INVALID"
    UNKNOWN_PLATFORM = "UNKNOWN_PLATFORM"
    GROUP_REVOKED = "GROUP_REVOKED"


@dataclass(frozen=True)
class Quote:
    """A platform-signed statement: *this measurement ran here and said
    report_data*."""

    platform_id: int
    measurement: bytes
    report_data: bytes
    signature: bytes

    @staticmethod
    def body_bytes(platform_id: int, measurement: bytes,
                   report_data: bytes) -> bytes:
        """Canonical byte encoding of the signed portion."""
        return b"|".join([
            b"repro.sgx.quote.v1",
            platform_id.to_bytes(8, "big"),
            measurement,
            report_data,
        ])


@dataclass(frozen=True)
class VerificationReport:
    """The IAS response for one quote."""

    status: QuoteStatus
    platform_id: int
    measurement: bytes

    @property
    def ok(self) -> bool:
        return self.status is QuoteStatus.OK


class IntelAttestationService:
    """Simulated IAS: a registry of provisioned platforms.

    Platforms register their attestation public key out of band (in
    reality: during manufacturing / EPID provisioning). Verification
    checks the quote signature against the registered key.
    """

    def __init__(self) -> None:
        self._platforms: Dict[int, RsaPublicKey] = {}

    def provision(self, platform_id: int, attestation_public: RsaPublicKey) -> None:
        """Register a platform's attestation key."""
        self._platforms[platform_id] = attestation_public

    def provision_host(self, host) -> None:
        """Convenience: provision an :class:`~repro.sgx.enclave.EnclaveHost`."""
        self.provision(host.platform_id, host.attestation_key.public)

    def verify(self, quote: Quote) -> VerificationReport:
        """Check one quote; never raises — always returns a report."""
        key = self._platforms.get(quote.platform_id)
        if key is None:
            status = QuoteStatus.UNKNOWN_PLATFORM
        else:
            body = Quote.body_bytes(
                quote.platform_id, quote.measurement, quote.report_data)
            if key.verify(body, quote.signature):
                status = QuoteStatus.OK
            else:
                status = QuoteStatus.SIGNATURE_INVALID
        return VerificationReport(
            status=status,
            platform_id=quote.platform_id,
            measurement=quote.measurement,
        )


class MeasurementPolicy:
    """The relying party's list of known-good enclave measurements."""

    def __init__(self, allowed: Iterable[bytes] = ()) -> None:
        self._allowed: Set[bytes] = set(allowed)

    def allow_class(self, enclave_cls) -> None:
        """Allow every instance of an :class:`Enclave` subclass."""
        self._allowed.add(enclave_cls.measurement())

    def permits(self, measurement: bytes) -> bool:
        return measurement in self._allowed


def attest_quote(ias: IntelAttestationService, policy: MeasurementPolicy,
                 quote: Quote) -> VerificationReport:
    """Full relying-party check: IAS genuineness + measurement pinning.

    Raises :class:`AttestationError` if either fails; returns the OK
    report otherwise. This is the gate every CYCLOSA node applies before
    exchanging session keys with a peer (§V-D, §VI-a).
    """
    report = ias.verify(quote)
    if not report.ok:
        raise AttestationError(f"IAS rejected quote: {report.status.value}")
    if not policy.permits(quote.measurement):
        raise AttestationError("quote is genuine but measurement is unknown")
    return report
