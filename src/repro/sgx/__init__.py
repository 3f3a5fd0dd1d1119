"""Simulated Intel SGX enclave runtime.

The paper's trust model places every component that touches *other
users'* queries inside an SGX enclave. Python cannot run real enclaves,
so this package provides a behavioural simulation that preserves the
properties the rest of the system (and the evaluation) depends on:

- **Isolation discipline** (:mod:`repro.sgx.enclave`): trusted state is
  only reachable through registered ``ecall`` gates; reading it from
  untrusted code raises.
- **Cost model** (:mod:`repro.sgx.enclave`, :mod:`repro.sgx.epc`): each
  enclave crossing charges a calibrated latency, and enclave memory is
  accounted against the 128 MB EPC — exceeding it triggers a severe
  per-access paging penalty, reproducing the cliff reported for SGX v1.
- **Remote attestation** (:mod:`repro.sgx.attestation`): enclaves are
  measured (MRENCLAVE = hash of their code identity); platforms produce
  signed quotes; a simulated Intel Attestation Service verifies them.
  Key exchange is only completed after a quote verifies, exactly as in
  the paper's bootstrap (§V-D).
- **Sealed storage** (:mod:`repro.sgx.sealing`): data sealed to the
  enclave measurement survives restarts but is unreadable elsewhere.
"""

from repro.sgx.attestation import (
    AttestationError,
    IntelAttestationService,
    MeasurementPolicy,
    Quote,
    QuoteStatus,
    VerificationReport,
    attest_quote,
)
from repro.sgx.enclave import (
    CROSSING_COST,
    CostMeter,
    Enclave,
    EnclaveHost,
    LocalReport,
    ecall,
)
from repro.sgx.epc import PAGE_SIZE, EnclavePageCache, EpcError
from repro.sgx.errors import EnclaveError, EnclaveIsolationError, SgxError
from repro.sgx.sealing import SealedBlob, SealingError, SealingService

__all__ = [
    "AttestationError",
    "IntelAttestationService",
    "MeasurementPolicy",
    "Quote",
    "QuoteStatus",
    "VerificationReport",
    "attest_quote",
    "CROSSING_COST",
    "CostMeter",
    "Enclave",
    "EnclaveHost",
    "LocalReport",
    "ecall",
    "PAGE_SIZE",
    "EnclavePageCache",
    "EpcError",
    "EnclaveError",
    "EnclaveIsolationError",
    "SgxError",
    "SealedBlob",
    "SealingError",
    "SealingService",
]
