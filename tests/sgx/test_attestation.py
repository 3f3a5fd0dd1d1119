"""Tests for repro.sgx.attestation: quotes, IAS, measurement pinning."""

import random

import pytest

from repro.sgx.attestation import (
    AttestationError,
    IntelAttestationService,
    MeasurementPolicy,
    Quote,
    QuoteStatus,
    attest_quote,
)
from repro.sgx.enclave import Enclave, EnclaveHost, ecall


class AttestedEnclave(Enclave):
    ENCLAVE_VERSION = "1"
    BASE_FOOTPRINT_BYTES = 4096

    @ecall
    def ping(self):
        return "pong"


class RogueEnclave(Enclave):
    ENCLAVE_VERSION = "666"
    BASE_FOOTPRINT_BYTES = 4096


@pytest.fixture
def host():
    return EnclaveHost(random.Random(3))


@pytest.fixture
def ias(host):
    service = IntelAttestationService()
    service.provision_host(host)
    return service


@pytest.fixture
def policy():
    policy = MeasurementPolicy()
    policy.allow_class(AttestedEnclave)
    return policy


@pytest.fixture
def quote(host):
    enclave = host.create_enclave(AttestedEnclave)
    return host.quote_report(enclave.create_report(b"bound-data"))


class TestIasVerification:
    def test_genuine_quote_ok(self, ias, quote):
        assert ias.verify(quote).status is QuoteStatus.OK

    def test_unknown_platform(self, quote):
        empty_ias = IntelAttestationService()
        assert (empty_ias.verify(quote).status
                is QuoteStatus.UNKNOWN_PLATFORM)

    def test_forged_signature(self, ias, quote):
        forged = Quote(
            platform_id=quote.platform_id,
            measurement=quote.measurement,
            report_data=b"tampered",  # signature no longer matches
            signature=quote.signature)
        assert ias.verify(forged).status is QuoteStatus.SIGNATURE_INVALID

    def test_signature_from_wrong_platform(self, ias, host, quote):
        other_host = EnclaveHost(random.Random(4))
        ias.provision_host(other_host)
        cross = Quote(
            platform_id=other_host.platform_id,
            measurement=quote.measurement,
            report_data=quote.report_data,
            signature=quote.signature)  # signed by the first platform
        assert ias.verify(cross).status is QuoteStatus.SIGNATURE_INVALID


class TestRelyingPartyGate:
    def test_accepts_known_measurement(self, ias, policy, quote):
        report = attest_quote(ias, policy, quote)
        assert report.ok

    def test_rejects_unknown_measurement(self, ias, host, policy):
        rogue = host.create_enclave(RogueEnclave)
        quote = host.quote_report(rogue.create_report(b"d"))
        # IAS says genuine (the platform is real), but the measurement
        # is not a known CYCLOSA build — the relying party must refuse.
        assert ias.verify(quote).ok
        with pytest.raises(AttestationError):
            attest_quote(ias, policy, quote)

    def test_rejects_ias_failure(self, policy, quote):
        with pytest.raises(AttestationError):
            attest_quote(IntelAttestationService(), policy, quote)

    def test_policy_allow_raw_measurement(self, ias, quote):
        policy = MeasurementPolicy([quote.measurement])
        assert attest_quote(ias, policy, quote).ok

    def test_empty_policy_permits_nothing(self):
        assert not MeasurementPolicy().permits(b"anything")
