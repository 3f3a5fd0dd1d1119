"""Tests for repro.sgx.enclave: gates, isolation, costs, reports."""

import random

import pytest

from repro.sgx.enclave import (
    CROSSING_COST,
    CostMeter,
    Enclave,
    EnclaveHost,
    ecall,
)
from repro.sgx.errors import EnclaveError, EnclaveIsolationError


class KvEnclave(Enclave):
    """A tiny key-value enclave used across the tests."""

    ENCLAVE_VERSION = "1"
    BASE_FOOTPRINT_BYTES = 4096

    @ecall
    def put(self, key, value):
        self.trusted[key] = value

    @ecall
    def get(self, key):
        return self.trusted.get(key)

    def leak_attempt_from_untrusted(self):
        # NOT an ecall: direct access must fault.
        return self.trusted


class KvEnclaveV2(KvEnclave):
    ENCLAVE_VERSION = "2"


@pytest.fixture
def host():
    return EnclaveHost(random.Random(5))


@pytest.fixture
def enclave(host):
    return host.create_enclave(KvEnclave)


class TestIsolation:
    def test_ecall_reaches_trusted_state(self, enclave):
        enclave.put("a", 41)
        assert enclave.get("a") == 41

    def test_untrusted_access_raises(self, enclave):
        with pytest.raises(EnclaveIsolationError):
            enclave.leak_attempt_from_untrusted()

    def test_untrusted_property_access_raises(self, enclave):
        with pytest.raises(EnclaveIsolationError):
            _ = enclave.trusted


class TestLifecycle:
    def test_destroyed_enclave_rejects_ecalls(self, host, enclave):
        host.destroy_enclave(enclave)
        with pytest.raises(EnclaveError):
            enclave.get("a")

    def test_destroy_wipes_trusted_state(self, host, enclave):
        enclave.put("secret", "s3cr3t")
        host.destroy_enclave(enclave)
        assert enclave._trusted == {}

    def test_destroy_releases_epc(self, host, enclave):
        assert host.epc.committed_pages > 0
        host.destroy_enclave(enclave)
        assert host.epc.committed_pages == 0

    def test_non_enclave_class_rejected(self, host):
        class NotAnEnclave:
            pass

        with pytest.raises(EnclaveError):
            host.create_enclave(NotAnEnclave)


class TestMeasurement:
    def test_stable_per_class(self):
        assert KvEnclave.measurement() == KvEnclave.measurement()

    def test_version_changes_measurement(self):
        assert KvEnclave.measurement() != KvEnclaveV2.measurement()

    def test_different_classes_differ(self):
        class OtherEnclave(Enclave):
            ENCLAVE_VERSION = "1"

        assert KvEnclave.measurement() != OtherEnclave.measurement()

    def test_subclass_measured_after_parent_is_its_own(self):
        parent = KvEnclave.measurement()

        class Extended(KvEnclave):
            @ecall
            def extra(self):
                return None

        assert Extended.measurement() not in (parent, KvEnclaveV2.measurement())
        assert KvEnclave.measurement() is parent  # computed once per class


class TestCostModel:
    def test_ecall_charges_crossings(self, host, enclave):
        host.meter.take()
        enclave.get("a")
        assert host.meter.take() >= 2 * CROSSING_COST

    def test_charge_crypto_scales_with_bytes(self, host, enclave):
        enclave.put("x", 1)  # enter once so charge_crypto usable inside...
        host.meter.take()
        enclave.charge_crypto(0, operations=0)
        zero = host.meter.take()
        enclave.charge_crypto(1_000_000, operations=1)
        assert host.meter.take() > zero

    def test_charge_crypto_rejects_negative(self, enclave):
        with pytest.raises(ValueError):
            enclave.charge_crypto(-1)

    def test_meter_take_resets(self):
        meter = CostMeter()
        meter.charge(1.0)
        assert meter.take() == 1.0
        assert meter.take() == 0.0
        assert meter.total == 1.0

    def test_meter_rejects_negative(self):
        with pytest.raises(ValueError):
            CostMeter().charge(-0.1)

    def test_working_set_validation(self, enclave):
        with pytest.raises(ValueError):
            enclave.set_touched_bytes_per_call(0)


class TestReports:
    def test_report_binds_measurement_and_data(self, enclave):
        report = enclave.create_report(b"report-data")
        assert report.measurement == KvEnclave.measurement()
        assert report.report_data == b"report-data"
        assert enclave._verify_report_mac(report)

    def test_forged_report_mac_fails(self, enclave):
        report = enclave.create_report(b"data")
        forged = type(report)(
            enclave_id=report.enclave_id,
            measurement=report.measurement,
            report_data=b"other",
            mac=report.mac)
        assert not enclave._verify_report_mac(forged)

    def test_quote_roundtrip(self, host, enclave):
        report = enclave.create_report(b"data")
        quote = host.quote_report(report)
        assert quote.measurement == KvEnclave.measurement()
        assert quote.platform_id == host.platform_id

    def test_quote_of_foreign_report_rejected(self, host, enclave):
        other_host = EnclaveHost(random.Random(6))
        other = other_host.create_enclave(KvEnclave)
        report = other.create_report(b"data")
        with pytest.raises(EnclaveError):
            host.quote_report(report)
