"""Multiple enclaves sharing one platform."""

import random

import pytest

from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy, attest_quote
from repro.sgx.enclave import Enclave, EnclaveHost, ecall
from repro.sgx.epc import EnclavePageCache, PAGE_SIZE


class WorkerEnclave(Enclave):
    ENCLAVE_VERSION = "1"
    BASE_FOOTPRINT_BYTES = 8192

    @ecall
    def remember(self, key, value):
        self.trusted[key] = value

    @ecall
    def recall(self, key):
        return self.trusted.get(key)


class OtherEnclave(WorkerEnclave):
    ENCLAVE_VERSION = "other"


@pytest.fixture
def host():
    return EnclaveHost(random.Random(17))


class TestSharedPlatform:
    def test_enclaves_have_isolated_state(self, host):
        first = host.create_enclave(WorkerEnclave)
        second = host.create_enclave(WorkerEnclave)
        first.remember("k", "first")
        second.remember("k", "second")
        assert first.recall("k") == "first"
        assert second.recall("k") == "second"

    def test_shared_epc_accounting(self, host):
        first = host.create_enclave(WorkerEnclave)
        second = host.create_enclave(WorkerEnclave)
        baseline = host.epc.committed_pages
        first.trusted_alloc(10 * PAGE_SIZE)
        second.trusted_alloc(5 * PAGE_SIZE)
        assert host.epc.committed_pages == baseline + 15

    def test_one_enclave_can_page_out_its_neighbour(self):
        """EPC pressure is platform-wide: a bloated co-tenant slows
        *everyone's* memory accesses — the noisy-neighbour effect of
        SGX v1 machines."""
        host = EnclaveHost(random.Random(18),
                           epc=EnclavePageCache(
                               capacity_bytes=64 * PAGE_SIZE))
        victim = host.create_enclave(WorkerEnclave)
        cost_before = host.epc.access_cost(PAGE_SIZE)
        hog = host.create_enclave(WorkerEnclave)
        hog.trusted_alloc(200 * PAGE_SIZE)
        cost_after = host.epc.access_cost(PAGE_SIZE)
        assert cost_after > 10 * cost_before
        del victim

    def test_destroying_one_frees_pressure(self, host):
        small_epc_host = EnclaveHost(random.Random(19),
                                     epc=EnclavePageCache(
                                         capacity_bytes=64 * PAGE_SIZE))
        hog = small_epc_host.create_enclave(WorkerEnclave)
        hog.trusted_alloc(200 * PAGE_SIZE)
        assert small_epc_host.epc.paging_ratio() > 0
        small_epc_host.destroy_enclave(hog)
        assert small_epc_host.epc.paging_ratio() == 0.0

    def test_quotes_distinguish_co_tenant_builds(self, host):
        worker = host.create_enclave(WorkerEnclave)
        other = host.create_enclave(OtherEnclave)
        ias = IntelAttestationService()
        ias.provision_host(host)
        policy = MeasurementPolicy()
        policy.allow_class(WorkerEnclave)
        worker_quote = host.quote_report(worker.create_report(b"d"))
        other_quote = host.quote_report(other.create_report(b"d"))
        assert attest_quote(ias, policy, worker_quote).ok
        from repro.sgx.attestation import AttestationError

        with pytest.raises(AttestationError):
            attest_quote(ias, policy, other_quote)

    def test_same_platform_id_in_both_quotes(self, host):
        first = host.create_enclave(WorkerEnclave)
        second = host.create_enclave(OtherEnclave)
        ias = IntelAttestationService()
        ias.provision_host(host)
        quote_a = host.quote_report(first.create_report(b"x"))
        quote_b = host.quote_report(second.create_report(b"x"))
        assert quote_a.platform_id == quote_b.platform_id
        assert ias.verify(quote_a).ok and ias.verify(quote_b).ok
