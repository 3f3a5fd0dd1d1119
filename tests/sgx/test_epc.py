"""Tests for repro.sgx.epc: accounting and the paging cliff."""

import pytest
from hypothesis import given, strategies as st

from repro.sgx.epc import (
    DEFAULT_EPC_BYTES,
    EnclavePageCache,
    EpcError,
    PAGE_SIZE,
    PAGED_ACCESS_COST,
    RESIDENT_ACCESS_COST,
)


@pytest.fixture
def epc():
    cache = EnclavePageCache(capacity_bytes=1024 * PAGE_SIZE)
    cache.register(1)
    return cache


class TestAccounting:
    def test_default_capacity_is_128mb(self):
        assert EnclavePageCache().capacity_bytes == DEFAULT_EPC_BYTES

    def test_allocation_rounds_to_pages(self, epc):
        epc.allocate(1, 1)
        assert epc.committed_pages == 1

    def test_allocate_zero_is_noop(self, epc):
        epc.allocate(1, 0)
        assert epc.committed_pages == 0

    def test_negative_sizes_rejected(self, epc):
        with pytest.raises(EpcError):
            epc.allocate(1, -1)

    def test_unregistered_enclave_rejected(self, epc):
        with pytest.raises(EpcError):
            epc.allocate(99, PAGE_SIZE)

    def test_double_register_rejected(self, epc):
        with pytest.raises(EpcError):
            epc.register(1)

    def test_release_frees_everything(self, epc):
        epc.allocate(1, 100 * PAGE_SIZE)
        epc.release(1)
        assert epc.committed_pages == 0

    def test_multiple_enclaves_share_pool(self, epc):
        epc.register(2)
        epc.allocate(1, 10 * PAGE_SIZE)
        epc.allocate(2, 20 * PAGE_SIZE)
        assert epc.committed_pages == 30


class TestPagingCliff:
    def test_no_paging_under_capacity(self, epc):
        epc.allocate(1, 1000 * PAGE_SIZE)
        assert epc.paging_ratio() == 0.0

    def test_paging_over_capacity(self, epc):
        epc.allocate(1, 2048 * PAGE_SIZE)
        assert epc.paging_ratio() == pytest.approx(0.5)

    def test_overcommit_allowed(self, epc):
        # SGX v1 over-commits and pages; allocation never fails.
        epc.allocate(1, 10_000 * PAGE_SIZE)
        assert epc.committed_pages == 10_000

    def test_access_cost_resident(self, epc):
        epc.allocate(1, 10 * PAGE_SIZE)
        assert epc.access_cost(PAGE_SIZE) == pytest.approx(RESIDENT_ACCESS_COST)

    def test_access_cost_cliff(self, epc):
        epc.allocate(1, 2048 * PAGE_SIZE)  # 50 % paged
        cost = epc.access_cost(PAGE_SIZE)
        assert cost > 100 * RESIDENT_ACCESS_COST
        assert cost < PAGED_ACCESS_COST

    def test_access_cost_scales_with_bytes(self, epc):
        assert (epc.access_cost(10 * PAGE_SIZE)
                == pytest.approx(10 * epc.access_cost(PAGE_SIZE)))

    def test_cyclosa_enclave_fits_without_paging(self):
        # The §V-F claim: a 1.7 MB enclave never pages on a 128 MB EPC.
        epc = EnclavePageCache()
        epc.register(1)
        epc.allocate(1, 1_700_000)
        assert epc.paging_ratio() == 0.0

    @given(st.integers(min_value=0, max_value=4096))
    def test_property_ratio_bounds(self, pages):
        epc = EnclavePageCache(capacity_bytes=1024 * PAGE_SIZE)
        epc.register(1)
        epc.allocate(1, pages * PAGE_SIZE)
        assert 0.0 <= epc.paging_ratio() < 1.0
