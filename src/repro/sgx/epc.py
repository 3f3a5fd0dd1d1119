"""Enclave Page Cache (EPC) model.

SGX v1 backs all enclave memory with a fixed pool of encrypted pages,
128 MB in the hardware the paper targets. When the combined working set
of all enclaves on a platform exceeds the EPC, the SGX driver pages
enclave memory to ordinary RAM — re-encrypting and integrity-tagging
each page — at a cost one to two orders of magnitude above a normal
access (§II-B cites SecureKeeper and SCONE measurements).

The paper's headline systems claim (§V-F) is that the CYCLOSA enclave is
only **1.7 MB**, so it never pages and sustains 40 k req/s. This module
gives the simulation the accounting needed to *demonstrate* that claim
and its converse (the ablation bench grows the working set past the
cliff and watches throughput collapse).

All costs are expressed in simulated seconds and consumed by the
discrete-event loop; nothing here touches wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs import OBS
from repro.sgx.errors import SgxError

PAGE_SIZE = 4096
DEFAULT_EPC_BYTES = 128 * 1024 * 1024

# Calibrated per-access costs (seconds). A resident EPC access is close
# to a normal cache/DRAM access; a paged access pays EWB/ELDU transitions
# plus re-encryption, measured at tens of microseconds in the literature.
RESIDENT_ACCESS_COST = 2e-8
PAGED_ACCESS_COST = 4e-5


class EpcError(SgxError):
    """Raised when an enclave allocation cannot be represented."""


@dataclass
class EpcRegion:
    """Pages charged to one enclave."""

    enclave_id: int
    pages: int = 0


@dataclass
class EnclavePageCache:
    """Platform-wide EPC: a fixed page budget shared by all enclaves.

    Tracks per-enclave committed pages and answers the single question
    the cost model needs: *what does one memory access cost right now?*
    When total committed pages fit in the EPC, every access is resident.
    When they exceed it, a fraction of accesses (proportional to the
    overflow) hit swapped pages and pay :data:`PAGED_ACCESS_COST`.
    """

    capacity_bytes: int = DEFAULT_EPC_BYTES
    _regions: Dict[int, EpcRegion] = field(default_factory=dict)
    #: Expected page faults served so far (fractional: past the cliff,
    #: each access faults on the overflow fraction of its pages).
    faults: float = 0.0
    #: Pages pushed out of the EPC by over-commit (EWB analogue),
    #: counted when an allocation grows the overflow.
    evictions: int = 0

    @property
    def capacity_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    @property
    def committed_pages(self) -> int:
        return sum(region.pages for region in self._regions.values())

    def register(self, enclave_id: int) -> None:
        """Create an (empty) accounting region for a new enclave."""
        if enclave_id in self._regions:
            raise EpcError(f"enclave {enclave_id} already registered")
        self._regions[enclave_id] = EpcRegion(enclave_id=enclave_id)

    def release(self, enclave_id: int) -> None:
        """Free every page of a destroyed enclave."""
        self._regions.pop(enclave_id, None)

    def allocate(self, enclave_id: int, nbytes: int) -> None:
        """Charge *nbytes* (rounded up to pages) to an enclave.

        SGX v1 has no dynamic EPC limit per enclave — over-commit is
        allowed and simply triggers paging — so this never fails except
        for unregistered enclaves or negative sizes.
        """
        if nbytes < 0:
            raise EpcError("allocation size must be non-negative")
        region = self._regions.get(enclave_id)
        if region is None:
            raise EpcError(f"enclave {enclave_id} not registered")
        overflow_before = max(0, self.committed_pages - self.capacity_pages)
        region.pages += -(-nbytes // PAGE_SIZE)
        overflow_after = max(0, self.committed_pages - self.capacity_pages)
        if overflow_after > overflow_before:
            evicted = overflow_after - overflow_before
            self.evictions += evicted
            if OBS.enabled:
                OBS.registry.counter(
                    "cyclosa_sgx_epc_evictions_total",
                    "EPC pages evicted to untrusted RAM (EWB analogue)"
                ).inc(evicted)

    def paging_ratio(self) -> float:
        """Fraction of committed pages that live outside the EPC."""
        committed = self.committed_pages
        if committed <= self.capacity_pages or committed == 0:
            return 0.0
        return (committed - self.capacity_pages) / committed

    def access_cost(self, touched_bytes: int = PAGE_SIZE) -> float:
        """Simulated cost (seconds) of touching *touched_bytes* of
        enclave memory under the current residency mix.

        With no overflow this is the resident cost; past the EPC cliff
        the expected cost blends in the paging penalty proportionally to
        the overflow fraction — the cliff shape the ablation bench plots.
        """
        pages = max(1, -(-touched_bytes // PAGE_SIZE))
        ratio = self.paging_ratio()
        if OBS.enabled:
            # Register the fault counter even at zero faults: a
            # snapshot of a healthy run must *show* the no-paging
            # claim, not merely omit the metric.
            fault_counter = OBS.registry.counter(
                "cyclosa_sgx_epc_faults_total",
                "expected EPC page faults served (fractional past the "
                "paging cliff)")
            OBS.registry.gauge(
                "cyclosa_sgx_epc_committed_pages",
                "pages committed across all enclaves").set(
                    self.committed_pages)
            if ratio > 0.0:
                expected_faults = pages * ratio
                self.faults += expected_faults
                fault_counter.inc(expected_faults)
        elif ratio > 0.0:
            self.faults += pages * ratio
        per_page = (1.0 - ratio) * RESIDENT_ACCESS_COST + ratio * PAGED_ACCESS_COST
        return pages * per_page
