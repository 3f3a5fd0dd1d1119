"""Enclave lifecycle, the ecall gate and the crossing cost model.

An :class:`Enclave` subclass is the simulation's unit of trusted code.
Methods decorated with :func:`ecall` are its only entry points; inside
them, ``self.trusted`` exposes the enclave's private state. Touching
``trusted`` from outside an ecall raises
:class:`~repro.sgx.errors.EnclaveIsolationError` — the simulated
equivalent of the MEE returning ciphertext to a curious host.

Costs: every gate crossing (ecall enter and exit) charges
:data:`CROSSING_COST` simulated seconds to the host's meter, and
trusted-memory traffic is charged through the shared
:class:`~repro.sgx.epc.EnclavePageCache`. The network layer reads the
meter to advance simulated time, which is how SGX overheads end up in
the latency CDFs of Figures 8a-8c.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.crypto.hashes import constant_time_equal, hkdf, hmac_sha256, sha256
from repro.crypto.keys import IdentityKeyPair
from repro.crypto.rng import random_bytes
from repro.obs import OBS, close_remote_span, open_remote_span
from repro.sgx.epc import EnclavePageCache
from repro.sgx.errors import EnclaveError, EnclaveIsolationError

# One gate crossing is ~8,000-12,000 cycles on Skylake (≈3 µs at 3 GHz);
# an ecall round-trip is two crossings.
CROSSING_COST = 3e-6

# In-enclave crypto: a fixed setup cost per AEAD operation plus a
# per-byte term (~300 MB/s sustained for authenticated encryption with
# the MEE in the path). Enclave subclasses charge this for every
# seal/open they perform; it dominates the relay service time and thus
# the saturation throughput of Fig 8c.
CRYPTO_OP_COST = 2e-6
CRYPTO_COST_PER_BYTE = 3e-9

#: Buckets for the CostMeter charge histogram: individual charges run
#: from a single crossing (µs) to paged-EPC bulk traffic (ms).
METER_CHARGE_BUCKETS = (1e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
                        1e-3, 1e-2, 1e-1)

_ECALL_MARK = "_repro_sgx_ecall"


def _emit_gate_span(name: str, gate: str, remote, charged: float) -> None:
    """Record one gate transition as a span of a distributed trace.

    *remote* is the active ``OBS.remote`` tuple ``(node, TraceContext)``
    set via :func:`repro.obs.remote_context` by whichever protocol step
    is driving the enclave; *charged* is the simulated seconds this
    gate added to the cost meter (crossings + EPC + any crypto inside),
    which becomes the span's width. Attributes carry only the node,
    fan-out path and gate name — never payload contents.
    """
    node, ctx = remote
    span = open_remote_span(OBS.tracer, name, ctx, node=node,
                            attributes={"gate": gate})
    close_remote_span(OBS.router, node, span,
                      end_time=span.start + max(0.0, charged))


def ecall(fn: Callable) -> Callable:
    """Mark a method as a trusted entry point (an ``ecall``).

    The wrapper performs the call-gate bookkeeping: verifies the enclave
    is alive, charges two crossings (enter + exit), flips the
    inside-enclave flag for the duration of the call, and charges EPC
    access cost proportional to the enclave's declared working set.
    """

    gate_name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self: "Enclave", *args: Any, **kwargs: Any) -> Any:
        self._check_alive()
        remote = None
        meter_before = 0.0
        if OBS.enabled:
            registry = OBS.registry
            registry.counter(
                "cyclosa_sgx_ecalls_total",
                "ecall entries through the call gate",
                gate=gate_name).inc()
            registry.counter(
                "cyclosa_sgx_crossings_total",
                "gate crossings (ecall enter/exit, ocall exit/re-enter)").inc(2)
            registry.counter(
                "cyclosa_sgx_crossing_seconds_total",
                "simulated seconds spent crossing the call gate").inc(
                    2 * CROSSING_COST)
            remote = OBS.remote
            if remote is not None:
                meter_before = self._host.meter.total
        self._host.meter.charge(2 * CROSSING_COST)
        self._host.meter.charge(
            self._host.epc.access_cost(self._touched_bytes_per_call))
        self._depth += 1
        try:
            return fn(self, *args, **kwargs)
        finally:
            self._depth -= 1
            if remote is not None and OBS.enabled:
                _emit_gate_span("sgx.ecall", gate_name, remote,
                                self._host.meter.total - meter_before)

    setattr(wrapper, _ECALL_MARK, True)
    return wrapper


@dataclass
class CostMeter:
    """Accumulates simulated seconds of SGX overhead.

    The discrete-event layer drains it with :meth:`take` after driving
    enclave code, converting CPU-side costs into simulated time.
    """

    total: float = 0.0
    _unclaimed: float = 0.0

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative cost")
        if OBS.enabled:
            OBS.registry.histogram(
                "cyclosa_sgx_meter_charge_seconds",
                "per-charge SGX overhead (crossings, EPC traffic, crypto)",
                buckets=METER_CHARGE_BUCKETS).observe(seconds)
        self.total += seconds
        self._unclaimed += seconds

    def take(self) -> float:
        """Return and reset the cost accrued since the last call."""
        taken = self._unclaimed
        self._unclaimed = 0.0
        return taken


class _TrustedState(dict):
    """Enclave-private key/value state (plain dict; access is gated)."""


class Enclave:
    """Base class for trusted code units.

    Subclasses declare:

    - ``ENCLAVE_VERSION``: bumped on any trusted-code change; part of the
      measurement, so old and new versions attest differently.
    - ecall methods via the :func:`ecall` decorator.
    - optionally ``BASE_FOOTPRINT_BYTES``: static trusted code+data size
      charged to the EPC at creation (CYCLOSA's enclave is 1.7 MB).
    """

    ENCLAVE_VERSION = "1"
    BASE_FOOTPRINT_BYTES = 1_700_000  # paper §V-F: 1.7 MB with mbedTLS
    #: Thread Control Structures: how many ecalls can execute
    #: concurrently (Fig 3: "executed by one of the enclave's threads").
    #: Used by the saturation models as the server count.
    NUM_TCS = 1

    def __init__(self, host: "EnclaveHost", enclave_id: int, rng) -> None:
        self._host = host
        self._enclave_id = enclave_id
        self._depth = 0
        self._destroyed = False
        self._trusted = _TrustedState()
        self._touched_bytes_per_call = 4096
        # Keys generated *inside* the enclave at start-up (§VI-a): the
        # report key authenticates local reports; the session identity
        # is used for post-attestation secure channels.
        self._report_key = hkdf(random_bytes(rng, 32),
                                b"repro.sgx.report", 32)
        self.identity = IdentityKeyPair.generate(bits=512, rng=rng)

    # -- identity ----------------------------------------------------

    @classmethod
    def measurement(cls) -> bytes:
        """MRENCLAVE: a stable hash of the trusted code identity.

        Computed from the class's qualified name, declared version and
        the sorted list of its ecall entry points — any change to the
        trusted interface or version changes the measurement, so remote
        attesters can pin known-good builds.

        Computed once per class and kept in the class's own ``__dict__``
        (every quote and sealed blob asks for it), so a subclass never
        inherits its parent's value.
        """
        cached = cls.__dict__.get("_mrenclave")
        if cached is None:
            gates = sorted(
                name for name in dir(cls)
                if getattr(getattr(cls, name, None), _ECALL_MARK, False))
            payload = "|".join([cls.__module__, cls.__qualname__,
                                cls.ENCLAVE_VERSION, *gates])
            cached = sha256(b"repro.sgx.mrenclave:", payload.encode("utf-8"))
            cls._mrenclave = cached
        return cached

    @property
    def enclave_id(self) -> int:
        return self._enclave_id

    # -- isolation gate ----------------------------------------------

    @property
    def trusted(self) -> _TrustedState:
        """Enclave-private state; only reachable from inside an ecall."""
        if self._depth == 0:
            raise EnclaveIsolationError(
                "attempt to read enclave memory from untrusted code")
        return self._trusted

    def _check_alive(self) -> None:
        if self._destroyed:
            raise EnclaveError("ecall into destroyed enclave")

    # -- memory -------------------------------------------------------

    def trusted_alloc(self, nbytes: int) -> None:
        """Grow the enclave heap (charged against the shared EPC)."""
        self._host.epc.allocate(self._enclave_id, nbytes)

    def charge_crypto(self, nbytes: int, operations: int = 1) -> None:
        """Charge the cost of *operations* AEAD ops over *nbytes* total."""
        if nbytes < 0 or operations < 0:
            raise ValueError("crypto cost arguments must be non-negative")
        self._host.meter.charge(
            operations * CRYPTO_OP_COST + nbytes * CRYPTO_COST_PER_BYTE)

    def set_touched_bytes_per_call(self, nbytes: int) -> None:
        """Declare the working set an average ecall touches.

        Used by the cost model: calls touching more memory pay more,
        especially once the platform EPC is over-committed.
        """
        if nbytes <= 0:
            raise ValueError("working set must be positive")
        self._touched_bytes_per_call = nbytes

    # -- local reports (consumed by attestation) ----------------------

    def create_report(self, report_data: bytes) -> "LocalReport":
        """Produce a MACed local report binding *report_data* to this
        enclave's measurement (the EREPORT analogue)."""
        measurement = type(self).measurement()
        mac = hmac_sha256(self._report_key, measurement, report_data)
        return LocalReport(
            enclave_id=self._enclave_id,
            measurement=measurement,
            report_data=report_data,
            mac=mac,
        )

    def _verify_report_mac(self, report: "LocalReport") -> bool:
        expected = hmac_sha256(
            self._report_key, report.measurement, report.report_data)
        return constant_time_equal(expected, report.mac)


@dataclass(frozen=True)
class LocalReport:
    """EREPORT analogue: measurement + user data, MACed by the enclave."""

    enclave_id: int
    measurement: bytes
    report_data: bytes
    mac: bytes


class EnclaveHost:
    """One SGX-capable platform: EPC, cost meter, quoting.

    The host is the *untrusted* side — it can observe everything except
    enclave-private state, can refuse service (DoS is out of scope per
    §III), but cannot forge quotes for measurements it does not run.
    """

    _platform_counter = itertools.count(1)

    def __init__(self, rng, epc: Optional[EnclavePageCache] = None) -> None:
        self.platform_id = next(self._platform_counter)
        self.epc = epc if epc is not None else EnclavePageCache()
        self.meter = CostMeter()
        self._rng = rng
        self._enclaves: Dict[int, Enclave] = {}
        self._next_enclave_id = itertools.count(1)
        # Platform attestation key, provisioned to the (simulated) IAS
        # out of band; quotes are signed with it.
        self.attestation_key = IdentityKeyPair.generate(bits=512, rng=rng)

    # -- lifecycle ----------------------------------------------------

    def create_enclave(self, enclave_cls, *args: Any, **kwargs: Any) -> Enclave:
        """ECREATE/EINIT analogue: instantiate trusted code, charge its
        static footprint to the EPC."""
        if not issubclass(enclave_cls, Enclave):
            raise EnclaveError("enclave classes must derive from Enclave")
        enclave_id = next(self._next_enclave_id)
        self.epc.register(enclave_id)
        enclave = enclave_cls(self, enclave_id, self._rng, *args, **kwargs)
        self.epc.allocate(enclave_id, enclave_cls.BASE_FOOTPRINT_BYTES)
        self._enclaves[enclave_id] = enclave
        # Enclave creation is expensive (EPC zeroing + measurement).
        self.meter.charge(50 * CROSSING_COST)
        return enclave

    def destroy_enclave(self, enclave: Enclave) -> None:
        """EREMOVE analogue: wipe trusted state and free EPC pages."""
        enclave._destroyed = True
        enclave._trusted.clear()
        self.epc.release(enclave.enclave_id)
        self._enclaves.pop(enclave.enclave_id, None)

    # -- quoting ------------------------------------------------------

    def quote_report(self, report: LocalReport):
        """Quoting-enclave analogue: verify the local report came from an
        enclave on this platform, then sign it with the platform key.

        Returns a :class:`repro.sgx.attestation.Quote`.
        """
        from repro.sgx.attestation import Quote  # avoid import cycle

        enclave = self._enclaves.get(report.enclave_id)
        if enclave is None or not enclave._verify_report_mac(report):
            raise EnclaveError("local report does not verify on this platform")
        body = Quote.body_bytes(
            self.platform_id, report.measurement, report.report_data)
        signature = self.attestation_key.rsa.sign(body)
        return Quote(
            platform_id=self.platform_id,
            measurement=report.measurement,
            report_data=report.report_data,
            signature=signature,
        )
