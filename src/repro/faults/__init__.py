"""repro.faults — deterministic fault injection for the §VI-b path.

The paper's adversary may "behave arbitrarily by crashing" (§III);
CYCLOSA's answer is timeout → blacklist → retry (§VI-b). This package
makes that failure path systematically testable:

- :mod:`repro.faults.plan` — seeded, composable fault plans: per-link
  / per-kind drop, delay, duplication, corruption; crash-after-receive
  silence; attestation denial; engine rate-limit storms.
- :mod:`repro.faults.inject` — interceptors realising a plan over a
  live deployment (wrapping ``Network.send``/``_deliver``, the IAS and
  the engine rate limiter) without touching protocol code, with obs
  counters/spans per injection.
- :mod:`repro.faults.chaos` — the fault-matrix harness behind
  ``repro chaos`` and the chaos gate (``TestGate`` in
  ``tests/faults/test_chaos.py``): per-cell success
  rate, statuses, retries, latency, and the zero-hung-searches /
  relay-disjointness invariants.

See ``docs/robustness.md``.
"""

from repro.faults.chaos import (ChaosCell, default_matrix, format_report,
                                matrix_cells, report_json, run_cell,
                                run_matrix)
from repro.faults.inject import (FaultInjectionError, FaultInjector,
                                 InstalledPlan, install)
from repro.faults.plan import (Corrupt, CrashAfterReceive, Delay,
                               DenyAttestation, Drop, Duplicate, FaultPlan,
                               FORWARD_REQUESTS, MATCH_ALL, MessageMatch,
                               RateLimitStorm, RPC_RESPONSES, describe_fault)

__all__ = [
    "ChaosCell",
    "Corrupt",
    "CrashAfterReceive",
    "Delay",
    "DenyAttestation",
    "Drop",
    "Duplicate",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FORWARD_REQUESTS",
    "InstalledPlan",
    "MATCH_ALL",
    "MessageMatch",
    "RateLimitStorm",
    "RPC_RESPONSES",
    "default_matrix",
    "describe_fault",
    "format_report",
    "install",
    "matrix_cells",
    "report_json",
    "run_cell",
    "run_matrix",
]
