"""``repro.lint`` — static trust-boundary, taint and determinism analysis.

PR 3 added a *dynamic* privacy audit (:mod:`repro.obs.audit`): wiretap
a live deployment, scan what the adversary sees. Dynamic checks only
cover executed paths; this package is the static complement, in the
spirit of DoubleX's data-flow analysis for browser-extension privacy
(Fass et al., CCS 2021). Everything runs over the AST of every module
under ``src/repro`` — no imports, no execution, no dependencies beyond
the standard library.

One taint analysis tracks query text from source to sink across the
whole program: a program-dependence graph per module
(:mod:`repro.lint.pdg`), linked through the import table
(:mod:`repro.lint.linking`) and walked by one path query
(:mod:`repro.lint.paths`). Sources are query-text bindings
(``.text``/``.query`` attribute reads, ``query``-named parameters);
sinks are the shared registry :mod:`repro.obs.sinks` (wire egress,
print/logging, exception messages, span/metric attributes);
enclave-trusted scope and adversary-model packages are sanctioned
(the tables live in :mod:`repro.lint.taint`). A direct flow reports
under its sink's rule (``taint-wire``, ``taint-print``, ``taint-log``,
``taint-exception``, ``taint-telemetry``); a flow through calls or
object fields reports as ``taint-interprocedural`` or
``taint-field-flow`` with a full source→sink witness path.

Four per-module checkers run next to it:

- :mod:`repro.lint.taint` — ``span-forbidden-key``: literal span and
  metric attribute keys the telemetry audit forbids.
- :mod:`repro.lint.enclave` — the ecall discipline of
  :mod:`repro.sgx`: enclave-private state (``self.trusted``) only
  inside ``@ecall`` gates, and no imports of enclave-internal symbols.
- :mod:`repro.lint.determinism` — the byte-identical-figures
  contract: no wall clocks, no system entropy, no module-global
  ``random`` outside the sanctioned scopes (``repro.crypto``,
  ``repro.obs.clock``).
- :mod:`repro.lint.layering` — the import DAG (protected packages
  never import ``cli``/``experiments``/``baselines``/``perf``; the
  observability subsystem is only reachable through its facade).

Run it with ``python -m repro lint`` (see ``docs/static-analysis.md``);
the lint gate in ``tests/lint/test_cli_and_gate.py`` holds ``src/``
clean against the baseline. Grandfathered
findings live in the reviewed baseline file ``lint-baseline.txt``;
deliberate per-line exceptions use ``# lint: allow(rule-id)`` pragmas
(:mod:`repro.lint.baseline`).
"""

from __future__ import annotations

from repro.lint.baseline import (Baseline, format_baseline, load_baseline,
                                 scan_pragmas)
from repro.lint.engine import (SourceModule, collect_modules, default_root,
                               run_lint)
from repro.lint.findings import RULES, Finding, findings_to_json, format_text

__all__ = [
    "Finding",
    "RULES",
    "findings_to_json",
    "format_text",
    "Baseline",
    "load_baseline",
    "format_baseline",
    "scan_pragmas",
    "SourceModule",
    "collect_modules",
    "default_root",
    "run_lint",
]
