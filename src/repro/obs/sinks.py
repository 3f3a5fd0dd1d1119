"""The shared sink registry: one definition of "adversary-visible".

CYCLOSA's privacy argument is checked twice in this repository:

- **at runtime** by :mod:`repro.obs.audit`, which wiretaps a live
  deployment and scans everything the adversary can observe, and
- **statically** by ``repro lint``'s taint analysis
  (:mod:`repro.lint.pdg` records these sinks, :mod:`repro.lint.paths`
  reports every source→sink flow into them), which tracks query-text
  data flow over the AST of every module without running anything.

Both checks are only as good as their list of *sinks* — the calls and
attribute keys through which data becomes wire-visible or
log-visible. If the two lists could drift apart, a new telemetry
surface could be added that the static pass knows about but the
runtime audit does not (or vice versa), and the weaker list would
silently win. This module is therefore the single source of truth;
``tests/lint/test_sinks_registry.py`` asserts both consumers use
these exact objects.

Nothing here imports anything outside the standard library, so both
low layers (``repro.net.trace``) and the analysis tooling can depend
on it without cycles.
"""

from __future__ import annotations

# -- span / metric attribute hygiene --------------------------------------

#: Attribute keys that would mark a span as belonging to the real (or
#: a fake) query's path, or leak protocol secrets outright. The
#: runtime audit rejects spans carrying them; the static pass rejects
#: literal uses of them in span-attribute expressions.
FORBIDDEN_ATTRIBUTE_KEYS = frozenset({
    "is_fake", "is_real", "real", "fake", "token", "true_user",
    "query", "query_text", "text", "plaintext",
})

#: Span names scoped to one fan-out leg; the runtime
#: indistinguishability check compares their shapes across the k+1
#: paths of one protected search.
PATH_SCOPED_SPANS = frozenset({
    "path", "relay.forward", "relay.unwrap", "relay.respond",
    "engine.serve", "sgx.ecall",
})

# -- wire egress ----------------------------------------------------------

#: The method :class:`repro.net.trace.MessageTrace` hooks to capture
#: every transmission — the runtime definition of "on the wire".
RUNTIME_WIRE_TAP = "send"

#: Call names whose arguments reach the (simulated) wire: the
#: transport egress surface (``Network.send``, ``NetNode.send``,
#: ``NetNode.request``, ``RequestContext.respond``) plus the canonical
#: payload encoder. The static taint pass treats a query-text flow
#: into any of these, outside enclave-trusted scope, as a leak. The
#: runtime tap point must be (and is asserted to be) a member.
WIRE_EGRESS_CALLS = frozenset({
    RUNTIME_WIRE_TAP, "request", "respond",
})

#: ``repro.net.wire.encode`` — payloads pass through here on their way
#: to the wire when they are not already sealed bytes. Referenced as
#: ``<module>.<func>`` by the static pass.
WIRE_ENCODER = ("wire", "encode")

# -- log-visible sinks ----------------------------------------------------

#: Logger method names (on ``logging``/``logger``-like receivers)
#: whose message arguments end up in log files.
LOG_METHOD_CALLS = frozenset({
    "debug", "info", "warning", "warn", "error", "critical",
    "exception", "log",
})

#: Receiver names the static pass recognises as loggers.
LOG_RECEIVER_NAMES = frozenset({"logging", "logger", "log", "LOGGER", "LOG"})

# -- telemetry sinks ------------------------------------------------------

#: Span factories accepting an ``attributes=`` mapping.
SPAN_FACTORY_CALLS = frozenset({"start_span", "open_remote_span"})

#: Metric factories whose label keyword arguments become label values
#: in the Prometheus snapshot.
METRIC_FACTORY_CALLS = frozenset({"counter", "gauge", "histogram"})
