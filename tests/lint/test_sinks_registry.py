"""The static and runtime sink lists must be the same objects.

If :mod:`repro.obs.audit` (runtime) and :mod:`repro.lint.pdg`
(static) each kept their own list of adversary-visible sinks, adding a
telemetry surface could silently widen one and not the other. These
tests pin both consumers to :mod:`repro.obs.sinks`.
"""

import pytest

from repro.lint import RULES
from repro.net.trace import MessageTrace
from repro.obs import audit, sinks

pytestmark = pytest.mark.lint


def test_audit_uses_the_registry_objects():
    # identity, not equality: audit must re-export, not copy.
    assert audit.FORBIDDEN_ATTRIBUTE_KEYS is sinks.FORBIDDEN_ATTRIBUTE_KEYS
    assert audit.PATH_SCOPED_SPANS is sinks.PATH_SCOPED_SPANS


def test_runtime_wire_tap_is_a_static_sink():
    assert MessageTrace.TAP_METHOD == sinks.RUNTIME_WIRE_TAP
    assert MessageTrace.TAP_METHOD in sinks.WIRE_EGRESS_CALLS


def test_static_taint_pass_reads_the_registry():
    from repro.lint import pdg, taint

    assert pdg.sinks is sinks
    assert taint.sinks is sinks


def test_registry_contents_are_frozen():
    for name in ("FORBIDDEN_ATTRIBUTE_KEYS", "PATH_SCOPED_SPANS",
                 "WIRE_EGRESS_CALLS", "LOG_METHOD_CALLS",
                 "LOG_RECEIVER_NAMES", "SPAN_FACTORY_CALLS",
                 "METRIC_FACTORY_CALLS"):
        assert isinstance(getattr(sinks, name), frozenset), name


def test_facade_exports_the_registry():
    import repro.obs as obs

    assert obs.sinks is sinks
    assert obs.FORBIDDEN_ATTRIBUTE_KEYS is sinks.FORBIDDEN_ATTRIBUTE_KEYS


def test_rule_catalogue_covers_the_taint_sinks():
    # every sink family has a rule a finding can carry
    for rule in ("taint-wire", "taint-log", "taint-telemetry",
                 "span-forbidden-key"):
        assert rule in RULES
