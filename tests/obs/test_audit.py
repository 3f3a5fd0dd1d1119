"""Telemetry privacy audit: planted leaks are caught, healthy
deployments pass, and real/fake legs are indistinguishable (property
test). The ``test_gate_*`` tests are the leak gate: the telemetry,
cache-indistinguishability and profile-output audits at the gate's
seeded workload (query text never leaves the enclave, §VI-a)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.audit import (FORBIDDEN_ATTRIBUTE_KEYS, AuditReport,
                             AuditViolation, audit_path_indistinguishability,
                             audit_span_attributes, audit_wire_metadata,
                             run_telemetry_audit)
from repro.obs.distributed import assemble
from repro.obs.trace import Span

pytestmark = pytest.mark.obs

TRACE = "trace-000777"


@dataclass
class FakeWireRecord:
    """The TracedMessage surface :func:`audit_wire_metadata` reads."""

    kind: str = "forward"
    src: str = "node000"
    dst: str = "node001"
    wire_image: Optional[bytes] = None


# -- wire privacy --------------------------------------------------------


def test_wire_audit_passes_on_clean_records():
    records = [FakeWireRecord(wire_image=b"\x00\x01sealed-opaque-bytes")]
    scanned = []
    violations = audit_wire_metadata(records, [TRACE], ["flu symptoms"],
                                     scanned=scanned)
    assert violations == [] and scanned == [1]


def test_wire_audit_catches_trace_id_in_payload():
    records = [FakeWireRecord(
        wire_image=b"header:" + TRACE.encode() + b":rest")]
    violations = audit_wire_metadata(records, [TRACE], [])
    assert len(violations) == 1
    assert violations[0].check == "wire"
    assert TRACE in violations[0].detail


def test_wire_audit_catches_query_text_in_kind():
    records = [FakeWireRecord(kind="forward:flu symptoms")]
    violations = audit_wire_metadata(records, [], ["flu symptoms"])
    assert [v.check for v in violations] == ["wire"]


# -- span attribute hygiene ----------------------------------------------


def _span(name, span_id, parent_id=None, start=0.0, end=1.0, **attributes):
    return Span(name=name, trace_id=TRACE, span_id=span_id,
                parent_id=parent_id, start=start, end=end,
                attributes=attributes)


def test_span_audit_passes_on_hygienic_attributes():
    spans = [_span("engine.serve", 1, node="engine", path=0,
                   status="ok", hits=5, query_bucket=17)]
    assert audit_span_attributes(spans, ["flu symptoms"]) == []


@pytest.mark.parametrize("key", sorted(FORBIDDEN_ATTRIBUTE_KEYS))
def test_span_audit_flags_every_forbidden_key(key):
    spans = [_span("relay.forward", 1, **{key: "x"})]
    violations = audit_span_attributes(spans, [])
    assert len(violations) == 1 and violations[0].check == "span-attr"
    assert repr(key) in violations[0].detail


def test_span_audit_flags_query_text_in_values():
    spans = [_span("engine.serve", 1, note="served flu symptoms fast")]
    violations = audit_span_attributes(spans, ["flu symptoms"])
    assert [v.check for v in violations] == ["span-attr"]


# -- path indistinguishability -------------------------------------------


def _two_leg_trace(second_leg_extra=None):
    spans = [
        _span("search", 1, None, 0.0, 5.0, node="client"),
        _span("path", 2, 1, 0.0, 2.0, node="client", path=0,
              relay="relay-a"),
        _span("relay.forward", 3, 2, 0.5, 1.5, node="relay-a", path=0),
        _span("path", 4, 1, 0.0, 3.0, node="client", path=1,
              relay="relay-b"),
        _span("relay.forward", 5, 4, 0.5, 2.5, node="relay-b", path=1,
              **(second_leg_extra or {})),
    ]
    return assemble(TRACE, spans)


def test_shape_audit_passes_when_legs_match():
    assert audit_path_indistinguishability(_two_leg_trace()) == []


def test_shape_audit_flags_attribute_key_asymmetry():
    # an extra key on one leg's relay span distinguishes it
    trace = _two_leg_trace(second_leg_extra={"retries": 1})
    violations = audit_path_indistinguishability(trace)
    assert [v.check for v in violations] == ["path-shape"]
    assert "leg 1" in violations[0].detail


def test_shape_audit_ignores_client_side_asymmetry():
    # the client may annotate its own spans (it knows its query);
    # only remote spans are compared.
    spans = [
        _span("search", 1, None, 0.0, 5.0, node="client"),
        _span("path", 2, 1, 0.0, 2.0, node="client", path=0, engine=True),
        _span("relay.forward", 3, 2, 0.5, 1.5, node="relay-a", path=0),
        _span("path", 4, 1, 0.0, 3.0, node="client", path=1),
        _span("relay.forward", 5, 4, 0.5, 2.5, node="relay-b", path=1),
    ]
    assert audit_path_indistinguishability(assemble(TRACE, spans)) == []


def test_shape_audit_skips_single_leg_traces():
    spans = [
        _span("search", 1, None, 0.0, 5.0, node="client"),
        _span("relay.forward", 2, 1, 0.5, 1.5, node="relay-a", path=0),
    ]
    assert audit_path_indistinguishability(assemble(TRACE, spans)) == []


def test_report_format_carries_verdict_and_counts():
    report = AuditReport(messages_scanned=10, spans_scanned=20,
                         traces_checked=2)
    assert "PASS" in report.format() and report.ok
    report.violations.append(AuditViolation("wire", "leak"))
    rendered = report.format()
    assert "FAIL" in rendered and "[wire] leak" in rendered


# -- the leak gate: the three audits at the gate workload ----------------

#: Gate workload: three queries on a 16-node deployment at seed 3; the
#: cache and profile audits run on 8 nodes of the same seed.
GATE_QUERIES = ["flu symptoms treatment", "cheap flights paris",
                "python generator tutorial"]
GATE_SEED = 3
GATE_DRAIN = 60.0


def test_gate_telemetry_audit_passes():
    from repro.core.client import CyclosaNetwork

    deployment = CyclosaNetwork.create(num_nodes=16, seed=GATE_SEED,
                                       observe=True)
    report = run_telemetry_audit(deployment, GATE_QUERIES,
                                 drain_seconds=GATE_DRAIN)
    assert report.ok, report.format()


def test_gate_cache_audit_passes():
    from repro.core.client import CyclosaNetwork
    from repro.core.config import CyclosaConfig

    def make_deployment(with_cache: bool) -> CyclosaNetwork:
        return CyclosaNetwork.create(
            num_nodes=8, seed=GATE_SEED,
            config=CyclosaConfig(
                engine_replicas=2,
                engine_cache_size=256 if with_cache else None))

    # Hit-heavy: every query repeats, so the caches genuinely serve
    # from memory while the wire must not change.
    report = obs.audit_cache_indistinguishability(
        make_deployment, GATE_QUERIES * 2, drain_seconds=GATE_DRAIN)
    assert report.ok, report.violations


def test_gate_profile_audit_passes():
    from repro.experiments import profiling

    report = profiling.run_scenario("search", seed=GATE_SEED, nodes=8,
                                    searches=len(GATE_QUERIES), heap=False)
    assert obs.audit_profile_output(
        report["collapsed"], report["cpu"], report["audit_needles"]) == []


# -- the live deployment -------------------------------------------------


@pytest.fixture(scope="module")
def audited_deployment():
    """One audited run, cached: (report, assembled traces, client node).

    Captured before the autouse ``_reset_obs`` fixture wipes the
    global obs state between tests.
    """
    from repro.core.client import CyclosaNetwork

    obs.disable(reset=True)
    deployment = CyclosaNetwork.create(num_nodes=16, seed=5, observe=True)
    queries = ["flu symptoms treatment", "cheap flights paris"]
    report = run_telemetry_audit(deployment, queries, drain_seconds=60.0)
    # drive two more searches whose trace ids we hold explicitly — the
    # sink also contains background/blending searches whose legs may
    # still be in flight, which would make a poor property-test corpus.
    results = [deployment.node(index).search(query)
               for index, query in enumerate(queries)]
    deployment.run(60.0)
    traces = [deployment.assembled_trace(result.trace_id)
              for result in results]
    obs.disable(reset=True)
    return report, traces


def test_live_deployment_passes_the_full_audit(audited_deployment):
    report, traces = audited_deployment
    assert report.ok, report.format()
    assert report.messages_scanned > 0
    assert report.spans_scanned > 0
    assert report.traces_checked == 2
    assert len(traces) == 2


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_real_and_fake_legs_are_shape_indistinguishable(
        audited_deployment, data):
    """Property: pick any trace and any two fan-out legs — the spans
    other nodes emitted for them have identical shapes (same names,
    same attribute keys). Path 0 carries the real query, so this is
    exactly real/fake indistinguishability from the telemetry stream.
    """
    from repro.obs.audit import PATH_SCOPED_SPANS, _path_shape

    _, traces = audited_deployment
    trace = data.draw(st.sampled_from(traces))
    client = trace.root.attributes["node"]
    legs = {}
    for span in trace.spans:
        if span.name not in PATH_SCOPED_SPANS:
            continue
        if span.attributes.get("node", client) == client:
            continue
        path = span.attributes.get("path")
        if isinstance(path, int):
            legs.setdefault(path, []).append(span)
    assert len(legs) >= 2
    first, second = data.draw(
        st.tuples(st.sampled_from(sorted(legs)),
                  st.sampled_from(sorted(legs))))
    assert _path_shape(legs[first]) == _path_shape(legs[second])
