"""End-to-end regression: a protected search emits the six pipeline
stages, in order, and the metrics snapshot carries the SGX counters."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.client import CyclosaNetwork
from repro.obs.breakdown import (PIPELINE_STAGES, format_breakdown,
                                 root_span, stage_breakdown)
from repro.obs.export import prometheus_snapshot

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def traced_search():
    """One observed deployment + one completed search (module-scoped:
    building the overlay is the expensive part)."""
    deployment = CyclosaNetwork.create(num_nodes=8, seed=3, observe=True)
    result = deployment.node(0).search("test query")
    spans = obs.get_tracer().sink.spans
    snapshot = prometheus_snapshot(obs.get_registry())
    obs.disable()
    return deployment, result, spans, snapshot


def test_search_result_carries_trace_id(traced_search):
    _, result, spans, _ = traced_search
    assert result.ok
    assert result.trace_id is not None
    assert any(s.trace_id == result.trace_id for s in spans)


def test_all_six_stages_present_with_monotonic_starts(traced_search):
    _, result, spans, _ = traced_search
    rows = stage_breakdown(spans, trace_id=result.trace_id)
    stages = [row.stage for row in rows if row.stage in PIPELINE_STAGES]
    assert stages == list(PIPELINE_STAGES)
    starts = [row.start for row in rows if row.stage in PIPELINE_STAGES]
    assert starts == sorted(starts)


def test_stage_spans_parent_to_the_search_root(traced_search):
    _, result, spans, _ = traced_search
    root = root_span(spans, trace_id=result.trace_id)
    assert root is not None and root.finished
    assert root.attributes["k"] == result.k
    for span in spans:
        if span.trace_id == result.trace_id \
                and span.name in PIPELINE_STAGES:
            assert span.parent_id == root.span_id
            assert root.start <= span.start
            assert span.end <= root.end + 1e-9


def test_root_duration_matches_reported_latency(traced_search):
    # The root may extend past the reported latency by the modelled
    # response-filtering charge (microseconds), never by more.
    _, result, spans, _ = traced_search
    root = root_span(spans, trace_id=result.trace_id)
    assert root.duration == pytest.approx(result.latency, abs=1e-3)
    assert root.duration >= result.latency


def test_snapshot_includes_sgx_crossing_and_epc_counters(traced_search):
    _, _, _, snapshot = traced_search
    samples = {key: float(value) for key, value in (
        line.rsplit(" ", 1) for line in snapshot.splitlines()
        if not line.startswith("#"))}
    ecalls = [key for key in samples
              if key.startswith("cyclosa_sgx_ecalls_total")]
    assert ecalls, "no ecall counters in the snapshot"
    assert samples["cyclosa_sgx_crossings_total"] > 0
    assert "cyclosa_sgx_epc_faults_total" in samples
    assert samples["cyclosa_net_messages_total"] > 0
    assert samples["cyclosa_core_searches_total"] >= 1


def test_breakdown_table_renders(traced_search):
    _, result, spans, _ = traced_search
    rows = stage_breakdown(spans, trace_id=result.trace_id)
    root = root_span(spans, trace_id=result.trace_id)
    table = format_breakdown(rows, total=root.duration, t0=root.start)
    for stage in PIPELINE_STAGES:
        assert stage in table
    assert "end-to-end" in table


def test_disabled_by_default_emits_nothing():
    obs.disable(reset=True)
    deployment = CyclosaNetwork.create(num_nodes=6, seed=5,
                                       warmup_seconds=20.0)
    result = deployment.node(0).search("another query")
    assert result.ok
    assert result.trace_id is None
    assert obs.get_tracer().sink.spans == []
    assert obs.get_registry().names() == []
