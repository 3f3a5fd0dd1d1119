"""Exporter round-trips: JSON-lines traces and Prometheus snapshots."""

from __future__ import annotations

import json

import pytest

from repro.obs.clock import ManualClock
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.export import (_escape, _unescape, chrome_trace,
                              parse_sample_name, prometheus_snapshot,
                              sample_key, span_to_dict, trace_to_jsonl)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, TraceSink

pytestmark = pytest.mark.obs


def _sample_spans():
    clock = ManualClock()
    tracer = Tracer(clock=clock, sink=TraceSink())
    root = tracer.start_span("search", attributes={"k": 3})
    clock.advance(0.25)
    child = tracer.start_span("engine", parent=root)
    clock.advance(0.5)
    tracer.end_span(child)
    tracer.end_span(root)
    return tracer.sink.spans


def test_trace_jsonl_round_trip():
    spans = _sample_spans()
    records = [json.loads(line) for line in trace_to_jsonl(spans).splitlines()]
    assert records == [span_to_dict(s) for s in spans]
    assert records[1]["attributes"] == {"k": 3}
    assert records[0]["parent_id"] == records[1]["span_id"]


def _distributed_spans():
    return [
        Span("search", "trace-000001", 1, None, 0.0, 2.0,
             {"node": "client"}),
        Span("path", "trace-000001", 2, 1, 0.0, 1.5,
             {"node": "client", "path": 1}),
        Span("relay.forward", "trace-000001", 3, 2, 0.25, 1.25,
             {"node": "relay-a", "path": 1}),
    ]


def test_chrome_trace_layout():
    payload = json.loads(chrome_trace(_distributed_spans()))
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    # one process per node, metadata first
    assert [e["args"]["name"] for e in meta] == ["client", "relay-a"]
    assert events[:len(meta)] == meta
    assert len(complete) == 3
    by_name = {e["name"]: e for e in complete}
    # microsecond scaling and leg-as-thread layout
    assert by_name["relay.forward"]["ts"] == pytest.approx(0.25e6)
    assert by_name["relay.forward"]["dur"] == pytest.approx(1.0e6)
    assert by_name["relay.forward"]["tid"] == 1
    assert by_name["search"]["tid"] == 0
    assert by_name["search"]["pid"] != by_name["relay.forward"]["pid"]
    assert by_name["path"]["args"]["parent_id"] == 1
    assert by_name["path"]["cat"] == "trace-000001"


def test_chrome_trace_dedupes_filters_and_skips_unfinished():
    spans = _distributed_spans()
    spans.append(spans[2])  # same span via a second sink
    spans.append(Span("open", "trace-000001", 9, 1, 0.1, None, {}))
    spans.append(Span("other", "trace-000002", 10, None, 0.0, 1.0, {}))
    payload = json.loads(chrome_trace(spans, trace_id="trace-000001"))
    names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
    assert sorted(names) == ["path", "relay.forward", "search"]


def test_chrome_trace_is_deterministic():
    assert chrome_trace(_distributed_spans()) == \
        chrome_trace(_distributed_spans())


def test_chrome_trace_empty_input():
    payload = json.loads(chrome_trace([]))
    assert payload["traceEvents"] == []


def test_prometheus_snapshot_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("cyclosa_q_total", "queries", mode="real").inc(3)
    registry.gauge("cyclosa_pages", "committed pages").set(17)
    text = prometheus_snapshot(registry)
    assert "# HELP cyclosa_q_total queries" in text
    assert "# TYPE cyclosa_q_total counter" in text
    assert 'cyclosa_q_total{mode="real"} 3' in text
    assert "# TYPE cyclosa_pages gauge" in text
    assert "cyclosa_pages 17" in text


def test_prometheus_snapshot_histogram_shape():
    registry = MetricsRegistry()
    hist = registry.histogram("cyclosa_lat_seconds", "latency",
                              buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    samples = dict(line.rsplit(" ", 1) for line
                   in prometheus_snapshot(registry).splitlines()
                   if not line.startswith("#"))
    assert samples['cyclosa_lat_seconds_bucket{le="0.1"}'] == "1"
    assert samples['cyclosa_lat_seconds_bucket{le="1"}'] == "2"
    assert samples['cyclosa_lat_seconds_bucket{le="+Inf"}'] == "3"
    assert samples["cyclosa_lat_seconds_count"] == "3"
    assert float(samples["cyclosa_lat_seconds_sum"]) == pytest.approx(5.55)


def test_prometheus_header_emitted_once_per_family():
    registry = MetricsRegistry()
    registry.counter("cyclosa_r_total", "rounds", mode="push").inc()
    registry.counter("cyclosa_r_total", "rounds", mode="push_pull").inc()
    text = prometheus_snapshot(registry)
    assert text.count("# TYPE cyclosa_r_total counter") == 1
    assert text.count("cyclosa_r_total{") == 2


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("cyclosa_e_total", gate='we"ird\\name').inc()
    text = prometheus_snapshot(registry)
    assert 'gate="we\\"ird\\\\name"' in text


def test_empty_registry_snapshot_is_empty():
    assert prometheus_snapshot(MetricsRegistry()) == ""


# -- sample-key round-trip ---------------------------------------------


def test_sample_key_sorts_labels_canonically():
    assert sample_key("cyclosa_x", {"b": "2", "a": "1"}) == \
        'cyclosa_x{a="1",b="2"}'
    assert sample_key("cyclosa_x", {}) == "cyclosa_x"


def test_parse_sample_name_inverts_sample_key():
    labels = {"status": "ok", "gate": 'we"ird\\name', "nl": "a\nb"}
    name, parsed = parse_sample_name(sample_key("cyclosa_x", labels))
    assert name == "cyclosa_x"
    assert parsed == labels
    assert parse_sample_name("cyclosa_plain") == ("cyclosa_plain", {})


def test_unescape_inverts_escape():
    tricky = 'plain we"ird \\ back\\slash line\nbreak tail\\'
    assert _unescape(_escape(tricky)) == tricky


@given(st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
    st.text(min_size=0, max_size=32), max_size=4))
def test_sample_key_round_trip_property(labels):
    """parse_sample_name is a true inverse of sample_key for any label
    values the escaper can carry (quotes, backslashes, newlines...)."""
    name, parsed = parse_sample_name(sample_key("cyclosa_prop", labels))
    assert name == "cyclosa_prop"
    assert parsed == labels


@given(st.text(min_size=0, max_size=64))
def test_escape_round_trip_property(value):
    assert _unescape(_escape(value)) == value
