"""Distributed tracing: context codec, per-node sinks, assembly, and
the seeded end-to-end deployment guarantees."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.clock import ManualClock
from repro.obs.distributed import (SpanRouter, TraceContext, assemble,
                                   close_remote_span, open_remote_span,
                                   query_hash_bucket)
from repro.obs.trace import Span, Tracer, TraceSink

pytestmark = pytest.mark.obs


# -- TraceContext codec --------------------------------------------------


def test_traceparent_roundtrip():
    ctx = TraceContext("trace-000042", 123, path=7)
    assert TraceContext.from_traceparent(ctx.to_traceparent()) == ctx


def test_traceparent_format_is_fixed_width():
    one = TraceContext("trace-000001", 1, 0).to_traceparent()
    other = TraceContext("trace-000001", 0xFFFF, 3).to_traceparent()
    # Same shape for every leg: a record's size cannot betray its path.
    assert len(one) == len(other)
    assert one.startswith("00-trace-000001-")


@pytest.mark.parametrize("bad", [
    None, 42, "", "garbage", "01-trace-1-0000000000000001-00",
    "00--0000000000000001-00", "00-trace-1-nothex-00",
    "00-trace-1-0000000000000001-zz",
])
def test_malformed_traceparent_returns_none(bad):
    assert TraceContext.from_traceparent(bad) is None


def test_child_reparents_same_path():
    ctx = TraceContext("trace-000009", 5, path=2)
    child = ctx.child(77)
    assert child.trace_id == "trace-000009"
    assert child.parent_span_id == 77
    assert child.path == 2


def test_query_hash_bucket_stable_and_bounded():
    assert query_hash_bucket("flu symptoms") == query_hash_bucket(
        "flu symptoms")
    assert 0 <= query_hash_bucket("anything", buckets=16) < 16
    assert query_hash_bucket("a") != query_hash_bucket("b") or True  # bounded


# -- SpanRouter ----------------------------------------------------------


def _span(tracer, name, node, trace_id="trace-000001", parent=None):
    span = Span(name=name, trace_id=trace_id,
                span_id=tracer.reserve_span_id(), parent_id=parent,
                start=tracer.clock.now(), end=tracer.clock.now(),
                attributes={"node": node})
    return span


def test_router_keeps_per_node_sinks_bounded():
    router = SpanRouter(capacity_per_node=3)
    tracer = Tracer(clock=ManualClock(), sink=TraceSink())
    for i in range(5):
        router.record("relay-a", _span(tracer, f"s{i}", "relay-a"))
    router.record("relay-b", _span(tracer, "other", "relay-b"))
    assert len(router.sink("relay-a")) == 3
    assert router.dropped == 2
    assert sorted(router.nodes()) == ["relay-a", "relay-b"]
    assert len(router) == 4


# -- remote span helpers -------------------------------------------------


def test_open_remote_span_joins_context_not_local_stack():
    clock = ManualClock()
    tracer = Tracer(clock=clock, sink=TraceSink())
    router = SpanRouter()
    ctx = TraceContext("trace-000033", parent_span_id=9, path=4)
    with tracer.span("unrelated_local_work"):
        span = open_remote_span(tracer, "relay.forward", ctx, node="relay-x")
    assert span.trace_id == "trace-000033"
    assert span.parent_id == 9
    assert span.attributes["node"] == "relay-x"
    assert span.attributes["path"] == 4
    clock.advance(1.5)
    close_remote_span(router, "relay-x", span, clock=clock)
    assert span.finished and span.duration == pytest.approx(1.5)
    assert router.sink("relay-x").spans == [span]


def test_close_remote_span_is_idempotent():
    tracer = Tracer(clock=ManualClock(), sink=TraceSink())
    router = SpanRouter()
    ctx = TraceContext("trace-000001", 1, 0)
    span = open_remote_span(tracer, "x", ctx, node="n")
    close_remote_span(router, "n", span, end_time=span.start + 1.0)
    close_remote_span(router, "n", span, end_time=span.start + 9.0)
    assert span.duration == pytest.approx(1.0)
    assert len(router.sink("n")) == 1


# -- assemble ------------------------------------------------------------


def test_assemble_merges_sources_resolves_parentage_and_dedupes():
    clock = ManualClock()
    tracer = Tracer(clock=clock, sink=TraceSink())
    root = tracer.start_span("search")
    trace_id = root.trace_id
    leg_id = tracer.reserve_span_id()
    leg = Span("path", trace_id, leg_id, root.span_id, clock.now(),
               attributes={"path": 0})
    remote = open_remote_span(
        tracer, "relay.forward", TraceContext(trace_id, leg_id, 0),
        node="relay-a")
    clock.advance(2.0)
    for span in (remote, leg):
        span.end = clock.now()
    tracer.end_span(root)

    client = [root, leg]
    router_spans = [remote, remote]  # duplicated source: must dedupe
    trace = assemble(trace_id, client, router_spans)
    assert len(trace) == 3 and not trace.orphans
    assert trace.root is root
    assert trace.parent(remote) is leg
    assert [c.span_id for c in trace.children(leg)] == [remote.span_id]
    assert trace.by_node()["relay-a"] == [remote]
    assert _by_path(trace)[0] == [leg, remote]


def _by_path(trace):
    """Path-tagged spans grouped by fan-out leg."""
    grouped = {}
    for span in trace.spans:
        path = span.attributes.get("path")
        if isinstance(path, int):
            grouped.setdefault(path, []).append(span)
    return grouped


def test_assemble_reports_orphans_and_skips_unfinished():
    trace = assemble("trace-000001", [
        Span("a", "trace-000001", 1, None, 0.0, 1.0),
        Span("dangling", "trace-000001", 5, 99, 0.2, 0.4),
        Span("unfinished", "trace-000001", 6, 1, 0.1, None),
    ])
    assert [s.span_id for s in trace.spans] == [1, 5]
    assert [s.span_id for s in trace.orphans] == [5]


# -- seeded end-to-end deployment ----------------------------------------


@pytest.fixture(scope="module")
def traced_deployment():
    # The autouse ``_reset_obs`` fixture wipes the global obs state
    # before every test, so run the deployment once here and capture
    # the assembled trace + router *references* — they survive the
    # reset even though ``obs.OBS`` moves on.
    from repro.core.client import CyclosaNetwork

    obs.disable(reset=True)
    deployment = CyclosaNetwork.create(num_nodes=16, seed=7, observe=True)
    result = deployment.node(0).search("flu symptoms treatment")
    deployment.run(60.0)  # drain the fake legs' responses
    trace = deployment.assembled_trace(result.trace_id)
    router = obs.OBS.router
    obs.disable(reset=True)
    return result, trace, router


def test_e2e_assembled_trace_covers_all_k_plus_1_paths(traced_deployment):
    result, trace, _ = traced_deployment
    assert result.ok and result.k > 0
    assert trace.root is not None and trace.root.name == "search"
    assert not trace.orphans

    by_path = _by_path(trace)
    assert sorted(by_path) == list(range(result.k + 1))
    for path, spans in by_path.items():
        names = {s.name for s in spans}
        # every leg: client-side path span, relay residency, unwrap,
        # engine service, response wrap
        assert {"path", "relay.forward", "relay.unwrap",
                "engine.serve", "relay.respond"} <= names


def test_e2e_cross_node_parentage(traced_deployment):
    _, trace, _ = traced_deployment
    client = trace.root.attributes["node"]
    for span in trace.spans:
        if span.name == "relay.forward":
            parent = trace.parent(span)
            assert parent is not None and parent.name == "path"
            assert parent.attributes["node"] == client
            assert parent.attributes["path"] == span.attributes["path"]
            # the relay is a different machine than the client
            assert span.attributes["node"] != client
        if span.name == "engine.serve":
            parent = trace.parent(span)
            assert parent is not None and parent.name == "relay.forward"
            assert span.attributes["node"] == "engine"


def test_e2e_relay_spans_sit_in_their_nodes_sinks(traced_deployment):
    _, trace, router = traced_deployment
    for span in trace.spans:
        if span.name.startswith("relay."):
            node = span.attributes["node"]
            assert span in router.sink(node).spans


def test_e2e_assembled_trace_is_byte_deterministic():
    from repro.core.client import CyclosaNetwork
    from repro.obs.export import chrome_trace, trace_to_jsonl

    def one_run():
        obs.disable(reset=True)
        deployment = CyclosaNetwork.create(num_nodes=12, seed=21,
                                           observe=True)
        result = deployment.node(0).search("deterministic tracing")
        deployment.run(60.0)
        trace = deployment.assembled_trace(result.trace_id)
        return trace_to_jsonl(trace.spans), chrome_trace(trace.spans)

    first_jsonl, first_chrome = one_run()
    second_jsonl, second_chrome = one_run()
    assert first_jsonl == second_jsonl
    assert first_chrome == second_chrome
    assert first_jsonl  # non-trivial dump
