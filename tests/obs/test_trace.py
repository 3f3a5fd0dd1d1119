"""Span trees, the bounded sink, and both tracer APIs."""

from __future__ import annotations

import pytest

from repro.net.simulator import Simulator
from repro.obs.clock import ManualClock, SimulatedClock
from repro.obs.trace import NullSink, Tracer, TraceSink

pytestmark = pytest.mark.obs


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock, sink=TraceSink(capacity=16))


def test_context_manager_nesting_parents_inner_spans(tracer, clock):
    with tracer.span("outer") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            clock.advance(0.5)
        assert tracer.current is outer
    assert tracer.current is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.duration == pytest.approx(1.5)
    assert inner.duration == pytest.approx(0.5)
    # inner finished first, so it was recorded first
    assert [s.name for s in tracer.sink.spans] == ["inner", "outer"]


def test_explicit_spans_under_simulated_clock():
    simulator = Simulator()
    tracer = Tracer(clock=SimulatedClock(simulator), sink=TraceSink())
    root = tracer.start_span("search")
    spans = []

    def stage(name):
        span = tracer.start_span(name, parent=root)
        spans.append(tracer.end_span(span))

    simulator.schedule(1.0, lambda: stage("fanout"))
    simulator.schedule(2.0, lambda: stage("engine"))
    simulator.run()
    tracer.end_span(root)
    assert root.start == 0.0 and root.end == 2.0
    starts = [span.start for span in spans]
    assert starts == [1.0, 2.0]
    assert all(span.trace_id == root.trace_id for span in spans)


def test_end_time_override_stamps_modelled_cost(tracer):
    span = tracer.start_span("fake_generation")
    tracer.end_span(span, end_time=span.start + 0.125)
    assert span.duration == pytest.approx(0.125)


def test_end_is_idempotent_and_clamped(tracer, clock):
    span = tracer.start_span("stage")
    clock.advance(1.0)
    tracer.end_span(span)
    first_end = span.end
    clock.advance(1.0)
    tracer.end_span(span)  # no-op
    assert span.end == first_end
    assert len(tracer.sink) == 1

    clamped = tracer.start_span("backwards")
    tracer.end_span(clamped, end_time=clamped.start - 5.0)
    assert clamped.duration == 0.0


def test_trace_ids_are_unique_and_sequential(tracer):
    a = tracer.start_span("one")
    b = tracer.start_span("two")
    assert a.trace_id != b.trace_id
    assert a.span_id != b.span_id


def test_sink_is_a_ring_buffer():
    sink = TraceSink(capacity=4)
    tracer = Tracer(clock=ManualClock(), sink=sink)
    for index in range(10):
        tracer.end_span(tracer.start_span(f"s{index}"))
    assert len(sink) == 4
    assert sink.dropped == 6
    assert [s.name for s in sink.spans] == ["s6", "s7", "s8", "s9"]
    with pytest.raises(ValueError):
        TraceSink(capacity=0)


def test_sink_trace_ids(tracer):
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    ids = tracer.sink.trace_ids()
    assert len(ids) == 2
    assert [s.trace_id for s in tracer.sink] == ids


def test_null_sink_discards_everything():
    tracer = Tracer(clock=ManualClock(), sink=NullSink())
    tracer.end_span(tracer.start_span("gone"))
    assert tracer.sink.spans == []
    assert len(tracer.sink) == 0
