"""Lightweight nested spans with per-query trace ids.

A :class:`Span` is one named interval with attributes; spans form a
tree via ``parent_id`` under a shared ``trace_id`` (one trace per
protected search). The API supports two styles:

- ``with tracer.span("sensitivity"):`` — for synchronous code; nesting
  is tracked on an explicit stack, so inner spans are parented
  automatically.
- ``span = tracer.start_span(...)`` / ``tracer.end_span(span)`` — for
  event-driven code where begin and end live in different simulator
  callbacks (the fan-out/response path of a CYCLOSA query). The
  modelled cost of a stage can be recorded exactly by passing
  ``end_time=span.start + cost``.

Finished spans land in a bounded :class:`TraceSink` (a ring buffer:
old traces are evicted, never unbounded growth); the sink counts what
it dropped. Instrumented call sites check a single ``enabled`` flag
before touching any of this, so the disabled overhead is one attribute
read per potential span.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.clock import Clock, WallClock

DEFAULT_SINK_CAPACITY = 4096


@dataclass
class Span:
    """One timed interval in a trace tree."""

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, attributes: Dict[str, Any]) -> None:
        self.attributes.update(attributes)


class TraceSink:
    """Bounded in-memory store of finished spans (newest win)."""

    def __init__(self, capacity: int = DEFAULT_SINK_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("sink capacity must be >= 1")
        self.capacity = capacity
        self._spans: deque = deque()
        self.dropped = 0

    def record(self, span: Span) -> None:
        if len(self._spans) >= self.capacity:
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(span)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def trace_ids(self) -> List[str]:
        """Distinct trace ids present, oldest first."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)


class NullSink:
    """Discards everything (the disabled default)."""

    capacity = 0
    dropped = 0

    def record(self, span: Span) -> None:
        pass

    @property
    def spans(self) -> List[Span]:
        return []

    def trace_ids(self) -> List[str]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())


class Tracer:
    """Creates spans against one clock and one sink."""

    def __init__(self, clock: Optional[Clock] = None,
                 sink: Optional[TraceSink] = None) -> None:
        self.clock = clock or WallClock()
        self.sink = sink if sink is not None else TraceSink()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._stack: List[Span] = []

    # -- explicit API (event-driven code) ------------------------------

    def new_trace_id(self) -> str:
        return f"trace-{next(self._trace_ids):06d}"

    def reserve_span_id(self) -> int:
        """Allocate a span id without opening a span.

        Distributed propagation needs the id *before* the span exists:
        the enclave embeds ``parent_span_id`` in a sealed record, and
        the matching span is only constructed once the record has been
        unwrapped on the far side (:mod:`repro.obs.distributed`).
        """
        return next(self._span_ids)

    def start_span(self, name: str, parent: Optional[Span] = None,
                   trace_id: Optional[str] = None,
                   attributes: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span.

        Parenting: an explicit *parent* wins; otherwise the innermost
        context-manager span (if any); otherwise the span roots a new
        trace (or joins *trace_id* when given).
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        if parent is not None:
            trace = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            trace = trace_id or self.new_trace_id()
            parent_id = None
        return Span(
            name=name, trace_id=trace, span_id=next(self._span_ids),
            parent_id=parent_id, start=self.clock.now(),
            attributes=dict(attributes) if attributes else {})

    def end_span(self, span: Span, end_time: Optional[float] = None) -> Span:
        """Close a span and record it.

        *end_time* overrides the clock — event-driven stages use it to
        stamp a modelled duration (``span.start + cost``) that the
        simulator will only realise later.
        """
        if span.end is not None:
            return span  # idempotent: double-close is a no-op
        span.end = self.clock.now() if end_time is None else end_time
        if span.end < span.start:
            span.end = span.start
        self.sink.record(span)
        return span

    # -- context-manager API (synchronous code) ------------------------

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: Any):
        """``with tracer.span("stage"):`` — nested spans auto-parent."""
        opened = self.start_span(name, parent=parent, attributes=attributes)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            self.end_span(opened)

    @property
    def current(self) -> Optional[Span]:
        """The innermost context-manager span, if any."""
        return self._stack[-1] if self._stack else None
