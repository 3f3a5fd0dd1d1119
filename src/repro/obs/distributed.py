"""Distributed causal tracing across relays, the engine and gossip.

PR 1's tracer sees a protected search only from the originating
client: relay and engine work hides inside opaque ``net.send`` /
``net.recv`` gaps. This module adds the three pieces that turn those
gaps into a causal, multi-node trace **without** leaking the very
correlation CYCLOSA exists to defeat:

- :class:`TraceContext` — a W3C-traceparent-style context
  (``00-<trace_id>-<parent span id, 16 hex>-<path, 2 hex>``). The
  context travels **inside the sealed record** (enclave to enclave,
  §V-C), so a passive observer of the wire never sees a trace id; the
  telemetry audit (:mod:`repro.obs.audit`) asserts exactly that.
- :class:`SpanRouter` — one bounded span sink per participating node
  (relays, the engine front-end, gossip peers). Remote spans carry a
  ``node`` attribute and land in their emitter's sink, which is how a
  real deployment would ship them (per-host agents), and what keeps
  one busy relay from evicting everyone else's spans.
- :func:`assemble` — merge the per-node sinks plus the client's sink
  into one causal tree for a trace id, with cross-node parentage
  resolved through the propagated contexts.

Privacy rules every emitter follows (enforced by the audit):

- span attributes never carry query text — only
  :func:`query_hash_bucket` buckets;
- no attribute distinguishes the real query's path from a fake's
  (no ``is_fake`` / ``token`` / ``true_user`` keys);
- the context string is identical in shape for real and fake records,
  so sealed sizes match (records are envelope-padded anyway).

This module deliberately imports nothing above
:mod:`repro.obs.trace`, so the enclave and transport layers can use
the codec without cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import Span, Tracer, TraceSink

#: Traceparent version tag (the only version this repo emits).
TRACEPARENT_VERSION = "00"

#: Ring-buffer capacity of each per-node sink.
DEFAULT_NODE_SINK_CAPACITY = 2048

#: Buckets for :func:`query_hash_bucket` — coarse enough that the
#: bucket of a query reveals ~6 bits, never the text.
QUERY_HASH_BUCKETS = 64


def query_hash_bucket(text: str, buckets: int = QUERY_HASH_BUCKETS) -> int:
    """A stable, salted hash bucket standing in for query text.

    Span attributes must never carry plaintext queries (the audit
    forbids it); a bucket keeps traces diffable across runs while
    revealing at most ``log2(buckets)`` bits. ``hashlib`` rather than
    ``hash()`` so seeded runs stay byte-deterministic across processes.
    """
    digest = hashlib.sha256(b"repro.obs.qbucket:" + text.encode("utf-8"))
    return int.from_bytes(digest.digest()[:4], "big") % buckets


@dataclass(frozen=True)
class TraceContext:
    """Propagated trace context: where a remote span should attach."""

    trace_id: str
    parent_span_id: int
    #: Which of the k+1 fan-out legs this context belongs to (0-based);
    #: retries continue the numbering past k.
    path: int = 0

    def to_traceparent(self) -> str:
        """``00-<trace_id>-<span id hex16>-<path hex2>``."""
        return (f"{TRACEPARENT_VERSION}-{self.trace_id}-"
                f"{self.parent_span_id:016x}-{self.path:02x}")

    def child(self, parent_span_id: int) -> "TraceContext":
        """The same path, re-parented (hop-by-hop propagation)."""
        return TraceContext(trace_id=self.trace_id,
                            parent_span_id=parent_span_id, path=self.path)

    @classmethod
    def from_traceparent(cls, value: Any) -> Optional["TraceContext"]:
        """Parse; returns ``None`` for anything malformed (a Byzantine
        peer controls this field, so parsing never raises)."""
        if not isinstance(value, str) or value.count("-") < 3:
            return None
        head, span_hex, path_hex = value.rsplit("-", 2)
        version, _, trace_id = head.partition("-")
        if version != TRACEPARENT_VERSION or not trace_id:
            return None
        try:
            return cls(trace_id=trace_id,
                       parent_span_id=int(span_hex, 16),
                       path=int(path_hex, 16))
        except ValueError:
            return None


class SpanRouter:
    """Per-node bounded span sinks (the deployment's 'span agents')."""

    def __init__(self,
                 capacity_per_node: int = DEFAULT_NODE_SINK_CAPACITY) -> None:
        self.capacity_per_node = capacity_per_node
        self._sinks: Dict[str, TraceSink] = {}

    def sink(self, node: str) -> TraceSink:
        existing = self._sinks.get(node)
        if existing is None:
            existing = TraceSink(self.capacity_per_node)
            self._sinks[node] = existing
        return existing

    def record(self, node: str, span: Span) -> None:
        self.sink(node).record(span)

    def nodes(self) -> List[str]:
        return list(self._sinks)

    def all_spans(self) -> List[Span]:
        """Every remote span, grouped by node (insertion order)."""
        out: List[Span] = []
        for sink in self._sinks.values():
            out.extend(sink)
        return out

    @property
    def dropped(self) -> int:
        return sum(sink.dropped for sink in self._sinks.values())

    def clear(self) -> None:
        self._sinks.clear()

    def __len__(self) -> int:
        return sum(len(sink) for sink in self._sinks.values())


# -- remote span helpers -------------------------------------------------


def open_remote_span(tracer: Tracer, name: str, ctx: TraceContext, *,
                     node: str, span_id: Optional[int] = None,
                     attributes: Optional[Dict[str, Any]] = None) -> Span:
    """Open a span on *node* joined to the propagated *ctx*.

    Bypasses the tracer's context-manager stack on purpose: remote
    spans parent to the context that arrived in the sealed record, not
    to whatever the local node happens to be doing.
    """
    merged: Dict[str, Any] = {"node": node, "path": ctx.path}
    if attributes:
        merged.update(attributes)
    return Span(
        name=name, trace_id=ctx.trace_id,
        span_id=span_id if span_id is not None else tracer.reserve_span_id(),
        parent_id=ctx.parent_span_id, start=tracer.clock.now(),
        attributes=merged)


def close_remote_span(router: SpanRouter, node: str, span: Span,
                      end_time: Optional[float] = None,
                      clock=None) -> Span:
    """Finish a remote span and record it in *node*'s sink."""
    if span.end is None:
        if end_time is not None:
            span.end = end_time
        elif clock is not None:
            span.end = clock.now()
        else:
            span.end = span.start
        if span.end < span.start:
            span.end = span.start
        router.record(node, span)
    return span


# -- assembly ------------------------------------------------------------


@dataclass
class AssembledTrace:
    """One causal trace merged across every participant's sink."""

    trace_id: str
    spans: List[Span] = field(default_factory=list)
    #: Spans whose parent id resolves to no collected span (their
    #: parent was evicted, or never finished).
    orphans: List[Span] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self._children: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)

    @property
    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def span(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def children(self, span: Span) -> List[Span]:
        return list(self._children.get(span.span_id, ()))

    def parent(self, span: Span) -> Optional[Span]:
        if span.parent_id is None:
            return None
        return self._by_id.get(span.parent_id)

    def by_node(self) -> Dict[str, List[Span]]:
        """Spans grouped by emitting node (client spans under the root
        span's ``node`` attribute, or ``"local"``)."""
        client = "local"
        root = self.root
        if root is not None:
            client = str(root.attributes.get("node", client))
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            node = str(span.attributes.get("node", client))
            grouped.setdefault(node, []).append(span)
        return grouped

    @property
    def nodes(self) -> List[str]:
        return sorted(self.by_node())

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)


def assemble(trace_id: str, *sources: Iterable[Span]) -> AssembledTrace:
    """Merge finished spans of *trace_id* from any number of sinks.

    Sources are iterables of :class:`Span` (the client's
    ``tracer.sink``, ``router.all_spans()``, a parsed JSONL dump, ...).
    Duplicate span ids (a span recorded in two sinks) keep the first
    copy. Spans are ordered by ``(start, span_id)``, so a seeded run
    assembles byte-identically.
    """
    seen: Dict[int, Span] = {}
    for source in sources:
        for span in source:
            if span.trace_id != trace_id or not span.finished:
                continue
            seen.setdefault(span.span_id, span)
    ordered = sorted(seen.values(), key=lambda s: (s.start, s.span_id))
    known = set(seen)
    orphans = [s for s in ordered
               if s.parent_id is not None and s.parent_id not in known]
    return AssembledTrace(trace_id=trace_id, spans=ordered, orphans=orphans)


def trace_sources(obs_state) -> List[Iterable[Span]]:
    """The standard source list for :func:`assemble`: the client sink
    plus every per-node sink of *obs_state* (an ``ObsState``)."""
    return [obs_state.tracer.sink.spans, obs_state.router.all_spans()]
