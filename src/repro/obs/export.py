"""Exporters: JSON-lines trace dumps and Prometheus text snapshots.

Both formats are meant for machines first:

- ``trace_to_jsonl`` writes one JSON object per finished span, so a
  dumped trace can be re-analysed (or diffed across runs) without the
  process that produced it.
- ``prometheus_snapshot`` renders every instrument of a
  :class:`MetricsRegistry` in the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` plus samples; histograms expand to
  cumulative ``_bucket{le=...}`` series with ``_sum`` and ``_count``).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span

# -- traces ------------------------------------------------------------


def span_to_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start": span.start,
        "end": span.end,
        "attributes": span.attributes,
    }


def trace_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per span, newline-delimited."""
    return "\n".join(
        json.dumps(span_to_dict(span), sort_keys=True) for span in spans)


# -- Chrome trace-event format -----------------------------------------


def chrome_trace(spans: Iterable[Span], trace_id: Optional[str] = None) -> str:
    """Render spans as Chrome trace-event JSON (``chrome://tracing``,
    Perfetto, speedscope).

    Layout decisions:

    - every emitting node becomes a *process* (``pid``), named via
      ``process_name`` metadata events — relays line up as parallel
      swimlanes;
    - within a node, the fan-out leg (``path`` attribute) becomes the
      *thread* (``tid``), so the k+1 legs stack instead of overlap;
    - spans are complete-events (``ph": "X"``) with microsecond
      ``ts``/``dur`` (simulated seconds scale cleanly).

    Duplicate span ids (one span present in two sinks) are emitted
    once; output is deterministic (sorted events, sorted keys) so
    seeded runs diff cleanly.
    """
    nodes: List[str] = []
    deduped: List[Span] = []
    seen_ids = set()
    for span in spans:
        if not span.finished or span.span_id in seen_ids:
            continue
        if trace_id is not None and span.trace_id != trace_id:
            continue
        seen_ids.add(span.span_id)
        deduped.append(span)
        node = str(span.attributes.get("node", "local"))
        if node not in nodes:
            nodes.append(node)
    nodes.sort()
    pids = {node: index for index, node in enumerate(nodes)}

    events: List[dict] = []
    for node in nodes:
        events.append({
            "args": {"name": node},
            "name": "process_name",
            "ph": "M",
            "pid": pids[node],
            "tid": 0,
        })
    for span in deduped:
        node = str(span.attributes.get("node", "local"))
        path = span.attributes.get("path")
        args = {key: value for key, value in sorted(span.attributes.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["trace_id"] = span.trace_id
        events.append({
            "args": args,
            "cat": span.trace_id,
            "dur": round(span.duration * 1e6, 3),
            "name": span.name,
            "ph": "X",
            "pid": pids[node],
            "tid": path if isinstance(path, int) else 0,
            "ts": round(span.start * 1e6, 3),
        })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0),
                               e["pid"], e["tid"], e["name"]))
    return json.dumps({"displayTimeUnit": "ms", "traceEvents": events},
                      sort_keys=True, indent=2)


# -- metrics -----------------------------------------------------------


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(value: str) -> str:
    """Inverse of :func:`_escape` (left-to-right escape scanning)."""
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "\\":
                out.append("\\")
                index += 2
                continue
            if nxt == '"':
                out.append('"')
                index += 2
                continue
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def sample_key(name: str, labels=()) -> str:
    """Canonical ``name{label="value",...}`` key for one sample.

    Accepts a dict or an iterable of ``(key, value)`` pairs; labels are
    sorted so the key is stable however the caller assembled them. This
    is the key format of the Prometheus samples and of the time-series
    layer's per-window series.
    """
    if isinstance(labels, dict):
        pairs = sorted(labels.items())
    else:
        pairs = sorted(labels)
    return f"{name}{_labels_text(tuple(pairs))}"


def parse_sample_name(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a sample key back into ``(name, labels)``.

    Inverse of :func:`sample_key`: label values are unescaped, so keys
    built from values containing backslashes, quotes or newlines
    round-trip exactly.
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed sample key: {key!r}")
    name = key[:brace]
    body = key[brace + 1:-1]
    labels: Dict[str, str] = {}
    index = 0
    while index < len(body):
        eq = body.find("=", index)
        if eq < 0 or eq + 1 >= len(body) or body[eq + 1] != '"':
            raise ValueError(f"malformed label pair in: {key!r}")
        label = body[index:eq]
        cursor = eq + 2
        raw: List[str] = []
        while cursor < len(body):
            char = body[cursor]
            if char == "\\" and cursor + 1 < len(body):
                raw.append(body[cursor:cursor + 2])
                cursor += 2
                continue
            if char == '"':
                break
            raw.append(char)
            cursor += 1
        if cursor >= len(body):
            raise ValueError(f"unterminated label value in: {key!r}")
        labels[label] = _unescape("".join(raw))
        index = cursor + 1
        if index < len(body):
            if body[index] != ",":
                raise ValueError(f"malformed label separator in: {key!r}")
            index += 1
    return name, labels


def _labels_text(labels, extra: Optional[dict] = None) -> str:
    pairs = [f'{key}="{_escape(str(value))}"' for key, value in labels]
    if extra:
        pairs += [f'{key}="{_escape(str(value))}"'
                  for key, value in extra.items()]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_snapshot(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    emitted_header = set()
    for metric in registry.collect():
        if metric.name not in emitted_header:
            emitted_header.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{metric.name}{_labels_text(metric.labels)} "
                         f"{_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            for bound, count in metric.bucket_counts():
                le = "+Inf" if bound == math.inf else _format_value(bound)
                lines.append(
                    f"{metric.name}_bucket"
                    f"{_labels_text(metric.labels, {'le': le})} {count}")
            lines.append(f"{metric.name}_sum{_labels_text(metric.labels)} "
                         f"{repr(float(metric.sum))}")
            lines.append(f"{metric.name}_count{_labels_text(metric.labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _openmetrics_family(name: str, kind: str) -> str:
    """OpenMetrics family name: counters drop the ``_total`` suffix."""
    if kind == "counter" and name.endswith("_total"):
        return name[:-len("_total")]
    return name
