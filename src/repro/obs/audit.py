"""Telemetry privacy audit: observability must not weaken CYCLOSA.

Naive distributed tracing would *break* the system under study: a
plaintext trace id on the wire tags the real query across hops — the
exact linkability CYCLOSA defeats and SimAttack-style adversaries
exploit. This module is the dynamic check that our telemetry does not
hand the adversary anything the protocol hides:

1. **Wire privacy** (:func:`audit_wire_metadata`) — over a
   :class:`repro.net.trace.MessageTrace` capture (the passive
   adversary's view), assert no trace id and no query text appears in
   any wire-visible byte: message kinds, addresses, plaintext payload
   encodings, and the sealed ciphertexts themselves (a buggy
   implementation could prepend a plaintext header).
2. **Span hygiene** (:func:`audit_span_attributes`) — no span
   attribute carries query text (only hash buckets) and none uses a
   key that marks realness (``is_fake``, ``token``, ``true_user``...).
3. **Path indistinguishability**
   (:func:`audit_path_indistinguishability`) — within one assembled
   trace, the spans emitted by *other* nodes (relays, engine) for the
   real query's leg must be shape-identical to every fake leg: same
   span names, same attribute keys. An adversary reading the
   telemetry stream learns which relay did work, never which leg
   carried the real query.

4. **Cache indistinguishability**
   (:func:`audit_cache_indistinguishability`) — the engine tier's
   result cache must not leak *popularity*: a wiretap comparing two
   identically-seeded deployments — one caching, one not — over the
   same hit-heavy workload must record the exact same transmission
   sequence (kind, endpoints, size, timestamp). The cache only saves
   ranking CPU; anything it changed on the wire would tell the
   adversary which queries were asked before.

5. **Profile output hygiene** (:func:`audit_profile_output`) — the
   deterministic profiler's collapsed stacks and attribution JSON must
   contain *code locations only*: every frame matches the
   ``module:qualname`` shape, every attribution bucket is a known
   subsystem name, and no output line contains query text or a
   per-user identifier. Profiles are meant to be committed and diffed
   in CI — they must be shareable without leaking what anyone
   searched.

:func:`run_telemetry_audit` drives the first three against a live
deployment; the leak gate (the ``test_gate_*`` tests in
``tests/obs/test_audit.py``) runs all five at a seeded workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.distributed import AssembledTrace, assemble
from repro.obs.trace import Span

# The sink lists live in the shared registry (repro.obs.sinks) so this
# runtime audit and the static taint pass (repro.lint.pdg) can never
# drift apart; re-exported here for backwards compatibility.
from repro.obs.sinks import FORBIDDEN_ATTRIBUTE_KEYS, PATH_SCOPED_SPANS


@dataclass(frozen=True)
class AuditViolation:
    """One observed leak."""

    check: str      # "wire" | "span-attr" | "path-shape" | "cache-wire"
                    # | "profile-output"
    detail: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class AuditReport:
    """Outcome of a telemetry audit run."""

    violations: List[AuditViolation] = field(default_factory=list)
    messages_scanned: int = 0
    spans_scanned: int = 0
    traces_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"telemetry privacy audit: {verdict}",
            f"  wire messages scanned : {self.messages_scanned}",
            f"  spans scanned         : {self.spans_scanned}",
            f"  traces shape-checked  : {self.traces_checked}",
            f"  violations            : {len(self.violations)}",
        ]
        lines.extend(f"    - {violation}" for violation in self.violations)
        return "\n".join(lines)


# -- 1. wire privacy -----------------------------------------------------


def _wire_images(record) -> List[bytes]:
    """Every byte string of *record* a passive adversary can read."""
    images = [record.kind.encode("utf-8"),
              record.src.encode("utf-8"),
              record.dst.encode("utf-8")]
    wire_image = getattr(record, "wire_image", None)
    if wire_image:
        images.append(bytes(wire_image))
    return images


def audit_wire_metadata(records: Iterable[Any],
                        trace_ids: Sequence[str],
                        queries: Sequence[str],
                        scanned: Optional[List[int]] = None
                        ) -> List[AuditViolation]:
    """Scan captured transmissions for trace ids and query text.

    *records* is anything iterable of
    :class:`repro.net.trace.TracedMessage`-shaped objects; capture
    them with ``MessageTrace(network, capture_plaintext=True)`` so
    plaintext payload encodings are available for scanning.
    """
    needles: List[Tuple[str, bytes]] = []
    for trace_id in trace_ids:
        if trace_id:
            needles.append((f"trace id {trace_id!r}",
                            trace_id.encode("utf-8")))
    for query in queries:
        if query:
            needles.append((f"query text {query!r}",
                            query.encode("utf-8")))
    violations: List[AuditViolation] = []
    count = 0
    for record in records:
        count += 1
        for image in _wire_images(record):
            for label, needle in needles:
                if needle in image:
                    violations.append(AuditViolation(
                        "wire",
                        f"{label} visible in {record.kind!r} "
                        f"{record.src}->{record.dst}"))
    if scanned is not None:
        scanned.append(count)
    return violations


# -- 2. span attribute hygiene -------------------------------------------


def audit_span_attributes(spans: Iterable[Span],
                          queries: Sequence[str],
                          scanned: Optional[List[int]] = None
                          ) -> List[AuditViolation]:
    """No forbidden keys; no attribute value contains query text."""
    texts = [q for q in queries if q]
    violations: List[AuditViolation] = []
    count = 0
    for span in spans:
        count += 1
        for key, value in span.attributes.items():
            if key in FORBIDDEN_ATTRIBUTE_KEYS:
                violations.append(AuditViolation(
                    "span-attr",
                    f"span {span.name!r} carries forbidden "
                    f"attribute {key!r}"))
            if isinstance(value, str):
                for text in texts:
                    if text in value:
                        violations.append(AuditViolation(
                            "span-attr",
                            f"span {span.name!r} attribute {key!r} "
                            f"contains query text {text!r}"))
    if scanned is not None:
        scanned.append(count)
    return violations


# -- 3. real/fake path indistinguishability ------------------------------


def _path_shape(spans: List[Span]) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """The comparable shape of one leg: sorted (name, attribute keys)."""
    return tuple(sorted(
        (span.name, tuple(sorted(span.attributes)))
        for span in spans))


def audit_path_indistinguishability(trace: AssembledTrace
                                    ) -> List[AuditViolation]:
    """Remote spans of every fan-out leg must be shape-identical.

    Only spans emitted by nodes *other than* the originating client
    count: the client knows its own query (its local spans may mark
    the real leg's ``engine`` round trip), but nothing relays or the
    engine emit may differ between the real and a fake leg.
    """
    root = trace.root
    client = str(root.attributes.get("node", "local")) if root else "local"
    legs: Dict[int, List[Span]] = {}
    for span in trace.spans:
        if span.name not in PATH_SCOPED_SPANS:
            continue
        if str(span.attributes.get("node", client)) == client:
            continue
        path = span.attributes.get("path")
        if isinstance(path, int):
            legs.setdefault(path, []).append(span)
    if len(legs) < 2:
        return []  # k=0 (or untraced): nothing to distinguish
    shapes = {path: _path_shape(spans) for path, spans in legs.items()}
    reference_path = min(shapes)
    reference = shapes[reference_path]
    violations: List[AuditViolation] = []
    for path, shape in sorted(shapes.items()):
        if shape != reference:
            violations.append(AuditViolation(
                "path-shape",
                f"trace {trace.trace_id}: leg {path} span shape "
                f"differs from leg {reference_path} "
                f"({shape} != {reference})"))
    return violations


# -- 4. cache indistinguishability ---------------------------------------


def wire_fingerprint(records: Iterable[Any]
                     ) -> List[Tuple[str, str, str, int, float]]:
    """The adversary-comparable identity of a captured transmission
    sequence: ordered ``(kind, src, dst, size_bytes, time)`` tuples.
    Timestamps are rounded to the nanosecond, far below anything the
    simulator's latency models resolve."""
    return [(record.kind, record.src, record.dst, record.size_bytes,
             round(record.time, 9)) for record in records]


def audit_cache_indistinguishability(make_deployment,
                                     queries: Sequence[str],
                                     drain_seconds: float = 60.0,
                                     mismatch_limit: int = 5
                                     ) -> AuditReport:
    """Cache hits must be invisible to a passive wiretap.

    *make_deployment* is a factory ``(with_cache: bool) -> deployment``
    building two deployments that differ **only** in whether the engine
    tier caches (same seed, same topology, same config otherwise).
    Both are driven through the same *queries* (make them repetitive —
    a cache-defeating workload audits nothing) and their full wiretap
    captures are compared as exact ordered sequences: every message's
    kind, endpoints, wire size and timestamp must match. Equality here
    is the strongest possible indistinguishability — the two runs are
    the same random process, so the cache provably drew nothing from
    the RNG and injected, dropped, resized or reordered nothing.
    """
    from repro.net.trace import MessageTrace  # lazy: avoids cycles

    def observe(deployment) -> List[Tuple[str, str, str, int, float]]:
        with MessageTrace(deployment.network) as tap:
            for index, query in enumerate(queries):
                deployment.node(index % len(deployment.nodes)).search(query)
            deployment.run(drain_seconds)
        return wire_fingerprint(tap)

    cached = observe(make_deployment(True))
    uncached = observe(make_deployment(False))

    report = AuditReport()
    report.messages_scanned = len(cached) + len(uncached)
    if len(cached) != len(uncached):
        report.violations.append(AuditViolation(
            "cache-wire",
            f"caching changed the transmission count: "
            f"{len(cached)} cached vs {len(uncached)} uncached"))
    mismatches = 0
    for index, (hit, miss) in enumerate(zip(cached, uncached)):
        if hit != miss:
            mismatches += 1
            if mismatches <= mismatch_limit:
                report.violations.append(AuditViolation(
                    "cache-wire",
                    f"transmission {index} differs under caching: "
                    f"{hit} != {miss}"))
    if mismatches > mismatch_limit:
        report.violations.append(AuditViolation(
            "cache-wire",
            f"... and {mismatches - mismatch_limit} further mismatches"))
    return report


# -- 5. profile output hygiene -------------------------------------------


def audit_profile_output(collapsed: str, attribution: dict,
                         queries: Sequence[str],
                         identities: Sequence[str] = (),
                         scanned: Optional[List[int]] = None
                         ) -> List[AuditViolation]:
    """Prove a profile contains only code locations.

    *collapsed* is the collapsed-stack text
    (:meth:`~repro.obs.profile.DeterministicProfiler.collapsed_stacks`)
    and *attribution* the matching
    :meth:`~repro.obs.profile.DeterministicProfiler.attribution` dict.
    Three properties are checked:

    - every frame of every stack line matches the strict
      ``module:qualname`` code-location shape (argument values, query
      strings or f-string'd identifiers cannot survive this filter);
    - no output line contains any of *queries* or *identities* as a
      substring (defence in depth on top of the shape check);
    - every attribution bucket is a known subsystem name.
    """
    from repro.obs.profile import (CODE_LOCATION_RE, KNOWN_SUBSYSTEMS,
                                   OVERFLOW_FRAME)

    needles = [text for text in (*queries, *identities) if text]
    violations: List[AuditViolation] = []
    count = 0
    for line_no, line in enumerate(collapsed.splitlines(), start=1):
        if not line:
            continue
        count += 1
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text or not count_text.isdigit():
            violations.append(AuditViolation(
                "profile-output",
                f"line {line_no} is not `stack count`: {line!r}"))
            continue
        for frame in stack_text.split(";"):
            if frame != OVERFLOW_FRAME and not CODE_LOCATION_RE.match(frame):
                violations.append(AuditViolation(
                    "profile-output",
                    f"line {line_no} frame is not a code location: "
                    f"{frame!r}"))
        for needle in needles:
            if needle in line:
                violations.append(AuditViolation(
                    "profile-output",
                    f"line {line_no} contains sensitive text "
                    f"{needle!r}"))
    allowed = KNOWN_SUBSYSTEMS | {"other", "stdlib"}
    for bucket in attribution.get("subsystems", {}):
        if bucket not in allowed:
            violations.append(AuditViolation(
                "profile-output",
                f"attribution bucket {bucket!r} is not a known "
                f"subsystem"))
    attribution_text = str(sorted(attribution.get("subsystems", {})))
    for needle in needles:
        if needle in attribution_text:
            violations.append(AuditViolation(
                "profile-output",
                f"attribution contains sensitive text {needle!r}"))
    if scanned is not None:
        scanned.append(count)
    return violations


# -- the full dynamic audit ----------------------------------------------


def run_telemetry_audit(deployment, queries: Sequence[str],
                        drain_seconds: float = 60.0) -> AuditReport:
    """Drive *queries* through *deployment* under a wiretap, then audit.

    The deployment must have been created with ``observe=True``.
    Searches rotate across client nodes; after the last result the
    simulator drains so every fake leg's response (and span) lands.
    """
    from repro import obs
    from repro.net.trace import MessageTrace  # lazy: avoids cycles

    report = AuditReport()
    trace_ids: List[str] = []
    with MessageTrace(deployment.network, capture_plaintext=True) as tap:
        for index, query in enumerate(queries):
            user = deployment.node(index % len(deployment.nodes))
            result = user.search(query)
            if result.trace_id is not None:
                trace_ids.append(result.trace_id)
        deployment.run(drain_seconds)

    state = obs.OBS
    spans = list(state.tracer.sink.spans) + state.router.all_spans()

    wire_count: List[int] = []
    span_count: List[int] = []
    report.violations.extend(audit_wire_metadata(
        tap, trace_ids, queries, scanned=wire_count))
    report.violations.extend(audit_span_attributes(
        spans, queries, scanned=span_count))
    for trace_id in trace_ids:
        assembled = assemble(trace_id, spans)
        report.violations.extend(
            audit_path_indistinguishability(assembled))
    report.messages_scanned = wire_count[0] if wire_count else 0
    report.spans_scanned = span_count[0] if span_count else 0
    report.traces_checked = len(trace_ids)
    return report
