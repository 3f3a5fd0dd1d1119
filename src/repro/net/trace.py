"""Message tracing: a wiretap for the simulated network.

The traffic-analysis experiments and several security tests need to
observe everything a passive network adversary would see — sources,
destinations, kinds and *sizes*, but not plaintext (most payloads are
sealed bytes). :class:`MessageTrace` installs itself around
``Network.send`` and records exactly that.

Two extensions serve the observability subsystem:

- ``capture_plaintext=True`` additionally stores each message's *wire
  image*: the raw bytes for sealed payloads, the canonical
  :mod:`repro.net.wire` encoding for plaintext dict payloads
  (handshake hellos, engine control messages). The telemetry privacy
  audit (:mod:`repro.obs.audit`) scans these images for trace ids and
  query text — anything it finds there, a real adversary would find
  too.
- When obs is enabled, every matched transmission also feeds the
  metrics registry: ``cyclosa_net_traced_messages_total{kind=...}``
  and a per-kind byte histogram, so the wiretap's view shows up in
  ``repro obs --format prom`` instead of being a standalone list.

Usage::

    with MessageTrace(network, kinds=("cyclosa.fwd",)) as trace:
        ...drive traffic...
    sizes = [record.size_bytes for record in trace]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.net.transport import Network
from repro.obs import OBS, sinks

#: Histogram bounds for per-kind message sizes — aligned with the
#: 512-byte record envelope so padding regressions shift a bucket.
SIZE_BUCKETS = (64, 128, 256, 512, 768, 1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class TracedMessage:
    """One observed transmission (metadata only — what a passive
    adversary on the wire sees of encrypted traffic)."""

    time: float
    src: str
    dst: str
    kind: str
    size_bytes: int
    payload_is_bytes: bool
    #: Raw wire bytes (sealed payloads verbatim; plaintext payloads in
    #: canonical encoding). Only populated under
    #: ``capture_plaintext=True``; ``None`` otherwise.
    wire_image: Optional[bytes] = None


def _encode_wire_image(payload: Any) -> bytes:
    """What the payload looks like on the (simulated) wire."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    try:
        from repro.net import wire
        return wire.encode(payload)
    except Exception:
        return repr(payload).encode("utf-8", "replace")


class MessageTrace:
    """Context manager capturing transmissions on a network."""

    #: The Network method this wiretap hooks — taken from the shared
    #: sink registry so the runtime capture point and the static taint
    #: pass's wire-egress sink list are one definition
    #: (``tests/lint/test_sinks_registry.py`` pins the identity).
    TAP_METHOD = sinks.RUNTIME_WIRE_TAP

    def __init__(self, network: Network,
                 kinds: Optional[Sequence[str]] = None,
                 src: Optional[str] = None,
                 dst: Optional[str] = None,
                 capture_plaintext: bool = False) -> None:
        self.network = network
        self._kinds = tuple(kinds) if kinds else None
        self._src = src
        self._dst = dst
        self._capture_plaintext = capture_plaintext
        self._records: List[TracedMessage] = []
        self._original_send: Optional[Callable] = None

    # -- capture lifecycle ------------------------------------------------

    def __enter__(self) -> "MessageTrace":
        if self._original_send is not None:
            raise RuntimeError("trace already installed")
        self._original_send = getattr(self.network, self.TAP_METHOD)

        def tapped(src: str, dst: str, kind: str, payload: Any,
                   size_bytes: Optional[int] = None):
            message = self._original_send(src, dst, kind, payload,
                                          size_bytes)
            if self._matches(src, dst, kind):
                size = (size_bytes if size_bytes is not None
                        else (len(payload)
                              if isinstance(payload, (bytes, bytearray))
                              else (message.size_bytes if message else 0)))
                wire_image = (_encode_wire_image(payload)
                              if self._capture_plaintext else None)
                self._records.append(TracedMessage(
                    time=self.network.simulator.now,
                    src=src, dst=dst, kind=kind, size_bytes=size,
                    payload_is_bytes=isinstance(payload,
                                                (bytes, bytearray)),
                    wire_image=wire_image))
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_net_traced_messages_total",
                        "Messages observed by the active wiretap.",
                        kind=kind).inc()
                    OBS.registry.histogram(
                        "cyclosa_net_traced_message_bytes",
                        "Wire sizes observed by the active wiretap.",
                        buckets=SIZE_BUCKETS, kind=kind).observe(size)
            return message

        setattr(self.network, self.TAP_METHOD, tapped)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._original_send is not None:
            setattr(self.network, self.TAP_METHOD, self._original_send)
            self._original_send = None

    def _matches(self, src: str, dst: str, kind: str) -> bool:
        if self._kinds is not None and not any(
                kind.startswith(k) for k in self._kinds):
            return False
        if self._src is not None and src != self._src:
            return False
        if self._dst is not None and dst != self._dst:
            return False
        return True

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[TracedMessage]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[TracedMessage]:
        return list(self._records)

    def sizes(self) -> List[int]:
        return [record.size_bytes for record in self._records]
