"""Addressable nodes, messages and links over the event loop.

The transport layer is deliberately simple: a :class:`Network` owns the
simulator, a registry of :class:`NetNode` instances and the latency
models. ``Network.send`` samples a one-way delay and schedules the
destination's ``on_message``; links do not lose messages on their own
(message loss, delay, duplication and crashes are injected by
:mod:`repro.faults`, which wraps ``send`` and delivery). On top of that,
:class:`NetNode` provides a request/response (RPC) pattern with
correlation ids, deferred responders and timeouts — enough to express
every protocol in the paper (onion circuits, PEAS's two-server relay,
CYCLOSA's fan-out). A response is accepted only from the peer its
request went to.

Sizes matter: each message carries ``size_bytes`` because one of the
paper's arguments (§IV) is that an observer of *encrypted* traffic can
distinguish OR-aggregated queries from single queries **by size alone**
— the traffic-analysis test suite asserts exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simulator import EventHandle, Simulator
from repro.obs import OBS


class NetworkError(Exception):
    """Transport-level failure (unknown address, bad registration)."""


@dataclass(frozen=True)
class Message:
    """One datagram on the simulated network."""

    msg_id: int
    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    sent_at: float


def _default_size(payload: Any) -> int:
    """Best-effort wire size when the sender does not specify one."""
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    return 256


@dataclass
class LinkStats:
    """Aggregate transport counters, exposed for the benchmarks."""

    messages: int = 0
    bytes: int = 0
    dropped: int = 0


class Network:
    """The simulated internet: nodes, links, latency.

    Parameters
    ----------
    simulator:
        The shared event loop.
    rng:
        Seeded ``random.Random``; all latency sampling flows through it.
    default_latency:
        Latency model used for any pair without an override.
    """

    def __init__(self, simulator: Simulator, rng,
                 default_latency: Optional[LatencyModel] = None) -> None:
        self.simulator = simulator
        self.rng = rng
        self.default_latency = default_latency or ConstantLatency(0.02)
        self.stats = LinkStats()
        self._nodes: Dict[str, "NetNode"] = {}
        self._departed: set = set()
        self._link_overrides: Dict[Tuple[str, str], LatencyModel] = {}
        self._node_latency: Dict[str, LatencyModel] = {}
        self._msg_ids = itertools.count(1)

    # -- topology ------------------------------------------------------

    def register(self, node: "NetNode") -> None:
        if node.address in self._nodes:
            raise NetworkError(f"address {node.address!r} already registered")
        self._nodes[node.address] = node

    def unregister(self, address: str) -> None:
        """Remove a node (churn / crash); in-flight messages are dropped
        on arrival, and anything the dead node's leftover timers try to
        send afterwards is dropped too (a crashed host cannot transmit)."""
        if self._nodes.pop(address, None) is not None:
            self._departed.add(address)

    def node(self, address: str) -> "NetNode":
        try:
            return self._nodes[address]
        except KeyError:
            raise NetworkError(f"unknown address {address!r}")

    def addresses(self):
        return list(self._nodes)

    def set_link_latency(self, src: str, dst: str, model: LatencyModel,
                         symmetric: bool = True) -> None:
        """Override the latency model for one directed (or both) links."""
        self._link_overrides[(src, dst)] = model
        if symmetric:
            self._link_overrides[(dst, src)] = model

    def set_node_latency(self, address: str, model: LatencyModel) -> None:
        """Override the access-link latency for every flow touching
        *address* (takes effect unless a pair override exists)."""
        self._node_latency[address] = model

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        override = self._link_overrides.get((src, dst))
        if override is not None:
            return override
        for endpoint in (dst, src):
            model = self._node_latency.get(endpoint)
            if model is not None:
                return model
        return self.default_latency

    # -- delivery --------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any,
             size_bytes: Optional[int] = None) -> Optional[Message]:
        """Send one message; returns it, or ``None`` if it was lost
        (a departed sender's leftover timer, or an injected fault)."""
        if src not in self._nodes:
            if src in self._departed:
                # A crashed host's leftover timer fired: silence, not a
                # crash of the whole simulation.
                self.stats.dropped += 1
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_net_dropped_total",
                        "messages lost (loss, churn, dead senders)").inc()
                return None
            raise NetworkError(f"unknown sender {src!r}")
        size = size_bytes if size_bytes is not None else _default_size(payload)
        message = Message(
            msg_id=next(self._msg_ids), src=src, dst=dst, kind=kind,
            payload=payload, size_bytes=size, sent_at=self.simulator.now)
        self.stats.messages += 1
        self.stats.bytes += size
        if OBS.enabled:
            registry = OBS.registry
            registry.counter("cyclosa_net_messages_total",
                             "messages offered to the network").inc()
            registry.counter("cyclosa_net_bytes_total",
                             "payload bytes offered to the network").inc(size)
        delay = self._latency_for(src, dst).sample(self.rng)
        if OBS.enabled:
            # Per-hop send span: its width is the sampled flight time,
            # stamped up front (the simulator realises it later).
            span = OBS.tracer.start_span("net.send", attributes={
                "src": src, "dst": dst, "kind": kind, "bytes": size})
            OBS.tracer.end_span(span, end_time=span.start + delay)
            OBS.registry.counter(
                "cyclosa_net_flight_seconds_total",
                "cumulative one-way flight time of delivered sends").inc(delay)
        self.simulator.post(delay, lambda: self._deliver(message))
        return message

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:  # destination churned out mid-flight
            self.stats.dropped += 1
            if OBS.enabled:
                OBS.registry.counter(
                    "cyclosa_net_dropped_total",
                    "messages lost (loss, churn, dead senders)").inc()
            return
        if OBS.enabled:
            span = OBS.tracer.start_span("net.recv", attributes={
                "dst": message.dst, "kind": message.kind,
                "bytes": message.size_bytes})
            OBS.tracer.end_span(span)
            OBS.registry.counter("cyclosa_net_delivered_total",
                                 "messages delivered to a live node").inc()
        node.on_message(message)


class RequestContext:
    """Handed to RPC servers; supports immediate or deferred replies."""

    def __init__(self, node: "NetNode", request: Message) -> None:
        self._node = node
        self.request = request
        self.responded = False

    def respond(self, payload: Any, size_bytes: Optional[int] = None) -> None:
        """Send the response back to the requester (at most once)."""
        if self.responded:
            raise NetworkError("duplicate response to one request")
        self.responded = True
        self._node._send_rpc_response(self.request, payload, size_bytes)


@dataclass
class _PendingRequest:
    dst: str
    on_reply: Callable[[Any], None]
    on_timeout: Optional[Callable[[], None]]
    timeout_handle: Optional[EventHandle] = None


class NetNode:
    """Base class for every simulated host.

    Subclasses override :meth:`handle_request` (RPC server side) and/or
    :meth:`handle_datagram` (fire-and-forget messages). The RPC client
    side is :meth:`request`.
    """

    def __init__(self, network: Network, address: str) -> None:
        self.network = network
        self.address = address
        self._pending: Dict[int, _PendingRequest] = {}
        # Requests lost on the wire get locally-allocated *negative*
        # correlation ids: network msg ids start at 1, so a late or
        # duplicated rpc.rsp can never collide with a lost request's
        # bookkeeping entry.
        self._lost_ids = itertools.count(1)
        network.register(self)

    # -- outgoing --------------------------------------------------------

    def send(self, dst: str, kind: str, payload: Any,
             size_bytes: Optional[int] = None) -> None:
        """Fire-and-forget datagram."""
        self.network.send(self.address, dst, kind, payload, size_bytes)

    def request(self, dst: str, payload: Any,
                on_reply: Callable[[Any], None],
                timeout: Optional[float] = None,
                on_timeout: Optional[Callable[[], None]] = None,
                size_bytes: Optional[int] = None,
                kind: str = "rpc") -> None:
        """Send a request; *on_reply* fires with the response payload.

        With *timeout* set, *on_timeout* fires instead if no response
        arrives in time (used to blacklist unresponsive peers, §VI-b).
        """
        message = self.network.send(
            self.address, dst, f"{kind}.req", payload, size_bytes)
        if message is None:
            # Lost on the wire: only the timeout can save the caller.
            # Bookkeeping mirrors the delivered path — a registered
            # pending entry with a *cancellable* timeout handle — so
            # the correlation table never diverges between the two
            # branches (a duplicated delivery of some other response
            # finds exactly the same state either way).
            if timeout is None or on_timeout is None:
                return
            request_id = -next(self._lost_ids)
            pending = _PendingRequest(dst=dst, on_reply=on_reply,
                                      on_timeout=on_timeout)
            pending.timeout_handle = self.network.simulator.schedule(
                timeout, lambda: self._expire(request_id))
            self._pending[request_id] = pending
            return
        pending = _PendingRequest(dst=dst, on_reply=on_reply,
                                  on_timeout=on_timeout)
        if timeout is not None:
            pending.timeout_handle = self.network.simulator.schedule(
                timeout, lambda: self._expire(message.msg_id))
        self._pending[message.msg_id] = pending

    def _expire(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is not None and pending.on_timeout is not None:
            pending.on_timeout()

    def _send_rpc_response(self, request: Message, payload: Any,
                           size_bytes: Optional[int]) -> None:
        self.network.send(
            self.address, request.src, "rpc.rsp",
            {"request_id": request.msg_id, "payload": payload}, size_bytes)

    # -- incoming --------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.kind.endswith(".req"):
            self.handle_request(RequestContext(self, message))
        elif message.kind == "rpc.rsp":
            # Any host can send an rpc.rsp, and message ids are easy to
            # guess: answer a request only with a well-formed envelope
            # from the peer the request went to. Anything else is
            # dropped, and the request keeps waiting for its answer or
            # its timeout.
            envelope = message.payload
            if not isinstance(envelope, dict) or "payload" not in envelope:
                return
            request_id = envelope.get("request_id")
            if (not isinstance(request_id, int)
                    or isinstance(request_id, bool)):
                return
            pending = self._pending.get(request_id)
            if pending is None or pending.dst != message.src:
                return
            del self._pending[request_id]
            if pending.timeout_handle is not None:
                pending.timeout_handle.cancel()
            pending.on_reply(envelope["payload"])
        else:
            self.handle_datagram(message)

    def handle_request(self, ctx: RequestContext) -> None:
        """Override in RPC servers. Default: ignore (Byzantine silence)."""

    def handle_datagram(self, message: Message) -> None:
        """Override for non-RPC messages (gossip). Default: ignore."""
