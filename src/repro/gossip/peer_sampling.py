"""The push-pull peer-sampling shuffle.

Each node runs a :class:`PeerSamplingService` attached to its transport
node. Every ``interval`` simulated seconds it picks its *oldest* view
entry, pushes a buffer (its own fresh descriptor plus a random half of
its view) and merges the buffer the peer returns. The (heal, swap)
parameters follow the healer/swapper policies of Jelasity et al.;
defaults favour healing, which keeps the overlay connected under churn.

CYCLOSA consumes exactly one API from this service:
:meth:`PeerSamplingService.random_peers` — a uniform sample of live
addresses used to pick the ``k+1`` relays of a protected query (§V-C).
Relay selection from a *continuously reshuffled* random view is also
what spreads load evenly across nodes (Fig 8d).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.gossip.view import NodeDescriptor, PartialView
from repro.net.transport import NetNode, RequestContext
from repro.obs import OBS

GOSSIP_KIND = "pss"


class PeerSamplingService:
    """Random peer sampling for one overlay node.

    Parameters
    ----------
    node:
        The transport node to gossip through.
    rng:
        Seeded RNG shared with the rest of the node.
    view_size:
        Partial view capacity ``c`` (8 suffices for the overlay sizes
        simulated here; the original paper uses 30 at internet scale).
    heal, swap:
        The H and S policy parameters.
    interval:
        Simulated seconds between gossip rounds.
    """

    def __init__(self, node: NetNode, rng, view_size: int = 8,
                 heal: int = 2, swap: int = 3,
                 interval: float = 5.0) -> None:
        self._node = node
        self._rng = rng
        self.view = PartialView(view_size)
        self.heal = heal
        self.swap = swap
        self.interval = interval
        self._running = False
        self.rounds_completed = 0

    @property
    def address(self) -> str:
        return self._node.address

    # -- bootstrap & lifecycle -------------------------------------------

    def bootstrap(self, seeds: Sequence[str]) -> None:
        """Fill the initial view from repository-provided addresses."""
        for address in seeds:
            if address != self.address:
                self.view.insert(NodeDescriptor(address, age=0))

    def start(self) -> None:
        """Begin periodic gossip on the node's simulator."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        # Jitter desynchronises rounds across nodes.
        jitter = self._rng.uniform(0.0, 0.1 * self.interval)
        self._node.network.simulator.post(
            self.interval + jitter, self._gossip_round)

    # -- the shuffle -------------------------------------------------------

    def _build_buffer(self) -> List[NodeDescriptor]:
        buffer = [NodeDescriptor(self.address, age=0)]
        half = max(0, self.view.capacity // 2 - 1)
        buffer.extend(map(self.view.descriptor,
                          self.view.sample(half, self._rng)))
        return buffer

    def _received(self, buffer: Any) -> Optional[List[NodeDescriptor]]:
        """The descriptors of a peer's view *buffer* other than this
        node's own, or ``None`` unless the buffer is a list of dicts,
        each with a str ``address`` and a non-negative int ``age``.
        Gossip is not authenticated, so any host can send one."""
        if not isinstance(buffer, list):
            return None
        received = []
        for entry in buffer:
            if not isinstance(entry, dict):
                return None
            address, age = entry.get("address"), entry.get("age")
            if (not isinstance(address, str) or not isinstance(age, int)
                    or isinstance(age, bool) or age < 0):
                return None
            if address != self.address:
                received.append(NodeDescriptor(address, age))
        return received

    def _gossip_round(self) -> None:
        if not self._running:
            return
        self.view.increase_ages()
        peer = self.view.oldest_peer()
        if peer is not None:
            buffer = self._build_buffer()
            payload = [
                {"address": d.address, "age": d.age} for d in buffer
            ]
            exchange_span = None

            def _close_exchange(outcome: str) -> None:
                if exchange_span is not None:
                    exchange_span.set_attribute("outcome", outcome)
                    OBS.tracer.end_span(exchange_span)
                    # Mirror into this node's sink: gossip exchanges
                    # appear in assembled deployment traces next to
                    # the node's relay spans.
                    OBS.router.record(self.address, exchange_span)

            def on_reply(response) -> None:
                received = self._received(response)
                if received is None:
                    # A malformed buffer is no answer: drop the peer,
                    # as for an unresponsive one.
                    self.view.remove(peer)
                    _close_exchange("malformed")
                    return
                self.view.merge(received, sent=buffer, heal=self.heal,
                                swap=self.swap, rng=self._rng)
                self.rounds_completed += 1
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_gossip_view_exchanges_total",
                        "completed push-pull view exchanges").inc()
                    _close_exchange("merged")

            def on_timeout() -> None:
                # Unresponsive peer: drop it — the self-healing step.
                self.view.remove(peer)
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_gossip_peer_timeouts_total",
                        "gossip peers dropped for unresponsiveness").inc()
                    _close_exchange("timeout")

            if OBS.enabled:
                OBS.registry.counter(
                    "cyclosa_gossip_rounds_total",
                    "gossip rounds initiated", mode="push_pull").inc()
                exchange_span = OBS.tracer.start_span(
                    "gossip.exchange",
                    attributes={"node": self.address, "peer": peer,
                                "mode": "push_pull",
                                "descriptors": len(payload)})

            self._node.request(
                peer, payload, on_reply, timeout=4 * self.interval,
                on_timeout=on_timeout, kind=GOSSIP_KIND)
        self._schedule_next()

    def handle_request(self, ctx: RequestContext) -> bool:
        """Responder half of the push-pull exchange.

        Returns True when the request was a gossip message (so node
        dispatch code can try other handlers otherwise).
        """
        if ctx.request.kind != f"{GOSSIP_KIND}.req":
            return False
        received = self._received(ctx.request.payload)
        if received is None:
            return True  # malformed buffer: dropped without an answer
        buffer = self._build_buffer()
        ctx.respond([{"address": d.address, "age": d.age} for d in buffer])
        self.view.merge(received, sent=buffer, heal=self.heal,
                        swap=self.swap, rng=self._rng)
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_gossip_view_exchanges_total",
                "completed push-pull view exchanges").inc()
        return True

    # -- the API CYCLOSA consumes ------------------------------------------

    def random_peers(self, count: int,
                     exclude: Sequence[str] = ()) -> List[str]:
        """A uniform sample of *count* distinct peers from the view."""
        return self.view.sample(count, self._rng, exclude=exclude)
