"""TOR: unlinkability through onion routing (§II-A1, Fig 1).

Two implementations:

- :class:`TorSearch` — the analytic pipeline: the engine observes each
  query from a random exit node's identity. No fakes, perfect
  accuracy. SimAttack attributes anonymous queries to user profiles;
  the paper measures ≈36 % success (and notes the same number applies
  to PEAS/X-Search/CYCLOSA at k = 0).
- :class:`TorClientNode` and :class:`TorRelayNode` (built by
  :func:`build_tor_network`) — the systems version for the latency CDF
  of Fig 8a: real 3-relay circuits. The client wraps the query in three
  layers of RSA-hybrid encryption (:mod:`repro.crypto.rsa`); each relay
  peels one layer and forwards; the exit contacts the engine; the
  response is sealed hop-by-hop on the way back. Relay links use the
  heavy-tailed latency model — the multi-second medians and minute
  tails the paper measures for full search round-trips over TOR.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
)
from repro.crypto.aead import (
    KEY_SIZE,
    AeadError,
    AeadKey,
    open_ as aead_open,
    seal as aead_seal,
)
from repro.crypto.keys import IdentityKeyPair
from repro.net import wire
from repro.net.latency import HeavyTailLatency, LatencyModel
from repro.net.transport import Network, NetNode, RequestContext


class TorSearch(PrivateSearchSystem):
    """Analytic TOR: anonymous identity, no obfuscation."""

    name = "TOR"
    attack_surface = AttackSurface.ANONYMOUS_SINGLE
    properties = {
        "unlinkability": True,
        "indistinguishability": False,
        "accuracy": True,
        "scalability": True,
    }

    def __init__(self, num_exit_nodes: int = 50, seed: int = 0) -> None:
        super().__init__()
        if num_exit_nodes < 1:
            raise ValueError("need at least one exit node")
        self._rng = random.Random(seed)
        self._exits = [f"tor-exit-{i:03d}" for i in range(num_exit_nodes)]

    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        exit_node = self._rng.choice(self._exits)
        return [EngineObservation(
            identity=exit_node, text=query, true_user=user_id)]


# ---------------------------------------------------------------------------
# Network version (Fig 8a)
# ---------------------------------------------------------------------------

#: Per-hop circuit latency. TOR circuits interleave many overlay hops
#: and congested volunteer relays; the model's median/tail are
#: calibrated so a full query → results round trip lands near the
#: paper's measured 62.28 s median.
DEFAULT_RELAY_LATENCY = HeavyTailLatency(
    median=4.6, sigma=0.55, tail_prob=0.10, tail_scale=18.0, tail_alpha=1.7)


def _onion_layer(plaintext: bytes) -> Optional[Dict[str, Any]]:
    """The layer a relay peeled, or ``None`` unless it decodes to a dict
    with a bytes ``backward_key`` of the AEAD key size and either
    ``type`` ``forward`` with a str ``next`` and bytes ``onion``, or
    ``type`` ``exit`` with a str ``engine`` and a str ``query``. Relays
    are volunteers: what reaches one is outside input."""
    try:
        layer = wire.decode(plaintext)
    except wire.DECODE_ERRORS:
        return None
    if not isinstance(layer, dict):
        return None
    backward_key = layer.get("backward_key")
    if not isinstance(backward_key, bytes) or len(backward_key) != KEY_SIZE:
        return None
    if layer.get("type") == "forward":
        fields = (("next", str), ("onion", bytes))
    elif layer.get("type") == "exit":
        fields = (("engine", str), ("query", str))
    else:
        return None
    if all(isinstance(layer.get(name), kind) for name, kind in fields):
        return layer
    return None


class TorRelayNode(NetNode):
    """One onion router: peels a layer, forwards, seals the way back."""

    def __init__(self, network: Network, address: str, rng) -> None:
        super().__init__(network, address)
        self.rng = rng
        self.identity = IdentityKeyPair.generate(bits=512, rng=rng)

    def handle_request(self, ctx: RequestContext) -> None:
        if ctx.request.kind != "onion.req":
            return
        try:
            layer = self.identity.rsa.decrypt(bytes(ctx.request.payload))
        except Exception:
            return  # malformed onion: drop
        inner = _onion_layer(layer)
        if inner is None:
            return  # malformed layer: drop
        backward_key = AeadKey(inner["backward_key"])

        if inner["type"] == "forward":
            # Middle of the circuit: pass the inner onion on.
            def on_reply(response: Any) -> None:
                if isinstance(response, (bytes, bytearray)):
                    ctx.respond(aead_seal(backward_key, bytes(response),
                                          rng=self.rng))

            self.request(inner["next"], inner["onion"], on_reply,
                         timeout=600.0, kind="onion",
                         size_bytes=len(inner["onion"]))
        elif inner["type"] == "exit":
            # Exit node: talk to the engine on the client's behalf.
            def on_engine_reply(response: Any) -> None:
                payload = wire.encode(response)
                ctx.respond(aead_seal(backward_key, payload, rng=self.rng))

            self.request(inner["engine"],
                         {"query": inner["query"], "meta": inner.get("meta") or {}},
                         on_engine_reply, timeout=600.0, kind="search")


class TorClientNode(NetNode):
    """A client that builds 3-relay circuits and onion-wraps queries."""

    def __init__(self, network: Network, address: str, rng,
                 relays: List[TorRelayNode], engine_address: str,
                 circuit_length: int = 3) -> None:
        super().__init__(network, address)
        if circuit_length < 1:
            raise ValueError("circuit length must be >= 1")
        if len(relays) < circuit_length:
            raise ValueError("not enough relays for the circuit length")
        self.rng = rng
        self.relays = relays
        self.engine_address = engine_address
        self.circuit_length = circuit_length

    def search(self, query: str,
               on_result: Callable[[Dict[str, Any]], None]) -> None:
        """Send *query* through a fresh random circuit."""
        issued_at = self.network.simulator.now
        circuit = self.rng.sample(self.relays, self.circuit_length)
        backward_keys = [AeadKey.generate(self.rng) for _ in circuit]

        # Innermost layer: the exit instruction.
        layer = wire.encode({
            "type": "exit",
            "engine": self.engine_address,
            "query": query,
            "meta": {"true_user": self.address},
            "backward_key": backward_keys[-1].key,
        })
        onion = circuit[-1].identity.public.encrypt(layer, rng=self.rng)
        # Wrap outward: each layer tells relay i to forward to relay i+1.
        for position in range(len(circuit) - 2, -1, -1):
            layer = wire.encode({
                "type": "forward",
                "next": circuit[position + 1].address,
                "onion": onion,
                "backward_key": backward_keys[position].key,
            })
            onion = circuit[position].identity.public.encrypt(
                layer, rng=self.rng)

        def on_reply(response: Any) -> None:
            if not isinstance(response, (bytes, bytearray)):
                return
            payload = bytes(response)
            try:
                # Peel the backward onion: guard layers first.
                for key in backward_keys:
                    payload = aead_open(key, payload)
                engine_response = wire.decode(payload)
            except (AeadError, *wire.DECODE_ERRORS):
                return  # not sealed by this circuit: drop
            if not isinstance(engine_response, dict):
                return
            on_result({
                "query": query,
                "status": engine_response.get("status", "ok"),
                "hits": engine_response.get("hits", []),
                "latency": self.network.simulator.now - issued_at,
                "k": 0,
            })

        self.request(circuit[0].address, onion, on_reply,
                     timeout=1200.0, kind="onion", size_bytes=len(onion))


def build_tor_network(network: Network, rng, engine_address: str,
                      num_relays: int = 9,
                      relay_latency: Optional[LatencyModel] = None
                      ) -> List[TorRelayNode]:
    """Create relay nodes and install heavy-tailed circuit-hop latency
    on every link touching them."""
    latency = relay_latency or DEFAULT_RELAY_LATENCY
    relays = []
    for index in range(num_relays):
        relay = TorRelayNode(network, f"tor-relay-{index:03d}", rng)
        network.set_node_latency(relay.address, latency)
        relays.append(relay)
    return relays
