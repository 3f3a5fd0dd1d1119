"""City-scale churn+chaos run on the single-heap simulator.

A 10k-node (up to 100k-node) overlay surviving churn and message
chaos, simulated on one machine. The workload is the *network-layer*
stress mix of the paper's threat model — §III lets peers "behave
arbitrarily by crashing", §VI-b answers with per-query blacklisting
and retries — distilled to the traffic shape that saturates the event
loop: every node periodically fans a query out to ``fanout`` random
peers (CYCLOSA's k-fan-out, relay-eye view), peers answer unless chaos
drops the query, and a per-query timer classifies the round as ok /
partial / failed. Churned nodes crash mid-run and their pending
traffic is dropped, as on the real overlay.

The nodes run on :class:`~repro.net.simulator.Simulator` through a
small actor shim (:class:`ScaleActor`). Peer choice, chaos drops and
churn instants draw from per-node RNGs seeded by sha256 of ``(seed,
address)``, and every message delay is a crc32 hash of ``(seed, src,
dst, send counter)`` — no shared random stream — so a run is a pure
function of its arguments. ``tests/experiments/test_scale.py``
pins its counts and per-node stats.

CLI::

    python -m repro scale                      # 10k nodes, churn+chaos
    python -m repro scale --nodes 100000 --duration 10
    python -m repro scale --json
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import zlib
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.net.simulator import Simulator

#: Defaults of the named 10k-node scenario (`main()` and `repro scale`
#: run exactly this).
DEFAULT_SCENARIO: Dict[str, Any] = {
    "num_nodes": 10_000,
    "duration": 20.0,
    "seed": 0,
    "fanout": 3,
    "query_interval": 1.0,
    "query_timeout": 0.8,
    "response_drop": 0.05,
    "churn_fraction": 0.10,
    "churn_start": 5.0,
    "churn_window": 10.0,
    "min_latency": 0.05,
    "latency_jitter": 0.10,
}


def make_addresses(num_nodes: int) -> List[str]:
    """The canonical address universe of a run."""
    return [f"n{index:06d}" for index in range(num_nodes)]


def _actor_seed(seed: int, address: str) -> int:
    """Stable per-actor RNG seed (sha256, not ``hash()`` — the latter
    is salted per process for strings)."""
    digest = hashlib.sha256(f"{seed}|{address}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class _World:
    """What every actor of one run shares: the event loop, the link
    model and the kernel-level counters."""

    def __init__(self, seed: int, min_latency: float,
                 latency_jitter: float) -> None:
        self.simulator = Simulator()
        self.post = self.simulator.post
        self.seed = seed
        self.min_latency = min_latency
        self.latency_jitter = latency_jitter
        self.messages_sent = 0
        self.dropped_to_departed = 0
        self.departed = 0


class ScaleActor:
    """One node on the shared :class:`Simulator`.

    Models talk to the world only through :meth:`send`,
    :meth:`set_timer` and :meth:`depart`; an event is a call of the
    receiving actor's method. ``self.rng`` is the actor's private
    RNG, the only randomness a model may use. Once an actor departs,
    every event still addressed to it is dropped and counted: each
    handler opens with ``if not self.alive: return self._drop()``
    (inline rather than a wrapper, which would cost one more call on
    every event).
    """

    def __init__(self, world: _World, index: int, address: str,
                 config: Dict[str, Any]) -> None:
        self.world = world
        self.index = index
        self.address = address
        self.config = config
        self.rng = random.Random(_actor_seed(world.seed, address))
        self.alive = True
        self._msg_seq = 0
        # crc32 state after "{seed}|{address}|": every delay hash this
        # actor sends starts with it (see send).
        self._link_crc = zlib.crc32(f"{world.seed}|{address}|".encode("utf-8"))

    def send(self, dst: "ScaleActor", method: Callable[..., None],
             *args: Any) -> None:
        """Run ``method(dst, *args)`` after ``min_latency`` plus a jitter
        hashed from the link and this actor's send counter. *method* is
        the plain function from *dst*'s class: unlike a bound method it
        costs no allocation per message."""
        world = self.world
        self._msg_seq += 1
        world.messages_sent += 1
        # The jitter unit is crc32("{seed}|{src}|{dst}|{seq}") / 2**32,
        # continued from this actor's prefix state: a pure function of
        # the link and the send counter. crc32 spreads arrivals well
        # enough and costs far less than a cryptographic hash; it is
        # inline, not a helper, because it runs once per message.
        unit = zlib.crc32(f"{dst.address}|{self._msg_seq}".encode("utf-8"),
                          self._link_crc) / 4294967296.0
        world.post(world.min_latency + world.latency_jitter * unit,
                   partial(method, dst, *args))

    def set_timer(self, delay: float, handler: Callable[..., None],
                  *args: Any) -> None:
        """Run ``handler(*args)`` — a method of this actor — after
        *delay* seconds."""
        self.world.post(delay, partial(handler, *args) if args else handler)

    def depart(self) -> None:
        """Crash (churn): nothing addressed to this actor runs again."""
        if self.alive:
            self.alive = False
            self.world.departed += 1

    def _drop(self) -> None:
        self.world.dropped_to_departed += 1


class ChurnChaosActor(ScaleActor):
    """One overlay node of the churn+chaos stress mix.

    Config keys (see :data:`DEFAULT_SCENARIO`): ``fanout``,
    ``query_interval``, ``query_timeout``, ``response_drop`` (chaos:
    the probability a peer silently eats a query, like a
    crashed-after-receive relay), ``churn_fraction`` /
    ``churn_start`` / ``churn_window`` (which nodes crash, and when).
    """

    def start(self, nodes: List["ChurnChaosActor"]) -> None:
        """Join the overlay of *nodes* (this actor included) at time 0."""
        config = self.config
        self.nodes = nodes
        self.queries = 0
        self.ok = 0
        self.partial = 0
        self.failed = 0
        self.replies_sent = 0
        self.chaos_dropped = 0
        self.was_churned = 0
        self._qid = 0
        self._received: Dict[int, int] = {}
        if self.rng.random() < config["churn_fraction"]:
            self.was_churned = 1
            self.set_timer(
                config["churn_start"]
                + self.rng.uniform(0.0, config["churn_window"]), self.depart)
        # Spread first queries over one interval so the overlay does
        # not fire in lock-step.
        self.set_timer(self.rng.uniform(0.0, config["query_interval"]),
                       self.query_round)

    def _pick_peer(self) -> "ChurnChaosActor":
        num_nodes = len(self.nodes)
        while True:
            peer = self.rng.randrange(num_nodes)
            if peer != self.index:
                return self.nodes[peer]

    def query_round(self) -> None:
        if not self.alive:
            return self._drop()
        self._qid += 1
        qid = self._qid
        self._received[qid] = 0
        for _ in range(self.config["fanout"]):
            peer = self._pick_peer()
            self.send(peer, ChurnChaosActor.on_query, self, qid)
        self.queries += 1
        self.set_timer(self.config["query_timeout"], self.close_round, qid)
        self.set_timer(self.config["query_interval"], self.query_round)

    def close_round(self, qid: int) -> None:
        if not self.alive:
            return self._drop()
        received = self._received.pop(qid, 0)
        if received >= self.config["fanout"]:
            self.ok += 1
        elif received > 0:
            self.partial += 1
        else:
            self.failed += 1

    def on_query(self, src: "ChurnChaosActor", qid: int) -> None:
        if not self.alive:
            return self._drop()
        if self.rng.random() < self.config["response_drop"]:
            self.chaos_dropped += 1  # chaos: silently eaten
            return
        self.replies_sent += 1
        self.send(src, ChurnChaosActor.on_reply, qid)

    def on_reply(self, qid: int) -> None:
        if not self.alive:
            return self._drop()
        if qid in self._received:
            self._received[qid] += 1

    def node_stats(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "ok": self.ok,
            "partial": self.partial,
            "failed": self.failed,
            "replies_sent": self.replies_sent,
            "chaos_dropped": self.chaos_dropped,
            "was_churned": self.was_churned,
        }


def run(num_nodes: int = 10_000, duration: float = 20.0, seed: int = 0,
        collect_node_stats: bool = False,
        **scenario: Any) -> Dict[str, Any]:
    """One churn+chaos run over ``[0, duration)``; returns the report.

    *scenario* overrides the :data:`DEFAULT_SCENARIO` workload knobs
    (``fanout``, ``query_interval``, ``response_drop``, ...). The
    returned dict is a pure function of the arguments except for
    ``wall_seconds`` / ``events_per_sec``.
    """
    config = dict(DEFAULT_SCENARIO)
    unknown = set(scenario) - set(config)
    if unknown:
        raise TypeError(f"unknown scenario knobs: {sorted(unknown)}")
    config.update(scenario)
    config.update(num_nodes=num_nodes, duration=duration, seed=seed)
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2 (nodes query peers)")
    if duration <= 0:
        raise ValueError("duration must be > 0")
    begin = time.perf_counter()
    world = _World(seed, config["min_latency"], config["latency_jitter"])
    nodes = [ChurnChaosActor(world, index, address, config)
             for index, address in enumerate(make_addresses(num_nodes))]
    for node in nodes:
        node.start(nodes)
    # Half-open horizon: events at exactly `duration` do not run.
    world.simulator.run(until=math.nextafter(duration, 0.0))
    wall_seconds = time.perf_counter() - begin
    events = world.simulator.events_processed
    ok = sum(node.ok for node in nodes)
    partial_rounds = sum(node.partial for node in nodes)
    failed = sum(node.failed for node in nodes)
    result: Dict[str, Any] = {
        "scenario": {key: config[key] for key in sorted(config)},
        "events": events,
        "messages_sent": world.messages_sent,
        "dropped_to_departed": world.dropped_to_departed,
        "departed": world.departed,
        "completed_rounds": ok + partial_rounds + failed,
        "ok_rounds": ok,
        "partial_rounds": partial_rounds,
        "failed_rounds": failed,
        "chaos_dropped": sum(node.chaos_dropped for node in nodes),
        "wall_seconds": wall_seconds,
        "events_per_sec": events / wall_seconds if wall_seconds else 0.0,
    }
    if collect_node_stats:
        result["node_stats"] = {node.address: node.node_stats()
                                for node in nodes}
    return result


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON of the deterministic part of a report (the
    wall-clock numbers are stripped: same seed → same bytes)."""
    stable = {key: value for key, value in report.items()
              if key not in ("wall_seconds", "events_per_sec")}
    return json.dumps(stable, indent=2, sort_keys=True)


def format_report(report: Dict[str, Any]) -> str:
    scenario = report["scenario"]
    return "\n".join([
        f"churn+chaos run — {scenario['num_nodes']} nodes, "
        f"{scenario['duration']}s simulated (seed {scenario['seed']})",
        f"  events executed          : {report['events']:>12,}",
        f"  events/sec (wall)        : {report['events_per_sec']:>12,.0f}",
        f"  messages sent            : {report['messages_sent']:>12,}",
        f"  query rounds completed   : {report['completed_rounds']:>12,}",
        f"    ok / partial / failed  : {report['ok_rounds']:,} / "
        f"{report['partial_rounds']:,} / {report['failed_rounds']:,}",
        f"  chaos-eaten queries      : {report['chaos_dropped']:>12,}",
        f"  churned nodes            : {report['departed']:>12,}",
        f"  msgs dropped to departed : {report['dropped_to_departed']:>12,}",
    ])


def main(argv: Optional[list] = None) -> None:
    """Run the named 10k-node churn+chaos scenario."""
    print(format_report(run()))


if __name__ == "__main__":
    main()
