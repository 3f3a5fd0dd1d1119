"""Churn injection: drive node departures/failures over simulated time.

The paper's model lets peers "behave arbitrarily by crashing" (§III);
the overlay's answer is gossip self-healing plus per-query blacklisting
(§VI-b). :class:`ChurnProcess` schedules departures (and optional
crash-style silence) against any set of nodes so experiments and tests
can measure recovery instead of hand-killing nodes.

Two departure styles:

- ``"crash"``   — the node vanishes from the network mid-flight; no
  retirement from the bootstrap repository (stale entries remain, as in
  real deployments);
- ``"graceful"`` — the node retires from the repository first (clean
  shutdown), then leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.obs import OBS


@dataclass
class ChurnEvent:
    """One scheduled departure, for post-hoc inspection."""

    time: float
    address: str
    style: str


class ChurnProcess:
    """Schedules departures of victim nodes over a time window."""

    def __init__(self, network, rng,
                 repository=None,
                 on_depart: Optional[Callable[[str], None]] = None) -> None:
        self.network = network
        self.rng = rng
        self.repository = repository
        self.on_depart = on_depart
        self.events: List[ChurnEvent] = []

    def schedule_departures(self, victims: Sequence, start: float,
                            duration: float,
                            style: str = "crash") -> List[ChurnEvent]:
        """Spread the victims' departures uniformly over the window.

        Each victim must expose ``address`` and (optionally) a
        ``pss.stop()`` to halt its gossip before vanishing.
        """
        if style not in ("crash", "graceful"):
            raise ValueError("style must be 'crash' or 'graceful'")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        now = self.network.simulator.now
        if start < now:
            # Validate up front: otherwise the first draw that lands
            # before `now` fails deep inside Simulator.schedule with an
            # opaque "cannot schedule into the past (delay=-…)".
            raise ValueError(
                f"departure window [{start}, {start + duration}] starts "
                f"in the past: the simulation is already at "
                f"sim.now={now}")
        scheduled: List[ChurnEvent] = []
        for victim in victims:
            when = start + self.rng.uniform(0.0, duration)
            event = ChurnEvent(time=when, address=victim.address,
                               style=style)
            scheduled.append(event)
            self.events.append(event)
            self.network.simulator.schedule_at(
                when, lambda v=victim, s=style: self._depart(v, s))
        return scheduled

    def _depart(self, victim, style: str) -> None:
        span = None
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_churn_departures_total",
                "Nodes removed from the overlay by churn injection.",
                style=style).inc()
            span = OBS.tracer.start_span(
                "churn.departure",
                attributes={"node": victim.address, "style": style})
        pss = getattr(victim, "pss", None)
        if pss is not None:
            pss.stop()
        if style == "graceful" and self.repository is not None:
            self.repository.retire(victim.address)
        self.network.unregister(victim.address)
        if self.on_depart is not None:
            self.on_depart(victim.address)
        if span is not None:
            OBS.tracer.end_span(span)
            # Mirror into the departing node's own sink so the event
            # shows up next to that node's relay spans in assembled
            # deployment traces.
            OBS.router.record(victim.address, span)
