"""The discrete-event loop.

A minimal, fast scheduler: events are ``[time, seq, callback]`` entries
in a binary heap. ``seq`` is a monotonically increasing counter, so
events scheduled for the same instant run in FIFO order — this is what
makes every simulation in the repository bit-for-bit deterministic
given a seed.

The entries are plain lists, not objects: heap sift compares them with
C-level list comparison (``time`` first, then the unique ``seq``, so
the callback slot is never compared), and cancellation follows the
standard heapq recipe — the handle nulls the entry's callback slot in
place and the loop skips dead entries as they surface. No per-event
allocation beyond the list itself, no flag attribute, nothing retained
after an event is popped.

Accounting distinguishes *live* events from *tombstones*: cancellation
leaves a dead entry in the heap (popped lazily, for free), so the raw
heap length over-reports the actual backlog whenever timeouts are
cancelled in bulk — e.g. every answered RPC in
:mod:`repro.net.transport`. :attr:`Simulator.pending` therefore counts
live (not-yet-fired, not-cancelled) events only — that is what the
``cyclosa_net_pending_events`` gauge reports.

Absolute-time scheduling is exact: :meth:`Simulator.schedule_at`
stores *when* itself in the entry (never ``now + (when - now)``, which
can be an ULP off), so a callback scheduled for an absolute window
boundary observes ``sim.now == when`` bit-for-bit — the
:mod:`repro.obs.timeseries` / heap-sampler window flushes and
:mod:`repro.net.churn` departures rely on landing exactly on their
boundary, not a rounding error to either side.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

#: Heap entry layout: [time, seq, callback]; a dead entry (cancelled,
#: or already executed) has its callback slot set to None (the heapq
#: "mark as removed" recipe).
_TIME, _SEQ, _CALLBACK = 0, 1, 2


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already ran)."""
        if self._entry[_CALLBACK] is not None:
            self._entry[_CALLBACK] = None
            self._sim._live -= 1

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (useful for run-away detection)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* future events: scheduled and neither fired
        nor cancelled. Cancelled tombstones still sitting in the heap
        are excluded — this is the honest backlog number the
        ``cyclosa_net_pending_events`` gauge reports."""
        return self._live

    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Run *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        entry = [self._now + delay, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return EventHandle(entry, self)

    def schedule_at(self, when: float, callback: Callable[[], Any]) -> EventHandle:
        """Run *callback* at absolute simulated time *when*.

        *when* is stored exactly: inside the callback ``sim.now ==
        when`` bit-for-bit. (Delegating to ``schedule(when - now)``
        would store ``now + (when - now)``, which for adversarial
        floats differs from *when* by an ULP and can drop an event on
        the wrong side of an absolute window boundary.)
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when} < "
                f"now={self._now})")
        entry = [when, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return EventHandle(entry, self)

    def post(self, delay: float, callback: Callable[[], Any]) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        The handle object accounts for roughly a quarter of the
        scheduling cost (one extra allocation per event), and most
        call sites — message delivery above all — never cancel.  Use
        ``post`` whenever the caller drops the handle; use
        :meth:`schedule` only when cancellation is actually needed.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, [self._now + delay, next(self._seq), callback])
        self._live += 1

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty.

        Cancelled entries encountered on the way are discarded without
        executing anything — a ``True`` return always means exactly one
        live callback ran.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                continue
            # Mark consumed before running: a handle cancelled *after*
            # the event fired must not decrement the live count again.
            entry[_CALLBACK] = None
            self._live -= 1
            self._now = entry[_TIME]
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            stop_when: Optional[Callable[[], bool]] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulated time would pass this instant (events at
            exactly *until* still run). The clock is advanced to *until*.
        max_events:
            Safety valve for property tests; raises ``RuntimeError`` if
            exceeded, which usually signals an event loop in the model.
            The budget counts *executed callbacks* only: cancelled
            entries popped off the heap on the way are free, so the
            valve bounds real work deterministically regardless of how
            many scheduled events were later cancelled.
        stop_when:
            Checked before every event, ahead of *until* and
            *max_events*: the run ends as soon as it returns true, and
            the clock stays at the last event's time (it does not
            advance to *until*). Cancelled entries are not popped once
            it is true. A synchronous caller waiting for one result
            drives the whole wait with one call, e.g.
            ``run(stop_when=lambda: done or sim.now >= deadline)``.
        """
        if stop_when is not None and stop_when():
            return
        heap = self._heap
        executed = 0
        while heap:
            entry = heap[0]
            callback = entry[_CALLBACK]
            if callback is None:
                heapq.heappop(heap)
                continue
            when = entry[_TIME]
            if until is not None and when > until:
                break
            if max_events is not None and executed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded max_events={max_events}")
            heapq.heappop(heap)
            entry[_CALLBACK] = None  # consumed; see step()
            self._live -= 1
            self._now = when
            self._events_processed += 1
            callback()
            executed += 1
            if stop_when is not None and stop_when():
                return
        if until is not None and self._now < until:
            self._now = until

    def advance(self, seconds: float) -> None:
        """Run all events within the next *seconds* of simulated time."""
        self.run(until=self._now + seconds)
