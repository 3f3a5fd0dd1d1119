"""Timings corrected for the speed the machine ran at.

The reference box is a virtual machine on a shared host. Other tenants
slow it down in two ways:

- they take its CPU away: the program waits, runnable, while something
  else runs;
- they share its physical cores: the program runs, but slower. A fixed
  pure-Python loop timed there in 1 ms slices ran either at full speed
  or about 1.6 times slower, in episodes of 0.1 s to several minutes.

Timed plainly, ten runs of one workload spread by up to a third of
their median, and a run cannot wait a long episode out.

Every timing therefore reads :func:`now`, the CPU time of the thread
that runs the simulation. It leaves out the time the thread waited for
a CPU, which handles the first kind. It still runs slow in a slow
episode (the kernel reports no steal time), so a :class:`Speedometer`
measures that slowdown beside the workload. While it is running, a
timer signal interrupts the program every ``INTERVAL_S`` of CPU time,
and the handler times one fixed unit of reference work
(:class:`ReferenceWork`). The slowdown around a moment is the mean time
of the probes near it divided by ``REFERENCE_PROBE_S``, the unit's time
on the reference box at full speed. :meth:`Speedometer.seconds` turns
an interval into *reference seconds*: its CPU time, less the probes
that ran inside it, divided by the slowdown around it. A change that
makes the program faster or slower moves reference seconds as it moves
CPU seconds; the probe is this package's code and does not change with
the program.

The program under test does all its work on the calling thread and
never waits for anything but the CPU, so on an idle machine its CPU
time is its wall time. Work on other threads or in other processes
would not be timed; the runner fails a run that starts either.

The probe runs between two bytecodes of whatever the program is doing,
so it never splits a clock reading, and it touches no program state.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import hmac
import random
import signal
import time
from typing import Dict, List, Tuple

#: The clock of every timing: CPU seconds of the calling thread.
now = time.thread_time

#: CPU seconds between probes: about 2 % of the time goes to probing.
INTERVAL_S = 0.01
#: An interval's slowdown is measured over the probes that started
#: inside it or within this many seconds of either end.
MARGIN_S = 0.1
#: About the time of ``ReferenceWork.run`` between the program's own
#: work on the reference box at full speed (0.18-0.20 ms; 0.14 ms when
#: run back to back, with its data in cache). It only sets the scale:
#: a reference second is about a wall second on that box, unloaded.
REFERENCE_PROBE_S = 0.00019


class _Event:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time: float, key: int, payload: Dict[str, object]
                 ) -> None:
        self.time = time
        self.key = key
        self.payload = payload


class ReferenceWork:
    """A fixed unit of work in the program's mix of operations.

    Splitting short texts into terms and counting them (text), events
    through a heap (the simulator), small objects and dicts (messages),
    and a keyed SHA-256 (crypto). Every call does exactly the same work.
    """

    ROUNDS = 60

    def __init__(self) -> None:
        rng = random.Random(0)
        words = [f"w{index}" for index in range(4096)]
        self._texts = [" ".join(rng.choice(words) for _ in range(6))
                       for _ in range(2048)]
        self._key = bytes(32)

    def run(self) -> int:
        index = 0
        heap: List[Tuple[float, int, _Event]] = []
        counts: Dict[str, int] = {}
        digest = 0
        for step in range(self.ROUNDS):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            text = self._texts[index % len(self._texts)]
            terms = text.split()
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            event = _Event(step * 0.01 + (index & 7), index,
                           {"text": text, "terms": len(terms)})
            heapq.heappush(heap, (event.time, step, event))
            if len(heap) > 8:
                digest ^= heapq.heappop(heap)[2].payload["terms"]
            if step % 8 == 0:
                digest ^= hmac.new(self._key, text.encode(),
                                   hashlib.sha256).digest()[0]
        return digest


class Speedometer:
    """Probes the machine's speed while it runs (``with meter:``).

    Readings are taken with :func:`now`; convert them with
    :meth:`seconds` once the meter has stopped.
    """

    def __init__(self) -> None:
        self._work = ReferenceWork()
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._running = False
        self._cumulative: List[float] = [0.0]

    def __enter__(self) -> "Speedometer":
        self._starts.clear()
        self._durations.clear()
        self._running = True
        # The handler stays installed after the meter stops: a tick that
        # was already due is then ignored rather than left to the
        # default action, which ends the process. ITIMER_PROF counts the
        # process's CPU time, so a probe never lands while it waits.
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self._running = False
        self._cumulative = [0.0]
        for duration in self._durations:
            self._cumulative.append(self._cumulative[-1] + duration)

    def _tick(self, signum, frame) -> None:
        if not self._running:
            return
        # A tick that falls due during a probe is skipped, so probes
        # never nest.
        self._running = False
        # A collection that fell due inside the probe would time the
        # program's garbage, not the machine; the probe frees everything
        # it allocates, so pausing the collector defers nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = now()
            self._work.run()
            self._durations.append(now() - start)
            self._starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._running = True

    def _between(self, start: float, end: float) -> Tuple[int, float]:
        """(probes, their seconds) for probes started in [start, end)."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        return last - first, self._cumulative[last] - self._cumulative[first]

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the machine ran over
        [start, end], widened by ``MARGIN_S`` on each side."""
        count, seconds = self._between(start - MARGIN_S, end + MARGIN_S)
        if not count:
            raise RuntimeError(f"no speed probe within {MARGIN_S} s of "
                               f"the interval [{start:.3f}, {end:.3f}]")
        return seconds / count / REFERENCE_PROBE_S

    def unprobed(self, start: float, end: float) -> float:
        """CPU seconds in [start, end] less the probes inside it."""
        return end - start - self._between(start, end)[1]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds for the interval [start, end]."""
        return self.unprobed(start, end) / self.slowdown(start, end)


class CpuClock:
    """The :class:`Speedometer` interface for plain CPU seconds (the
    traced replay, whose wrappers a probe would land inside)."""

    def unprobed(self, start: float, end: float) -> float:
        return end - start

    def seconds(self, start: float, end: float) -> float:
        return end - start
