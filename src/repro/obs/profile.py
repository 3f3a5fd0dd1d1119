"""Deterministic profiler with per-subsystem attribution.

Wall-clock profilers (``cProfile`` timers, SIGPROF) produce different
output on every run — useless for diffing across seeds and commits.
This profiler counts *interpreter events* instead: a
``sys.setprofile`` hook sees every python ``call`` event and charges
it, with its stack, to the subsystems it runs in. Same seed, same
code → same call sequence → byte-identical profiles, on any machine.

What a profile contains:

- **collapsed stacks** (``frame;frame;frame count`` — the flamegraph.pl
  / speedscope "collapsed" format), one count per call event, frames
  rendered as ``module:qualname`` only — never argument values, query
  text or per-user identifiers
  (:func:`repro.obs.audit.audit_profile_output` proves this, and the
  leak gate in ``tests/obs/test_audit.py`` checks it);
- **subsystem attribution**: each call event charges one *self* count
  to the repro package of its own frame (``core``, ``sgx``, ``net``,
  ``crypto``, ``searchengine``, ``gossip``, ``obs``, ...), and every
  package present anywhere in its stack one *cumulative* count.

Heap attribution rides alongside: :class:`HeapSampler` takes
``tracemalloc`` snapshots at absolute window boundaries (the same
boundary rule as :class:`repro.obs.timeseries.TimeSeriesRecorder`) and
groups live bytes by the subsystem that allocated them. The CPU hook
is suspended while a snapshot is processed, so tracemalloc's
data-dependent work never enters the call-event stream. The scheduled
flushes themselves do, a fixed number of call events per window, so
CPU profiles are byte-identical across same-seed runs with the same
heap setting (the profile gate runs with heap sampling off).

Everything bounded: distinct stacks and heap windows live in capped
structures with overflow counters — a pathological workload degrades
the profile, never the process.

Like the rest of ``repro.obs``, the scheduler argument is duck-typed
(``now`` / ``schedule`` / ``schedule_at``) so this module stays free
of ``repro.net`` imports, and nothing here reads a wall clock.
"""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

#: Stack frames captured per call event (deeper stacks are cut at the
#: root end and counted in :attr:`DeterministicProfiler.truncated`).
DEFAULT_MAX_DEPTH = 64

#: Distinct stacks retained; further novel stacks collapse into the
#: ``[overflow]`` pseudo-frame so memory stays bounded.
DEFAULT_MAX_STACKS = 20_000

#: Heap windows retained per :class:`HeapSampler`.
DEFAULT_HEAP_RETENTION = 1_024

#: First-level ``repro.*`` packages call events are attributed to.
#: Anything else under ``repro`` maps to ``other``; frames outside the
#: repro tree map to ``stdlib``.
KNOWN_SUBSYSTEMS = frozenset({
    "attacks", "baselines", "cli", "core", "crypto", "datasets",
    "experiments", "faults", "gossip", "lint", "metrics", "net", "obs",
    "perf", "searchengine", "sgx", "text",
})

#: Pseudo-frame charged when the distinct-stack cap is hit.
OVERFLOW_FRAME = "[overflow]"

#: Shape every emitted frame must match: ``module:qualname`` built
#: from code metadata only. The audit layer rejects anything else —
#: a frame is a code location, never data.
CODE_LOCATION_RE = re.compile(r"^[A-Za-z_][\w.]*:[\w.<>\[\]]+$")

#: Modules at which stacks start (scenario entry points). Cutting
#: here makes collapsed stacks independent of *how* the scenario was
#: launched — `repro profile`, `repro perf` and pytest all produce
#: identical stacks, which is what lets the profile gate diff against
#: a committed baseline.
DEFAULT_STACK_ROOTS = ("repro.experiments.profiling",)


def subsystem_of_module(module: str) -> str:
    """Map a dotted module name to its attribution bucket."""
    if module == "repro" or module == "repro.__main__":
        return "other"
    if module.startswith("repro."):
        package = module.split(".", 2)[1]
        return package if package in KNOWN_SUBSYSTEMS else "other"
    return "stdlib"


def subsystem_of_path(filename: str) -> str:
    """Map a source-file path (tracemalloc) to its attribution bucket."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            rest = parts[index + 1:]
            if not rest or rest == ["__init__.py"] or rest == ["__main__.py"]:
                return "other"
            head = rest[0]
            if head.endswith(".py"):
                head = head[:-3]
            return head if head in KNOWN_SUBSYSTEMS else "other"
    return "stdlib"


class DeterministicProfiler:
    """Call-event counting profiler (see module docstring).

    A call's stack runs from the outermost *stack root* frame (or the
    bottom of the thread's stack when there is none) down to the
    called frame. Stacks longer than ``max_depth`` keep their innermost
    frames and are counted in :attr:`truncated`.

    Parameters
    ----------
    max_depth / max_stacks:
        Bounds; see the module constants.
    stack_roots:
        Module prefixes at which stacks start (the root frame is kept,
        its callers are dropped), so profiles are identical no matter
        which entry point launched the scenario.
    """

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH,
                 max_stacks: int = DEFAULT_MAX_STACKS,
                 stack_roots: Sequence[str] = DEFAULT_STACK_ROOTS) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self.stack_roots = tuple(stack_roots)
        self.call_events = 0
        self.truncated = 0
        self.stack_overflows = 0
        self.active = False
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._self: Dict[str, int] = {}
        self._cum: Dict[str, int] = {}
        #: code object -> (label, subsystem, is a stack root), bounded
        #: by the number of distinct code objects the workload touches.
        self._codes: Dict[Any, Tuple[str, str, bool]] = {}
        #: One entry per frame whose call the hook saw and whose return
        #: it has not: (frame, stack, subsystems, rooted, truncated). A
        #: call's entry extends its caller's, so no event walks the
        #: whole stack.
        self._path: List[tuple] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Install the hook. Refuses to stack on a foreign profiler."""
        if self.active:
            raise RuntimeError("profiler already started")
        if sys.getprofile() is not None:
            raise RuntimeError("another profile hook is installed")
        self.active = True
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Uninstall the hook; collected data stays readable."""
        if self.active:
            sys.setprofile(None)
            self.active = False
            self._path.clear()

    def __enter__(self) -> "DeterministicProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the hook ------------------------------------------------------

    def _hook(self, frame, event: str, arg) -> None:
        # Python disables profiling while the hook runs, so nothing
        # below recurses. Only `call` events are counted: they are pure
        # interpreter state, identical across same-seed runs and
        # machines (wall time never enters the picture). A `return`
        # also ends a frame that raised, and a generator's yield
        # returns and its resumption calls again.
        if event == "call":
            self._count(frame)
        elif event == "return":
            path = self._path
            if path and path[-1][0] is frame:
                path.pop()

    def _count(self, frame) -> None:
        path = self._path
        caller = frame.f_back
        # The caller has no entry on top when it was entered before the
        # hook saw it: before start(), or while the hook was off.
        entry = self._enter(
            path[-1] if path and path[-1][0] is caller
            else self._entry_of(caller), frame)
        path.append(entry)
        _, stack, subsystems, _, truncated = entry
        self.call_events += 1
        if truncated:
            self.truncated += 1
        count = self._stacks.get(stack)
        if count is None and len(self._stacks) >= self.max_stacks:
            self.stack_overflows += 1
            stack = (OVERFLOW_FRAME,)
            count = self._stacks.get(stack)
        self._stacks[stack] = (count or 0) + 1
        leaf = self._codes[frame.f_code][1]
        self._self[leaf] = self._self.get(leaf, 0) + 1
        for sub in subsystems:
            self._cum[sub] = self._cum.get(sub, 0) + 1

    def _entry_of(self, frame) -> tuple:
        """The entry of a frame that was running before the hook saw
        any of its calls (``frame`` may be None: the empty entry)."""
        frames = []
        while frame is not None:
            frames.append(frame)
            frame = frame.f_back
        entry: tuple = (None, (), frozenset(), False, False)
        for outer in reversed(frames):
            entry = self._enter(entry, outer)
        return entry

    def _enter(self, caller: tuple, frame) -> tuple:
        """*frame*'s entry, one frame below its caller's entry."""
        code = frame.f_code
        described = self._codes.get(code)
        if described is None:
            module = frame.f_globals.get("__name__", "<unknown>")
            qualname = getattr(code, "co_qualname", code.co_name)
            described = (f"{module}:{qualname}", subsystem_of_module(module),
                         module.startswith(self.stack_roots))
            self._codes[code] = described
        label, sub, is_root = described
        _, stack, subsystems, rooted, truncated = caller
        if is_root and not rooted:
            # The outermost scenario frame: whatever launched the
            # scenario (CLI, pytest) is cut off above it.
            return (frame, (label,), frozenset((sub,)), True, False)
        stack += (label,)
        if len(stack) > self.max_depth:
            stack = stack[1:]
            truncated = True
            subsystems = frozenset(
                subsystem_of_module(kept.partition(":")[0]) for kept in stack)
        elif sub not in subsystems:
            subsystems = subsystems | {sub}
        return (frame, stack, subsystems, rooted, truncated)

    # -- reading -------------------------------------------------------

    @property
    def stacks(self) -> Dict[Tuple[str, ...], int]:
        return dict(self._stacks)

    def collapsed_stacks(self) -> str:
        """The profile in collapsed-stack ("folded") flamegraph format.

        One ``frame;frame;frame count`` line per distinct stack,
        sorted — the input format of flamegraph.pl and speedscope.
        Deterministic: sorted lines, counts are exact integers.
        """
        lines = [f"{';'.join(stack)} {count}"
                 for stack, count in sorted(self._stacks.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def attribution(self) -> dict:
        """Per-subsystem self and cumulative call-event counts.

        ``self`` counts sum to ``call_events`` exactly; ``cum`` counts
        each subsystem at most once per event, so the cum counts of
        different subsystems overlap.
        """
        return {
            "call_events": self.call_events,
            "distinct_stacks": len(self._stacks),
            "truncated": self.truncated,
            "stack_overflows": self.stack_overflows,
            "subsystems": {
                sub: {"self": self._self.get(sub, 0), "cum": cum}
                for sub, cum in sorted(self._cum.items())},
        }


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Inverse of :meth:`DeterministicProfiler.collapsed_stacks`."""
    stacks: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        if not line:
            continue
        stack_text, _, count_text = line.rpartition(" ")
        if not stack_text or not count_text.isdigit():
            raise ValueError(f"malformed collapsed-stack line: {line!r}")
        stacks[tuple(stack_text.split(";"))] = int(count_text)
    return stacks


def format_attribution(attribution: dict, title: str = "subsystem") -> str:
    """Human-readable table of an :meth:`attribution` dict, each count
    also shown as its share of all call events."""
    rows = attribution.get("subsystems", {})
    total = attribution.get("call_events", 0)

    def share(count: int) -> float:
        return 100.0 * count / total if total else 0.0

    lines = [
        f"call events: {total}",
        f"  {title:<14} {'self%':>8} {'cum%':>8} {'self':>8} {'cum':>8}",
    ]
    ordered = sorted(rows.items(),
                     key=lambda item: (-item[1]["self"], item[0]))
    for sub, row in ordered:
        lines.append(f"  {sub:<14} {share(row['self']):>8.2f} "
                     f"{share(row['cum']):>8.2f} {row['self']:>8} "
                     f"{row['cum']:>8}")
    return "\n".join(lines)


def top_stacks(stacks: Dict[Tuple[str, ...], int], limit: int = 10) -> str:
    """The *limit* hottest stacks, leaf-first one-liners."""
    ordered = sorted(stacks.items(), key=lambda item: (-item[1], item[0]))
    lines = []
    for stack, count in ordered[:limit]:
        leafward = " < ".join(reversed(stack[-4:]))
        lines.append(f"  {count:>8}  {leafward}")
    return "\n".join(lines)


# -- attribution comparison (the profile gate core) ---------------------


def compare_attribution(baseline: dict, fresh: dict
                        ) -> Dict[str, Tuple[int, int]]:
    """The subsystems whose self call-event count moved, each mapped to
    its ``(baseline, fresh)`` counts.

    Counts are exact, so there is no tolerance: a layer's self count
    moves only when its own frames did more or less work. A subsystem
    present on one side only counts 0 on the other. Cum counts are not
    compared, because they move in every layer that calls the one
    whose work changed.
    """
    base_rows = baseline.get("subsystems", {})
    fresh_rows = fresh.get("subsystems", {})
    moved: Dict[str, Tuple[int, int]] = {}
    for sub in sorted(set(base_rows) | set(fresh_rows)):
        before = base_rows.get(sub, {}).get("self", 0)
        after = fresh_rows.get(sub, {}).get("self", 0)
        if before != after:
            moved[sub] = (before, after)
    return moved


# -- heap attribution ---------------------------------------------------


class HeapSampler:
    """``tracemalloc`` snapshots at absolute window boundaries.

    Window *k* boundary sits at ``(k+1) * window_seconds`` — the same
    absolute-multiple rule as
    :class:`repro.obs.timeseries.TimeSeriesRecorder`, so heap windows
    line up with metric windows and same-seed runs snapshot at
    identical simulated instants. Each snapshot groups live
    allocations by :func:`subsystem_of_path`.

    The CPU profile hook is suspended while a snapshot is processed
    (snapshot processing is data-dependent python work; letting it
    into the call-event stream would break CPU byte-identity).
    """

    def __init__(self, scheduler, window_seconds: float = 10.0,
                 retention: int = DEFAULT_HEAP_RETENTION) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.scheduler = scheduler
        self.window_seconds = float(window_seconds)
        self.evicted = 0
        self._windows: Deque[dict] = deque(maxlen=int(retention))
        self._handle = None
        self._next_index: Optional[int] = None
        self._owns_tracing = False

    @property
    def running(self) -> bool:
        return self._handle is not None

    @property
    def windows(self) -> List[dict]:
        return list(self._windows)

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("heap sampler already started")
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracing = True
        now = self.scheduler.now
        self._next_index = int(math.floor(now / self.window_seconds + 1e-9))
        boundary = (self._next_index + 1) * self.window_seconds
        self._handle = self.scheduler.schedule_at(boundary, self._flush)

    def stop(self) -> None:
        """Cancel the pending flush and release tracemalloc if owned."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._owns_tracing:
            tracemalloc.stop()
            self._owns_tracing = False

    def snapshot_now(self) -> dict:
        """Take one unscheduled snapshot row (not appended to windows)."""
        assert self._next_index is not None or tracemalloc.is_tracing()
        return self._grouped_row(index=-1, when=float(self.scheduler.now))

    def _flush(self) -> None:
        assert self._next_index is not None
        index = self._next_index
        self._next_index = index + 1
        end = (index + 1) * self.window_seconds
        if len(self._windows) == self._windows.maxlen:
            self.evicted += 1
        self._windows.append(self._grouped_row(index=index, when=end))
        self._handle = self.scheduler.schedule_at(
            end + self.window_seconds, self._flush)

    @staticmethod
    def _grouped_row(index: int, when: float) -> dict:
        previous_hook = sys.getprofile()
        if previous_hook is not None:
            sys.setprofile(None)
        try:
            snapshot = tracemalloc.take_snapshot()
            stats = snapshot.statistics("filename")
            grouped: Dict[str, List[int]] = {}
            for stat in stats:
                sub = subsystem_of_path(stat.traceback[0].filename)
                row = grouped.setdefault(sub, [0, 0])
                row[0] += stat.size
                row[1] += stat.count
        finally:
            if previous_hook is not None:
                sys.setprofile(previous_hook)
        return {
            "index": index,
            "when": when,
            "subsystems": {
                sub: {"size_bytes": size, "blocks": blocks}
                for sub, (size, blocks) in sorted(grouped.items())},
        }


__all__ = [
    "CODE_LOCATION_RE",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_STACKS",
    "DEFAULT_STACK_ROOTS",
    "DeterministicProfiler",
    "HeapSampler",
    "KNOWN_SUBSYSTEMS",
    "OVERFLOW_FRAME",
    "compare_attribution",
    "format_attribution",
    "parse_collapsed",
    "subsystem_of_module",
    "subsystem_of_path",
    "top_stacks",
]
