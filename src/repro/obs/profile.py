"""Deterministic sampling profiler with per-subsystem attribution.

Wall-clock profilers (``cProfile`` timers, SIGPROF) produce different
output on every run — useless for diffing across seeds and commits.
This profiler samples on *interpreter event counts* instead: a
``sys.setprofile`` hook counts python ``call`` events and captures the
stack every ``sample_interval``-th one. Same seed, same code → same
call sequence → byte-identical profiles, on any machine.

What a profile contains:

- **collapsed stacks** (``frame;frame;frame count`` — the flamegraph.pl
  / speedscope "collapsed" format), frames rendered as
  ``module:qualname`` only — never argument values, query text or
  per-user identifiers (:func:`repro.obs.audit.audit_profile_output`
  proves this, and the leak gate in ``tests/obs/test_audit.py``
  checks it);
- **subsystem attribution**: each sample's leaf frame charges one
  *self* tick to its repro package (``core``, ``sgx``, ``net``,
  ``crypto``, ``searchengine``, ``gossip``, ``obs``, ...), and every
  package present anywhere in the stack gets one *cumulative* tick;
- an optional **timeline** of ``(simulated_time, leaf_subsystem)``
  pairs when a clock is supplied, merged into the span view by
  :func:`chrome_trace_with_samples`.

Heap attribution rides alongside: :class:`HeapSampler` takes
``tracemalloc`` snapshots at absolute window boundaries (the same
boundary rule as :class:`repro.obs.timeseries.TimeSeriesRecorder`) and
groups live bytes by the subsystem that allocated them. The CPU hook
is suspended while a snapshot is processed, so heap sampling never
perturbs the call-event stream — CPU profiles stay byte-identical
whether heap sampling is on or off.

Everything bounded: distinct stacks, timeline entries and heap windows
all live in capped structures with overflow counters — a pathological
workload degrades the profile, never the process.

Like the rest of ``repro.obs``, the scheduler argument is duck-typed
(``now`` / ``schedule`` / ``schedule_at``) so this module stays free
of ``repro.net`` imports, and nothing here reads a wall clock.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tracemalloc
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: Sample every N-th python ``call`` event. 512 keeps hook overhead in
#: the low single digits while yielding thousands of samples per bench
#: scenario.
DEFAULT_SAMPLE_INTERVAL = 512

#: Stack frames captured per sample (deeper stacks are cut at the
#: root end and counted in :attr:`DeterministicProfiler.truncated`).
DEFAULT_MAX_DEPTH = 64

#: Distinct stacks retained; further novel stacks collapse into the
#: ``[overflow]`` pseudo-frame so memory stays bounded.
DEFAULT_MAX_STACKS = 20_000

#: Timeline entries retained when a clock is attached.
DEFAULT_TIMELINE_CAP = 65_536

#: Heap windows retained per :class:`HeapSampler`.
DEFAULT_HEAP_RETENTION = 1_024

#: First-level ``repro.*`` packages samples are attributed to.
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

#: Modules at which the stack walk stops (scenario entry points).
#: Cutting here makes collapsed stacks independent of *how* the
#: scenario was launched — `repro profile`, `repro perf` and pytest
#: all produce identical stacks, which is what lets the profile gate
#: diff against a committed baseline.
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
    """Event-count sampling profiler (see module docstring).

    Parameters
    ----------
    sample_interval:
        Capture one stack every N python ``call`` events. Lower means
        more samples and more overhead; determinism is unaffected.
    clock:
        Optional :class:`repro.obs.clock.Clock`; when given, each
        sample is stamped (for :func:`chrome_trace_with_samples`).
        Stamps never influence *which* events are sampled.
    max_depth / max_stacks / timeline_cap:
        Bounds; see the module constants.
    stack_roots:
        Module prefixes at which the stack walk stops (the frame is
        kept, its callers are dropped), so profiles are identical no
        matter which entry point launched the scenario.
    """

    def __init__(self, sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
                 clock=None, max_depth: int = DEFAULT_MAX_DEPTH,
                 max_stacks: int = DEFAULT_MAX_STACKS,
                 timeline_cap: int = DEFAULT_TIMELINE_CAP,
                 stack_roots: Sequence[str] = DEFAULT_STACK_ROOTS) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.sample_interval = int(sample_interval)
        self.clock = clock
        self.max_depth = int(max_depth)
        self.max_stacks = int(max_stacks)
        self.stack_roots = tuple(stack_roots)
        self.call_events = 0
        self.samples = 0
        self.truncated = 0
        self.stack_overflows = 0
        self.active = False
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._self: Dict[str, int] = {}
        self._cum: Dict[str, int] = {}
        self._timeline: Deque[Tuple[float, str]] = deque(maxlen=timeline_cap)
        self.timeline_dropped = 0
        #: code object -> "module:qualname" memo (bounded by the number
        #: of distinct code objects the workload touches).
        self._labels: Dict[Any, str] = {}
        self._subsystems: Dict[str, str] = {}
        self._countdown = self.sample_interval

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Install the hook. Refuses to stack on a foreign profiler."""
        if self.active:
            raise RuntimeError("profiler already started")
        if sys.getprofile() is not None:
            raise RuntimeError("another profile hook is installed")
        self.active = True
        self._countdown = self.sample_interval
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Uninstall the hook; collected data stays readable."""
        if self.active:
            sys.setprofile(None)
            self.active = False

    def __enter__(self) -> "DeterministicProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the hook ------------------------------------------------------

    def _hook(self, frame, event: str, arg) -> None:
        # Python disables profiling while the hook runs, so nothing
        # below recurses. Only `call` events advance the sample clock:
        # they are pure interpreter state, identical across same-seed
        # runs and machines (wall time never enters the picture).
        if event != "call":
            return
        self.call_events += 1
        self._countdown -= 1
        if self._countdown:
            return
        self._countdown = self.sample_interval
        self._sample(frame)

    def _label(self, frame) -> str:
        code = frame.f_code
        label = self._labels.get(code)
        if label is None:
            module = frame.f_globals.get("__name__", "<unknown>")
            qualname = getattr(code, "co_qualname", code.co_name)
            label = f"{module}:{qualname}"
            self._labels[code] = label
        return label

    def _sample(self, frame) -> None:
        frames: List[str] = []
        cursor = frame
        depth = 0
        cut_at = -1
        while cursor is not None and depth < self.max_depth:
            label = self._label(cursor)
            frames.append(label)
            if label.partition(":")[0].startswith(self.stack_roots):
                # Remember the *outermost* scenario frame seen so far;
                # everything beyond it (CLI, pytest — whatever
                # launched the scenario) is trimmed below.
                cut_at = depth
            cursor = cursor.f_back
            depth += 1
        if cut_at >= 0:
            frames = frames[:cut_at + 1]
        elif cursor is not None:
            self.truncated += 1
        frames.reverse()  # root first, flamegraph convention
        stack = tuple(frames)
        count = self._stacks.get(stack)
        if count is None and len(self._stacks) >= self.max_stacks:
            self.stack_overflows += 1
            stack = (OVERFLOW_FRAME,)
            count = self._stacks.get(stack)
        self._stacks[stack] = (count or 0) + 1
        self.samples += 1

        leaf_sub = self._subsystem(frames[-1])
        self._self[leaf_sub] = self._self.get(leaf_sub, 0) + 1
        seen = set()
        for label in frames:
            sub = self._subsystem(label)
            if sub not in seen:
                seen.add(sub)
                self._cum[sub] = self._cum.get(sub, 0) + 1

        if self.clock is not None:
            if len(self._timeline) == self._timeline.maxlen:
                self.timeline_dropped += 1
            self._timeline.append((self.clock.now(), leaf_sub))

    def _subsystem(self, label: str) -> str:
        sub = self._subsystems.get(label)
        if sub is None:
            if label == OVERFLOW_FRAME:
                sub = "other"
            else:
                sub = subsystem_of_module(label.partition(":")[0])
            self._subsystems[label] = sub
        return sub

    # -- reading -------------------------------------------------------

    @property
    def stacks(self) -> Dict[Tuple[str, ...], int]:
        return dict(self._stacks)

    @property
    def timeline(self) -> List[Tuple[float, str]]:
        return list(self._timeline)

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
        """Per-subsystem self/cumulative sample counts and percentages.

        ``self`` ticks sum to ``samples`` exactly; ``cum`` counts each
        subsystem at most once per sample (so percentages can overlap).
        Percentages are rounded to 4 decimals for stable JSON.
        """
        rows: Dict[str, dict] = {}
        total = self.samples
        for sub in sorted(set(self._self) | set(self._cum)):
            self_ticks = self._self.get(sub, 0)
            cum_ticks = self._cum.get(sub, 0)
            rows[sub] = {
                "self": self_ticks,
                "cum": cum_ticks,
                "self_pct": round(100.0 * self_ticks / total, 4) if total else 0.0,
                "cum_pct": round(100.0 * cum_ticks / total, 4) if total else 0.0,
            }
        return {
            "sample_interval": self.sample_interval,
            "call_events": self.call_events,
            "samples": total,
            "distinct_stacks": len(self._stacks),
            "truncated": self.truncated,
            "stack_overflows": self.stack_overflows,
            "subsystems": rows,
        }

    def attribution_json(self) -> str:
        """Canonical JSON rendering of :meth:`attribution` —
        byte-identical across same-seed runs."""
        return json.dumps(self.attribution(), sort_keys=True, indent=2)


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
    """Human-readable table of an :meth:`attribution` dict."""
    rows = attribution.get("subsystems", {})
    lines = [
        f"samples: {attribution.get('samples', 0)}  "
        f"(1 per {attribution.get('sample_interval', '?')} call events, "
        f"{attribution.get('call_events', 0)} events total)",
        f"  {title:<14} {'self%':>8} {'cum%':>8} {'self':>8} {'cum':>8}",
    ]
    ordered = sorted(rows.items(),
                     key=lambda item: (-item[1]["self"], item[0]))
    for sub, row in ordered:
        lines.append(f"  {sub:<14} {row['self_pct']:>8.2f} "
                     f"{row['cum_pct']:>8.2f} {row['self']:>8} "
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


def compare_attribution(baseline: dict, fresh: dict,
                        tolerance_pct: float = 5.0) -> List[dict]:
    """Diff two attribution dicts subsystem by subsystem.

    A row *drifts* when its self% or cum% moved by more than
    *tolerance_pct* percentage points (absolute). Subsystems present on
    only one side count with 0 on the other — a subsystem appearing
    from nowhere at 6% is exactly the kind of silent cost creep the
    gate exists to catch. Shares, not raw sample counts, are compared,
    so the gate is insensitive to workload-size changes that scale all
    subsystems equally.
    """
    base_rows = baseline.get("subsystems", {})
    fresh_rows = fresh.get("subsystems", {})
    rows: List[dict] = []
    for sub in sorted(set(base_rows) | set(fresh_rows)):
        base = base_rows.get(sub, {})
        new = fresh_rows.get(sub, {})
        row = {"subsystem": sub}
        drifted = False
        for kind in ("self_pct", "cum_pct"):
            before = float(base.get(kind, 0.0))
            after = float(new.get(kind, 0.0))
            row[f"{kind}_baseline"] = before
            row[f"{kind}_fresh"] = after
            row[f"{kind}_drift"] = round(after - before, 4)
            if abs(after - before) > tolerance_pct:
                drifted = True
        row["drifted"] = drifted
        rows.append(row)
    return rows


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


# -- chrome-trace merge -------------------------------------------------


def chrome_trace_with_samples(spans, profiler: DeterministicProfiler,
                              trace_id: Optional[str] = None) -> str:
    """Span swimlanes plus a profiler counter track, one JSON document.

    Extends :func:`repro.obs.export.chrome_trace` with a synthetic
    ``profiler`` process carrying Chrome counter events (``ph: "C"``):
    at each sampled instant, the running per-subsystem sample totals.
    Loaded in Perfetto/chrome://tracing this renders a stacked area
    chart of where samples accrue *while* the spans execute — the
    merged view the flamegraph alone cannot give.
    """
    from repro.obs.export import chrome_trace

    document = json.loads(chrome_trace(spans, trace_id))
    events = document["traceEvents"]
    pid = max((event["pid"] for event in events), default=-1) + 1
    events.append({
        "args": {"name": "profiler"},
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
    })
    running: Dict[str, int] = {}
    for when, leaf_sub in profiler.timeline:
        running[leaf_sub] = running.get(leaf_sub, 0) + 1
        events.append({
            "args": {sub: count for sub, count in sorted(running.items())},
            "name": "profile_samples",
            "ph": "C",
            "pid": pid,
            "tid": 0,
            "ts": round(when * 1e6, 3),
        })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0),
                               e["pid"], e["tid"], e["name"]))
    return json.dumps({"displayTimeUnit": "ms", "traceEvents": events},
                      sort_keys=True, indent=2)


__all__ = [
    "CODE_LOCATION_RE",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_STACKS",
    "DEFAULT_SAMPLE_INTERVAL",
    "DEFAULT_STACK_ROOTS",
    "DeterministicProfiler",
    "HeapSampler",
    "KNOWN_SUBSYSTEMS",
    "OVERFLOW_FRAME",
    "chrome_trace_with_samples",
    "compare_attribution",
    "format_attribution",
    "parse_collapsed",
    "subsystem_of_module",
    "subsystem_of_path",
    "top_stacks",
]
