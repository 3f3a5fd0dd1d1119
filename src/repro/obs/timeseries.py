"""Windowed time-series aggregation over the metrics registry.

The registry answers "what happened overall"; soak- and scale-runs
need "when did it start going wrong". A :class:`TimeSeriesRecorder`
turns the registry's cumulative instruments into fixed-width windows
driven by the *simulated* clock:

- window boundaries sit on absolute multiples of ``window_seconds``
  (window *k* covers ``[k*w, (k+1)*w)``), so two same-seed runs flush
  at identical instants and produce byte-identical series whatever
  else is on the event heap;
- counters become per-window *deltas* (and a running cumulative
  total), gauges are sampled at the boundary, histograms yield a
  per-window count/sum delta plus quantiles interpolated from the
  fixed cumulative buckets — *not* from the bounded raw reservoir,
  whose contents depend on how much traffic preceded the window;
- retention is a bounded ring (:data:`DEFAULT_RETENTION` windows);
  evictions are counted, never silent.

The recorder is pull-based: it never touches instrument hot paths, it
only reads the registry at each boundary (registered collectors run as
part of that read, so pull-gauges like the PR-5 backlog bridge are
sampled too). Like :class:`~repro.obs.clock.SimulatedClock`, the
scheduler argument is duck-typed (``now``, ``schedule``,
``schedule_at``) so this module stays free of ``repro.net`` imports.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import _openmetrics_family, sample_key
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Windows retained by default: at 10 s windows this is a full
#: simulated day per run, far beyond any current scenario.
DEFAULT_RETENTION = 8640

#: Quantiles reported per histogram per window.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: Decimal places used when serialising window values — enough for
#: microsecond latencies, few enough for stable, readable JSON.
ROUND_DIGITS = 9

BucketPairs = Tuple[Tuple[float, float], ...]


def _quantile_from_buckets(buckets: BucketPairs, q: float) -> float:
    """Linear interpolation inside cumulative ``(bound, count)`` pairs.

    The same estimator as PromQL's ``histogram_quantile``: find the
    bucket where the cumulative count crosses ``q * total`` and
    interpolate within its bounds. Values beyond the last finite bound
    clamp to that bound. Deterministic by construction — it reads only
    integer bucket deltas, never the sample reservoir.
    """
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    prev_bound = 0.0
    prev_count = 0.0
    last_finite = 0.0
    for bound, count in buckets:
        if not math.isinf(bound):
            last_finite = bound
        if count >= target:
            if math.isinf(bound):
                return last_finite if last_finite > prev_bound else prev_bound
            if count == prev_count:
                return bound
            frac = (target - prev_count) / (count - prev_count)
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_count = (bound if not math.isinf(bound)
                                  else prev_bound), count
    return prev_bound


@dataclass(frozen=True)
class WindowHistogram:
    """One histogram family's activity inside one window."""

    count: float
    sum: float
    buckets: BucketPairs  #: per-window cumulative (bound, delta-count)
    quantiles: Dict[str, float] = field(default_factory=dict)

    def events_under(self, threshold: float) -> float:
        """Estimated observations ``<= threshold`` in this window.

        Interpolates the cumulative bucket curve at *threshold*; the
        basis of latency-SLO good/bad event counting."""
        prev_bound = 0.0
        prev_count = 0.0
        for bound, count in self.buckets:
            if math.isinf(bound):
                return prev_count
            if threshold <= bound:
                if bound == prev_bound:
                    return count
                frac = (threshold - prev_bound) / (bound - prev_bound)
                return prev_count + frac * (count - prev_count)
            prev_bound, prev_count = bound, count
        return self.count


@dataclass(frozen=True)
class Window:
    """One fixed-width aggregation window ``[start, end)``.

    ``counters`` holds per-window deltas, ``cumulative`` the counter
    totals as of ``end``; ``gauges`` are boundary samples. All keys are
    canonical ``name{labels}`` sample keys (:func:`sample_key`).
    """

    index: int
    start: float
    end: float
    counters: Dict[str, float]
    cumulative: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, WindowHistogram]

    def to_dict(self) -> dict:
        """Deterministic JSON-ready view (sorted keys, rounded floats)."""
        return {
            "index": self.index,
            "start": round(self.start, ROUND_DIGITS),
            "end": round(self.end, ROUND_DIGITS),
            "counters": {key: round(value, ROUND_DIGITS)
                         for key, value in sorted(self.counters.items())},
            "cumulative": {key: round(value, ROUND_DIGITS)
                           for key, value in sorted(self.cumulative.items())},
            "gauges": {key: round(value, ROUND_DIGITS)
                       for key, value in sorted(self.gauges.items())},
            "histograms": {
                key: {
                    "count": round(hist.count, ROUND_DIGITS),
                    "sum": round(hist.sum, ROUND_DIGITS),
                    **{name: round(value, ROUND_DIGITS)
                       for name, value in sorted(hist.quantiles.items())},
                }
                for key, hist in sorted(self.histograms.items())
            },
        }


class TimeSeriesRecorder:
    """Flushes the registry into :class:`Window` rows at fixed boundaries.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to snapshot.
    scheduler:
        Anything with ``now``, ``schedule(delay, cb)`` and
        ``schedule_at(when, cb)`` — ``repro.net.simulator.Simulator``
        in practice; duck-typed to keep the obs layer dependency-free.
    window_seconds:
        Window width; boundaries are absolute multiples of it.
    retention:
        Ring capacity in windows; older windows are evicted (counted
        in :attr:`evicted`).
    quantiles:
        Histogram quantiles computed per window.
    """

    def __init__(self, registry: MetricsRegistry, scheduler,
                 window_seconds: float = 10.0,
                 retention: int = DEFAULT_RETENTION,
                 quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        for q in quantiles:
            if not 0.0 < q <= 1.0:
                raise ValueError(f"quantile out of range: {q}")
        self.registry = registry
        self.scheduler = scheduler
        self.window_seconds = float(window_seconds)
        self.retention = int(retention)
        self.quantiles = tuple(quantiles)
        self.evicted = 0
        self._windows: Deque[Window] = deque(maxlen=self.retention)
        self._handle = None
        self._next_index: Optional[int] = None
        self._prev_counters: Dict[str, float] = {}
        self._prev_hist: Dict[str, Tuple[int, float, Tuple[int, ...]]] = {}

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> None:
        """Baseline the registry and arm the first boundary flush.

        Counter activity before ``start()`` (e.g. deployment warm-up)
        never appears in any window — the first window's deltas are
        relative to this baseline.
        """
        if self._handle is not None:
            raise RuntimeError("recorder already started")
        self._snapshot_baseline()
        now = self.scheduler.now
        self._next_index = int(math.floor(now / self.window_seconds + 1e-9))
        boundary = (self._next_index + 1) * self.window_seconds
        self._handle = self.scheduler.schedule_at(boundary, self._flush)

    def stop(self) -> None:
        """Cancel the pending flush; retained windows stay readable."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- reading -------------------------------------------------------

    @property
    def windows(self) -> List[Window]:
        return list(self._windows)

    def to_dicts(self) -> List[dict]:
        return [window.to_dict() for window in self._windows]

    # -- flushing ------------------------------------------------------

    def _snapshot_baseline(self) -> None:
        self._prev_counters = {}
        self._prev_hist = {}
        for metric in self.registry.collect():
            key = sample_key(metric.name, dict(metric.labels))
            if isinstance(metric, Counter):
                self._prev_counters[key] = metric.value
            elif isinstance(metric, Histogram):
                self._prev_hist[key] = (
                    metric.count, metric.sum,
                    tuple(count for _, count in metric.bucket_counts()))

    def _flush(self) -> None:
        assert self._next_index is not None
        index = self._next_index
        self._next_index = index + 1
        start = index * self.window_seconds
        end = (index + 1) * self.window_seconds

        counters: Dict[str, float] = {}
        cumulative: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, WindowHistogram] = {}
        next_counters: Dict[str, float] = {}
        next_hist: Dict[str, Tuple[int, float, Tuple[int, ...]]] = {}

        for metric in self.registry.collect():
            key = sample_key(metric.name, dict(metric.labels))
            if isinstance(metric, Counter):
                value = metric.value
                next_counters[key] = value
                cumulative[key] = value
                counters[key] = value - self._prev_counters.get(key, 0.0)
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            elif isinstance(metric, Histogram):
                pairs = metric.bucket_counts()
                cum = tuple(count for _, count in pairs)
                prev_count, prev_sum, prev_cum = self._prev_hist.get(
                    key, (0, 0.0, (0,) * len(cum)))
                next_hist[key] = (metric.count, metric.sum, cum)
                if len(prev_cum) != len(cum):  # bucket layout changed
                    prev_count, prev_sum, prev_cum = 0, 0.0, (0,) * len(cum)
                delta_pairs: BucketPairs = tuple(
                    (bound, count - prev)
                    for (bound, _), count, prev in zip(pairs, cum, prev_cum))
                quantiles = {
                    _quantile_label(q): _quantile_from_buckets(delta_pairs, q)
                    for q in self.quantiles}
                histograms[key] = WindowHistogram(
                    count=metric.count - prev_count,
                    sum=metric.sum - prev_sum,
                    buckets=delta_pairs, quantiles=quantiles)

        self._prev_counters = next_counters
        self._prev_hist = next_hist
        if len(self._windows) == self._windows.maxlen:
            self.evicted += 1
        self._windows.append(Window(
            index=index, start=start, end=end, counters=counters,
            cumulative=cumulative, gauges=gauges, histograms=histograms))
        self._handle = self.scheduler.schedule_at(
            end + self.window_seconds, self._flush)


def _quantile_label(q: float) -> str:
    """``0.99 -> "p99"``, ``0.5 -> "p50"``, ``0.999 -> "p99.9"``."""
    scaled = q * 100.0
    if float(scaled).is_integer():
        return f"p{int(scaled)}"
    return f"p{round(scaled, 4)}"


# -- OpenMetrics export ------------------------------------------------


def openmetrics_timeseries(windows: Sequence[Window]) -> str:
    """Retained windows as OpenMetrics text with explicit timestamps.

    Counter samples carry the *cumulative* value at each window end
    (what a scraper polling the live registry at boundary instants
    would have seen); gauges carry the boundary sample; histograms are
    summarised as ``_count``/``_sum``. Families are grouped (an
    OpenMetrics requirement), samples within a family are ordered by
    label set then time, and the exposition ends with ``# EOF`` — so
    the output is byte-deterministic and loadable by standard tooling.
    """
    # family -> kind, and family -> [(key, labels_text, timestamp, value)]
    kinds: Dict[str, str] = {}
    series: Dict[str, List[Tuple[str, float, float]]] = {}

    def add(family: str, kind: str, text: str, when: float,
            value: float) -> None:
        kinds.setdefault(family, kind)
        series.setdefault(family, []).append((text, when, value))

    for window in windows:
        for key, value in window.cumulative.items():
            add(key.partition("{")[0], "counter", key, window.end, value)
        for key, value in window.gauges.items():
            add(key.partition("{")[0], "gauge", key, window.end, value)
        for key, hist in window.histograms.items():
            name, brace, rest = key.partition("{")
            labels = brace + rest
            add(name, "histogram", f"{name}_count{labels}", window.end,
                hist.count)
            add(name, "histogram", f"{name}_sum{labels}", window.end,
                hist.sum)

    lines: List[str] = []
    for family in sorted(series):
        kind = kinds[family]
        lines.append(f"# TYPE {_openmetrics_family(family, kind)} {kind}")
        for text, when, value in sorted(series[family],
                                        key=lambda row: (row[0], row[1])):
            lines.append(f"{text} {_format_number(value)} "
                         f"{_format_number(when)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _format_number(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


__all__ = [
    "DEFAULT_QUANTILES",
    "DEFAULT_RETENTION",
    "TimeSeriesRecorder",
    "Window",
    "WindowHistogram",
    "openmetrics_timeseries",
]
