"""Counters, gauges and fixed-bucket histograms behind one registry.

Naming convention (enforced nowhere, followed everywhere):
``cyclosa_<layer>_<name>``, e.g. ``cyclosa_sgx_ecalls_total`` or
``cyclosa_net_bytes_total``. Counters end in ``_total``; histograms of
seconds end in ``_seconds``.

A metric is identified by ``(name, sorted labels)``; asking the
registry for the same identity returns the same instrument, so hot
paths can call ``registry.counter(...)`` per event without
double-registering. Histograms keep cumulative fixed buckets for the
Prometheus exporter *plus* a bounded reservoir of recent raw samples;
percentiles come from :func:`repro.metrics.latencystats.percentile`
over that reservoir, so the numbers printed by the obs layer and by
the Fig 8 benches agree by construction.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# NOTE: repro.metrics.latencystats is imported lazily inside
# Histogram.percentile/summary — importing it at module scope would
# pull the repro.metrics package (and through it baselines → core →
# sgx) back into repro.obs, which every layer imports.

#: Default buckets for second-valued histograms: spans the microsecond
#: SGX costs up to the multi-second end-to-end latencies of Fig 8a.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Raw samples retained per histogram for percentile math (a ring of
#: the most recent observations — bounded, like every obs store).
RESERVOIR_SIZE = 4096

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity of every instrument."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: LabelSet = _labelset(labels or {})


class Counter(Metric):
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(Metric):
    """Fixed-bucket histogram with a bounded raw-sample reservoir."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._reservoir: deque = deque(maxlen=RESERVOIR_SIZE)

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        self._bucket_counts[index] += 1
        self.sum += value
        self.count += 1
        self._reservoir.append(value)

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        cumulative = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, self._bucket_counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + self._bucket_counts[-1]))
        return out

    @property
    def samples(self) -> List[float]:
        """The retained raw observations (most recent RESERVOIR_SIZE)."""
        return list(self._reservoir)

    def percentile(self, q: float) -> float:
        """The *q*-quantile of the retained samples
        (:func:`repro.metrics.latencystats.percentile`)."""
        from repro.metrics.latencystats import percentile

        return percentile(self.samples, q)

    def summary(self):
        """Summary row (a :class:`repro.metrics.latencystats.LatencySummary`)
        via :func:`repro.metrics.latencystats.summarize`."""
        from repro.metrics.latencystats import summarize

        return summarize(self.samples)


class MetricsRegistry:
    """Process-global home of every instrument.

    ``counter``/``gauge``/``histogram`` get-or-create, so hot paths can
    look an instrument up on every event. Creating the same name with a
    different kind raises — one name, one meaning.

    Pull-model sources (e.g. the text-pipeline caches of
    :mod:`repro.text.cache`, whose counters are plain integers with no
    obs coupling) register a *collector* — a callable invoked with the
    registry at the start of every :meth:`collect`, so snapshots always
    reflect the source's current totals without the source paying any
    hot-path cost.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], Metric] = {}
        # (kind, name, labels as passed) -> instrument: a repeat lookup
        # skips sorting and stringifying its labels. Only lookups whose
        # label values are all exact ``str`` are stored, because equal
        # values of other types can stringify apart (1 and True, 0.0
        # and -0.0).
        self._memo: Dict[tuple, Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Dict[str, str], **kwargs) -> Metric:
        memo_key = (cls, name, tuple(labels.items()))
        try:
            metric = self._memo.get(memo_key)
        except TypeError:  # an unhashable label value
            metric = None
        if metric is not None:
            return metric
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        if all(type(value) is str for value in labels.values()):
            self._memo[memo_key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # -- introspection -------------------------------------------------

    def get(self, name: str, **labels: str) -> Optional[Metric]:
        return self._metrics.get((name, _labelset(labels)))

    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Add a pull-time refresh hook (idempotent per callable)."""
        if fn not in self._collectors:
            self._collectors.append(fn)

    def collectors(self) -> List[Callable[["MetricsRegistry"], None]]:
        """The registered pull hooks, in registration order.

        ``obs.enable(fresh=True)`` carries these into the replacement
        registry: a collector registration is a statement about the
        *process* ("this cache exports gauges"), not about one
        measured run's counters.
        """
        return list(self._collectors)

    def collect(self) -> List[Metric]:
        """Every instrument, grouped by family name then labels.

        Registered collectors run first, so gauges backed by external
        counters (cache stats, pool sizes, ...) are refreshed in the
        same call that snapshots them."""
        for fn in list(self._collectors):
            fn(self)
        return [self._metrics[key]
                for key in sorted(self._metrics, key=lambda k: (k[0], k[1]))]

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for name, _ in sorted(self._metrics):
            seen.setdefault(name, None)
        return list(seen)

    def reset(self) -> None:
        self._metrics.clear()
        self._memo.clear()
        self._collectors.clear()
