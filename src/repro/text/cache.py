"""Bounded memo caches for the hot text pipeline.

Every protected search runs tokenize → Porter-stem → vectorize at
least twice (the semantic assessor and the linkability assessor), and
the SimAttack adversary, the engine indexer and the baselines all
re-run the same pipeline over the same short query strings. Real query
workloads are heavily repetitive (the AOL trace repeats queries within
and across users), so a small LRU memo in front of the pipeline turns
most of that work into dictionary lookups.

This module is the infrastructure half of the memoized text stack:

- :class:`LruCache` — a bounded, insertion-ordered memo with hit /
  miss / eviction counters. Instances self-register in a module-level
  registry so the stats of every text cache (plus the ``lru_cache`` on
  :func:`repro.text.stem.porter_stem`) can be inspected in one call.
- :func:`cache_stats` — a plain-dict snapshot of every cache.
- :func:`publish_metrics` / :func:`install_metrics` — export those
  counters as gauges through a :class:`repro.obs.metrics.MetricsRegistry`.

The *wiring* half lives in :mod:`repro.text.vectorize` (the
query → binary-vector cache) and :mod:`repro.text.tokenize` (the
query → stemmed-token cache): the caches themselves import nothing
from the rest of the text stack, so there are no import cycles.

Design rules (the same ones :mod:`repro.obs` follows):

- **Everything bounded.** Both query caches default to
  :data:`DEFAULT_QUERY_CACHE_SIZE` entries; the stem cache is a
  ``functools.lru_cache``. Nothing grows without limit.
- **Zero obs coupling on the hot path.** Cache bookkeeping is three
  plain integer attributes; nothing here reads ``OBS.enabled`` or
  touches a registry. Exporting is pull-based: a snapshot consumer
  calls :func:`install_metrics` once and the registry's collector hook
  refreshes the gauges at collect time. With observability disabled
  the caches cost exactly their dictionary operations.
- **Cached values are immutable.** ``frozenset`` vectors and ``tuple``
  token lists are shared between callers without copying.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

#: Default bound of the per-query memo caches (distinct query strings).
DEFAULT_QUERY_CACHE_SIZE = 8192

#: Bound of the ``lru_cache`` wrapping ``porter_stem`` (distinct words —
#: far fewer than distinct queries, but each is re-seen far more often).
STEM_CACHE_SIZE = 32768

#: name -> LruCache; every instance registers itself at construction.
_CACHES: Dict[str, "LruCache"] = {}


class LruCache:
    """A bounded least-recently-used memo with hit/miss/eviction counts.

    Deliberately minimal: ``lookup`` raises ``KeyError`` on a miss so
    the caller computes and ``store``s the value — keeping the compute
    function out of the cache avoids import cycles and lets one cache
    serve several call shapes (keyed by whatever tuple the caller
    builds).
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, name: str, maxsize: int = DEFAULT_QUERY_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        _CACHES[name] = self

    def lookup(self, key: Hashable) -> Any:
        """Return the cached value for *key*, refreshing its recency.
        Raises ``KeyError`` (and counts a miss) when absent."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            raise
        data.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: Hashable, value: Any) -> Any:
        """Insert *key* → *value*, evicting the least recent entry when
        full. Returns *value* so callers can ``return cache.store(...)``."""
        data = self._data
        if key not in data and len(data) >= self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value
        data.move_to_end(key)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are retained — they are lifetime
        totals, like every obs counter)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Stats of every text cache, including the ``porter_stem``
    ``lru_cache`` (reported under the name ``porter_stem``)."""
    out = {name: cache.stats() for name, cache in sorted(_CACHES.items())}
    from repro.text.stem import porter_stem

    info = porter_stem.cache_info()
    out["porter_stem"] = {
        "hits": info.hits,
        "misses": info.misses,
        # Every miss inserts one entry, so whatever is no longer
        # resident was evicted.
        "evictions": info.misses - info.currsize,
        "size": info.currsize,
        "maxsize": info.maxsize or 0,
    }
    return out


def clear_caches() -> None:
    """Empty every text cache (query memos and the stem cache). Used by
    benchmarks to measure the cold path; correctness never requires it —
    the cached functions are pure."""
    for cache in _CACHES.values():
        cache.clear()
    from repro.text.stem import porter_stem

    porter_stem.cache_clear()


# -- repro.obs export ---------------------------------------------------

_GAUGE_HELP = {
    "hits": "text-pipeline cache hits (lifetime)",
    "misses": "text-pipeline cache misses (lifetime)",
    "evictions": "text-pipeline cache evictions (lifetime)",
    "size": "text-pipeline cache resident entries",
    "maxsize": "text-pipeline cache capacity bound",
}


def publish_metrics(registry) -> None:
    """Set one ``cyclosa_text_cache_<stat>`` gauge per cache/stat pair
    on *registry* (a :class:`repro.obs.metrics.MetricsRegistry`).

    Gauges (not counters) because this is a pull-time sync of lifetime
    totals: ``set`` is idempotent, so publishing into a freshly reset
    registry is always correct.
    """
    for name, stats in cache_stats().items():
        for stat, value in stats.items():
            registry.gauge(f"cyclosa_text_cache_{stat}",
                           _GAUGE_HELP[stat], cache=name).set(value)


def install_metrics(registry) -> None:
    """Register :func:`publish_metrics` as a collector on *registry*:
    every ``registry.collect()`` (and therefore every Prometheus
    snapshot) refreshes the cache gauges first."""
    registry.register_collector(publish_metrics)
