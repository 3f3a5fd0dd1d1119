"""Tests for the memoized text stack (repro.text.cache and its wiring).

Correctness first: memoization must never change what the pipeline
returns, and the cache bookkeeping must never touch ``repro.obs``
unless a snapshot consumer explicitly installs the collector.
"""

import pytest

from repro.obs.export import prometheus_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.text.cache import (
    LruCache,
    cache_stats,
    clear_caches,
    install_metrics,
    publish_metrics,
)
from repro.text.stem import porter_stem
from repro.text.tokenize import stemmed_terms
from repro.text.vectorize import query_vector

# A spread of Porter's published examples (one per algorithm step):
# the lru_cache wrapper must leave every one of them unchanged,
# cold and warm.
PINNED_STEMS = [
    ("caresses", "caress"),      # step 1a
    ("plastered", "plaster"),    # step 1b
    ("hopping", "hop"),          # step 1b extras
    ("happy", "happi"),          # step 1c
    ("relational", "relat"),     # step 2
    ("electriciti", "electr"),   # step 3
    ("adjustment", "adjust"),    # step 4
    ("probate", "probat"),       # step 5
    ("controll", "control"),     # step 5
]


class TestLruCache:
    def test_miss_then_hit(self):
        cache = LruCache("t_basic", maxsize=4)
        with pytest.raises(KeyError):
            cache.lookup("a")
        assert cache.store("a", 1) == 1
        assert cache.lookup("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.evictions == 0

    def test_eviction_is_least_recently_used(self):
        cache = LruCache("t_evict", maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")          # refresh "a"; "b" is now oldest
        cache.store("c", 3)        # evicts "b"
        assert cache.evictions == 1
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2

    def test_restore_existing_key_does_not_evict(self):
        cache = LruCache("t_restore", maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("a", 10)       # overwrite, not insert
        assert cache.evictions == 0
        assert cache.lookup("a") == 10

    def test_clear_drops_entries_keeps_counters(self):
        cache = LruCache("t_clear", maxsize=4)
        cache.store("a", 1)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        with pytest.raises(KeyError):
            cache.lookup("a")

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LruCache("t_bad", maxsize=0)

    def test_self_registration_and_stats(self):
        cache = LruCache("t_registered", maxsize=4)
        assert "t_registered" in cache_stats()
        stats = cache.stats()
        assert stats == {"hits": 0, "misses": 0, "evictions": 0,
                         "size": 0, "maxsize": 4}


class TestMemoizedPipeline:
    def test_pinned_stems_unchanged_cold_and_warm(self):
        porter_stem.cache_clear()
        for word, expected in PINNED_STEMS:
            assert porter_stem(word) == expected  # cold
        for word, expected in PINNED_STEMS:
            assert porter_stem(word) == expected  # warm (cache hit)
        info = porter_stem.cache_info()
        assert info.hits >= len(PINNED_STEMS)

    def test_stemmed_terms_cached_and_immutable(self):
        clear_caches()
        first = stemmed_terms("flu symptoms treatment")
        second = stemmed_terms("flu symptoms treatment")
        assert first is second                       # memo hit
        assert isinstance(first, tuple)              # immutable

    def test_query_vector_cached_and_immutable(self):
        clear_caches()
        first = query_vector("flu symptoms treatment")
        second = query_vector("flu symptoms treatment")
        assert first is second
        assert isinstance(first, frozenset)

    def test_query_vector_stem_flag_keys_separately(self):
        clear_caches()
        stemmed = query_vector("running shoes", stem=True)
        raw = query_vector("running shoes", stem=False)
        assert stemmed != raw
        assert query_vector("running shoes", stem=False) == raw

    def test_clear_caches_resets_all(self):
        stemmed_terms("some query text")
        porter_stem("elections")
        clear_caches()
        stats = cache_stats()
        assert stats["stemmed_terms"]["size"] == 0
        assert stats["query_vectors"]["size"] == 0
        assert stats["porter_stem"]["size"] == 0

    def test_cache_stats_includes_every_text_cache(self):
        stats = cache_stats()
        for name in ("stemmed_terms", "query_vectors", "porter_stem"):
            assert name in stats
            for key in ("hits", "misses", "evictions", "size", "maxsize"):
                assert key in stats[name]


class TestObsExport:
    def test_publish_metrics_sets_gauges(self):
        clear_caches()
        stemmed_terms("flu symptoms")
        stemmed_terms("flu symptoms")
        registry = MetricsRegistry()
        publish_metrics(registry)
        hits = registry.get("cyclosa_text_cache_hits",
                            cache="stemmed_terms")
        assert hits is not None and hits.value >= 1.0

    def test_install_metrics_appears_in_prometheus_snapshot(self):
        clear_caches()
        query_vector("flu symptoms treatment")
        registry = MetricsRegistry()
        install_metrics(registry)
        text = prometheus_snapshot(registry)
        assert "cyclosa_text_cache_misses" in text
        assert 'cache="query_vectors"' in text
        assert 'cache="porter_stem"' in text

    def test_install_metrics_idempotent(self):
        registry = MetricsRegistry()
        install_metrics(registry)
        install_metrics(registry)
        assert registry._collectors.count(publish_metrics) == 1

    def test_no_obs_coupling_when_disabled(self):
        """Cache use must register nothing in the global OBS registry:
        exporting is strictly pull-based via install_metrics."""
        from repro import obs

        obs.disable(reset=True)
        clear_caches()
        query_vector("private medical question")
        stemmed_terms("private medical question")
        assert prometheus_snapshot(obs.get_registry()) in ("", "\n")
