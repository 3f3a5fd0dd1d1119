"""Registry semantics and histogram/percentile agreement."""

from __future__ import annotations

import math

import pytest

from repro.metrics.latencystats import percentile, summarize
from repro.obs.metrics import (DEFAULT_BUCKETS, Histogram, MetricsRegistry,
                               RESERVOIR_SIZE)

pytestmark = pytest.mark.obs


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_get_or_create_is_stable(registry):
    a = registry.counter("cyclosa_test_total", "help text")
    b = registry.counter("cyclosa_test_total")
    assert a is b
    a.inc()
    b.inc(2.0)
    assert a.value == 3.0
    with pytest.raises(ValueError):
        a.inc(-1.0)


def test_labels_distinguish_instruments(registry):
    push = registry.counter("cyclosa_rounds_total", mode="push")
    pull = registry.counter("cyclosa_rounds_total", mode="push_pull")
    assert push is not pull
    push.inc()
    assert registry.get("cyclosa_rounds_total", mode="push").value == 1.0
    assert registry.get("cyclosa_rounds_total", mode="push_pull").value == 0.0
    assert registry.get("cyclosa_rounds_total") is None


def test_kind_conflict_raises(registry):
    registry.counter("cyclosa_x_total")
    with pytest.raises(ValueError):
        registry.gauge("cyclosa_x_total")


def test_kind_conflict_raises_after_repeat_lookups(registry):
    counter = registry.counter("cyclosa_x_total", node="n1")
    assert registry.counter("cyclosa_x_total", node="n1") is counter
    with pytest.raises(ValueError):
        registry.histogram("cyclosa_x_total", node="n1")
    assert registry.counter("cyclosa_x_total", node="n1") is counter


def test_repeat_lookups_resolve_like_the_first(registry):
    both = registry.counter("cyclosa_y_total", a="1", b="2")
    assert registry.counter("cyclosa_y_total", b="2", a="1") is both
    # Equal label values that stringify apart stay apart, however often
    # they are looked up.
    for _ in range(2):
        assert registry.counter("cyclosa_y_total", node=1) is \
            registry.counter("cyclosa_y_total", node="1")
        assert registry.counter("cyclosa_y_total", node=True) is not \
            registry.counter("cyclosa_y_total", node=1)
        assert registry.gauge("cyclosa_z", v=0.0) is not \
            registry.gauge("cyclosa_z", v=-0.0)
    unhashable = registry.counter("cyclosa_y_total", tags=["a"])
    assert registry.counter("cyclosa_y_total", tags=["a"]) is unhashable
    assert unhashable.labels == (("tags", "['a']"),)


def test_reset_forgets_repeat_lookups(registry):
    before = registry.counter("cyclosa_x_total", node="n1")
    registry.reset()
    after = registry.counter("cyclosa_x_total", node="n1")
    assert after is not before
    assert registry.collect() == [after]


def test_gauge_moves_both_ways(registry):
    gauge = registry.gauge("cyclosa_pages")
    gauge.set(10.0)
    gauge.inc(5.0)
    assert gauge.value == 15.0
    gauge.set(2.5)
    assert gauge.value == 2.5


def test_histogram_buckets_are_cumulative(registry):
    hist = registry.histogram("cyclosa_lat_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    counts = dict(hist.bucket_counts())
    assert counts[0.1] == 1
    assert counts[1.0] == 3
    assert counts[10.0] == 4
    assert counts[math.inf] == 5
    assert hist.count == 5
    assert hist.sum == pytest.approx(56.05)


def test_histogram_percentiles_match_latencystats():
    hist = Histogram("cyclosa_lat_seconds")
    values = [0.1 * i for i in range(1, 101)]
    for value in values:
        hist.observe(value)
    for q in (0.5, 0.9, 0.99):
        assert hist.percentile(q) == pytest.approx(percentile(values, q))
    expected = summarize(values)
    got = hist.summary()
    assert got.median == pytest.approx(expected.median)
    assert got.p90 == pytest.approx(expected.p90)


def test_histogram_reservoir_is_bounded():
    hist = Histogram("cyclosa_lat_seconds")
    for index in range(RESERVOIR_SIZE + 100):
        hist.observe(float(index))
    assert len(hist.samples) == RESERVOIR_SIZE
    assert hist.count == RESERVOIR_SIZE + 100  # buckets keep everything


def test_collect_reset_and_names(registry):
    registry.counter("cyclosa_b_total")
    registry.counter("cyclosa_a_total")
    registry.histogram("cyclosa_c_seconds")
    assert registry.names() == [
        "cyclosa_a_total", "cyclosa_b_total", "cyclosa_c_seconds"]
    assert [m.name for m in registry.collect()] == [
        "cyclosa_a_total", "cyclosa_b_total", "cyclosa_c_seconds"]
    registry.reset()
    assert registry.names() == []


def test_default_buckets_cover_sgx_to_endtoend():
    assert DEFAULT_BUCKETS[0] <= 1e-6
    assert DEFAULT_BUCKETS[-1] >= 60.0


def test_reservoir_overflow_keeps_most_recent_observations():
    hist = Histogram("cyclosa_lat_seconds")
    total = RESERVOIR_SIZE + 500
    for index in range(total):
        hist.observe(float(index))
    # Oldest 500 evicted; what's retained is exactly the most recent
    # RESERVOIR_SIZE observations, in arrival order.
    assert hist.samples == [float(v) for v in range(500, total)]
    assert hist.sum == pytest.approx(sum(range(total)))


def test_reservoir_overflow_quantiles_stay_cumulative():
    # The bounded reservoir must not bend the bucket math: cumulative
    # bucket counts keep every observation ever made, and identical
    # observation streams keep identical reservoirs (determinism —
    # eviction is FIFO, never sampled).
    first = Histogram("cyclosa_lat_seconds", buckets=(1.0, 10.0))
    second = Histogram("cyclosa_lat_seconds", buckets=(1.0, 10.0))
    for index in range(RESERVOIR_SIZE + 64):
        value = 0.5 if index % 2 == 0 else 5.0
        first.observe(value)
        second.observe(value)
    assert first.samples == second.samples
    counts = dict(first.bucket_counts())
    assert counts[1.0] == (RESERVOIR_SIZE + 64) / 2
    assert counts[math.inf] == RESERVOIR_SIZE + 64
