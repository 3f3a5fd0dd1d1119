"""Windowed aggregation: boundaries, deltas, quantiles, retention."""

from __future__ import annotations

import math

import pytest

from repro.net.simulator import Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (TimeSeriesRecorder, WindowHistogram,
                                  _quantile_from_buckets, _quantile_label,
                                  openmetrics_timeseries)

pytestmark = pytest.mark.obs


def _recorder(window=10.0, **kwargs):
    simulator = Simulator()
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry, simulator,
                                  window_seconds=window, **kwargs)
    return simulator, registry, recorder


# -- boundaries --------------------------------------------------------


def test_windows_sit_on_absolute_boundaries():
    simulator, registry, recorder = _recorder()
    simulator.run(until=3.7)       # recorder started mid-window
    recorder.start()
    simulator.run(until=35.0)
    recorder.stop()
    assert [(w.index, w.start, w.end) for w in recorder.windows] == [
        (0, 0.0, 10.0), (1, 10.0, 20.0), (2, 20.0, 30.0)]


def test_start_baselines_preexisting_counts():
    simulator, registry, recorder = _recorder()
    registry.counter("cyclosa_warm_total", "warmup").inc(50)
    recorder.start()
    registry.counter("cyclosa_warm_total", "warmup").inc(2)
    simulator.run(until=10.0)
    window = recorder.windows[0]
    assert window.counters["cyclosa_warm_total"] == 2
    assert window.cumulative["cyclosa_warm_total"] == 52


def test_counter_deltas_and_gauge_samples_per_window():
    simulator, registry, recorder = _recorder()
    recorder.start()
    counter = registry.counter("cyclosa_events_total", "events")
    gauge = registry.gauge("cyclosa_depth", "depth")
    simulator.schedule_at(2.0, lambda: (counter.inc(3), gauge.set(7)))
    simulator.schedule_at(15.0, lambda: (counter.inc(5), gauge.set(1)))
    simulator.run(until=25.0)
    recorder.stop()
    assert [(w.index, w.counters["cyclosa_events_total"])
            for w in recorder.windows] == [(0, 3.0), (1, 5.0)]
    assert [(w.index, w.gauges["cyclosa_depth"])
            for w in recorder.windows] == [(0, 7.0), (1, 1.0)]
    assert recorder.windows[1].cumulative["cyclosa_events_total"] == 8.0


def test_labelled_counters_keep_separate_series():
    simulator, registry, recorder = _recorder()
    recorder.start()
    registry.counter("cyclosa_r_total", "r", status="ok").inc(4)
    registry.counter("cyclosa_r_total", "r", status="captcha").inc()
    simulator.run(until=10.0)
    window = recorder.windows[0]
    assert window.counters['cyclosa_r_total{status="ok"}'] == 4
    assert window.counters['cyclosa_r_total{status="captcha"}'] == 1


def test_stop_cancels_future_flushes():
    simulator, registry, recorder = _recorder()
    recorder.start()
    assert recorder.running
    simulator.run(until=10.0)
    recorder.stop()
    assert not recorder.running
    simulator.run(until=60.0)
    assert len(recorder.windows) == 1


def test_restart_rejected_while_running():
    _, _, recorder = _recorder()
    recorder.start()
    with pytest.raises(RuntimeError):
        recorder.start()


def test_parameter_validation():
    simulator = Simulator()
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        TimeSeriesRecorder(registry, simulator, window_seconds=0.0)
    with pytest.raises(ValueError):
        TimeSeriesRecorder(registry, simulator, retention=0)
    with pytest.raises(ValueError):
        TimeSeriesRecorder(registry, simulator, quantiles=(1.5,))


# -- histograms --------------------------------------------------------


def test_histogram_quantiles_use_window_deltas_not_reservoir():
    simulator, registry, recorder = _recorder()
    recorder.start()
    hist = registry.histogram("cyclosa_lat_seconds", "lat",
                              buckets=(1.0, 2.0, 4.0))
    # Window 0: all observations fast; window 1: all slow. A reservoir
    # across both would blur them; bucket deltas must not.
    simulator.schedule_at(
        1.0, lambda: [hist.observe(0.5) for _ in range(10)])
    simulator.schedule_at(
        11.0, lambda: [hist.observe(3.0) for _ in range(10)])
    simulator.run(until=25.0)
    recorder.stop()
    first = recorder.windows[0].histograms["cyclosa_lat_seconds"]
    second = recorder.windows[1].histograms["cyclosa_lat_seconds"]
    assert first.count == 10 and second.count == 10
    assert first.quantiles["p99"] <= 1.0
    assert 2.0 <= second.quantiles["p50"] <= 4.0
    assert second.sum == pytest.approx(30.0)


def test_quantile_interpolation_matches_hand_math():
    # 10 events in (0,1], 10 in (1,2]: p50 sits at the 1.0 boundary,
    # p75 interpolates halfway into the second bucket.
    buckets = ((1.0, 10.0), (2.0, 20.0), (math.inf, 20.0))
    assert _quantile_from_buckets(buckets, 0.5) == pytest.approx(1.0)
    assert _quantile_from_buckets(buckets, 0.75) == pytest.approx(1.5)
    assert _quantile_from_buckets(buckets, 1.0) == pytest.approx(2.0)
    assert _quantile_from_buckets((), 0.5) == 0.0
    assert _quantile_from_buckets(((1.0, 0.0), (math.inf, 0.0)), 0.5) == 0.0


def test_overflow_quantile_clamps_to_last_finite_bound():
    buckets = ((1.0, 0.0), (math.inf, 5.0))  # everything overflowed
    assert _quantile_from_buckets(buckets, 0.99) == 1.0


def test_quantile_of_empty_window_is_zero_at_every_q():
    # An idle window records the bucket schema with all-zero deltas —
    # the estimator must return 0.0 (not NaN, not a division error)
    # at every quantile, including the extremes.
    empty = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (math.inf, 0.0))
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert _quantile_from_buckets(empty, q) == 0.0
        assert _quantile_from_buckets((), q) == 0.0


def test_quantile_single_bucket_interpolates_from_zero():
    # A one-finite-bound histogram: every event landed in (0, 2.0],
    # so quantiles interpolate linearly between 0 and the bound —
    # there is no previous bucket edge to anchor on.
    buckets = ((2.0, 8.0), (math.inf, 8.0))
    assert _quantile_from_buckets(buckets, 0.5) == pytest.approx(1.0)
    assert _quantile_from_buckets(buckets, 0.25) == pytest.approx(0.5)
    assert _quantile_from_buckets(buckets, 1.0) == pytest.approx(2.0)
    # q=0 targets cumulative count 0: the interpolation degenerates to
    # the bucket's lower edge.
    assert _quantile_from_buckets(buckets, 0.0) == pytest.approx(0.0)


def test_quantile_single_bucket_all_overflow():
    # Only the +inf bucket saw events: nothing finite to interpolate
    # inside, so every quantile clamps to the last finite bound.
    buckets = ((2.0, 0.0), (math.inf, 3.0))
    for q in (0.1, 0.5, 0.99):
        assert _quantile_from_buckets(buckets, q) == 2.0


def test_empty_window_histogram_quantiles_via_recorder():
    # End-to-end: a histogram family registered but silent during a
    # window must still serialise with zero quantiles for that window.
    simulator, registry, recorder = _recorder()
    recorder.start()
    hist = registry.histogram("cyclosa_lat_seconds", "lat",
                              buckets=(1.0, 2.0))
    simulator.schedule_at(1.0, lambda: hist.observe(0.5))
    # Window 1 (10-20s) sees no observations at all.
    simulator.run(until=25.0)
    recorder.stop()
    idle = recorder.windows[1].histograms["cyclosa_lat_seconds"]
    assert idle.count == 0
    assert all(value == 0.0 for value in idle.quantiles.values())


def test_events_under_interpolates_cumulative_curve():
    hist = WindowHistogram(
        count=20.0, sum=0.0,
        buckets=((1.0, 10.0), (2.0, 20.0), (math.inf, 20.0)))
    assert hist.events_under(1.0) == pytest.approx(10.0)
    assert hist.events_under(1.5) == pytest.approx(15.0)
    assert hist.events_under(5.0) == pytest.approx(20.0)


def test_quantile_labels():
    assert _quantile_label(0.5) == "p50"
    assert _quantile_label(0.99) == "p99"
    assert _quantile_label(0.999) == "p99.9"


# -- retention ---------------------------------------------------------


def test_retention_ring_evicts_oldest_and_counts():
    simulator, registry, recorder = _recorder(window=1.0, retention=3)
    recorder.start()
    simulator.run(until=7.5)
    recorder.stop()
    assert [w.index for w in recorder.windows] == [4, 5, 6]
    assert recorder.evicted == 4


# -- determinism & export ----------------------------------------------


def _drive_scripted_run():
    simulator, registry, recorder = _recorder()
    recorder.start()
    counter = registry.counter("cyclosa_events_total", "events")
    hist = registry.histogram("cyclosa_lat_seconds", "lat")
    for step in range(30):
        simulator.schedule_at(
            step * 1.7 + 0.1,
            lambda s=step: (counter.inc(s % 3), hist.observe(0.1 * (s % 7))))
    simulator.run(until=60.0)
    recorder.stop()
    return recorder


def test_windows_are_identical_across_runs():
    assert _drive_scripted_run().to_dicts() == _drive_scripted_run().to_dicts()


def test_openmetrics_timeseries_shape():
    recorder = _drive_scripted_run()
    text = openmetrics_timeseries(recorder.windows)
    assert text.endswith("# EOF\n")
    assert text.count("# EOF") == 1
    # Counter family TYPE line drops the _total suffix; samples keep it
    # and carry the window-end timestamp.
    assert "# TYPE cyclosa_events counter" in text
    assert "cyclosa_events_total" in text
    lines = text.splitlines()
    sample = next(l for l in lines if l.startswith("cyclosa_events_total"))
    assert sample.split()[-1] in {"10", "20", "30", "40", "50", "60"}
    assert "# TYPE cyclosa_lat_seconds histogram" in text
    assert any(l.startswith("cyclosa_lat_seconds_count") for l in lines)
    assert openmetrics_timeseries(
        _drive_scripted_run().windows) == text  # byte-deterministic


def test_collectors_run_at_every_boundary():
    simulator, registry, recorder = _recorder()
    pulls = []

    def collect(reg):
        pulls.append(simulator.now)
        reg.gauge("cyclosa_pull", "pull").set(len(pulls))

    registry.register_collector(collect)
    recorder.start()
    simulator.run(until=30.0)
    recorder.stop()
    # one collect at start() (baseline) + one per boundary flush
    assert pulls == [0.0, 10.0, 20.0, 30.0]
    assert recorder.windows[-1].index == 2
    assert "cyclosa_pull" in recorder.windows[-1].gauges
