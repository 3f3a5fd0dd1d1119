"""SLO rules and the multi-window burn-rate monitor."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.slo import (BURN_CAP, BoundedGaugeSlo, BurnRatePolicy,
                           LatencyQuantileSlo, SloSpec, SuccessRateSlo,
                           _burn, _merge_ranges, evaluate_slo)
from repro.obs.timeseries import Window, WindowHistogram

pytestmark = pytest.mark.obs

POLICY = BurnRatePolicy(short_windows=2, long_windows=4, factor=2.0)


def _window(index, counters=None, gauges=None, histograms=None):
    return Window(index=index, start=index * 10.0, end=(index + 1) * 10.0,
                  counters=counters or {}, cumulative={},
                  gauges=gauges or {}, histograms=histograms or {})


def _result_windows(per_window):
    """``per_window``: list of (ok, captcha) counter deltas."""
    return [
        _window(i, counters={
            'cyclosa_core_search_results_total{status="ok"}': ok,
            'cyclosa_core_search_results_total{status="captcha"}': bad,
        })
        for i, (ok, bad) in enumerate(per_window)]


# -- rules -------------------------------------------------------------


def test_success_rate_partitions_by_status_label():
    rule = SuccessRateSlo(name="s", target=0.9)
    window = _result_windows([(8, 2)])[0]
    assert rule.window_events(window) == (8.0, 2.0)
    assert rule.window_events(_window(5)) is None  # no data → no burn
    assert "status=ok" in rule.describe()


def test_latency_rule_counts_events_against_threshold():
    hist = WindowHistogram(count=20.0, sum=0.0,
                           buckets=((1.0, 10.0), (2.0, 20.0),
                                    (math.inf, 20.0)))
    rule = LatencyQuantileSlo(name="lat", histogram="cyclosa_lat",
                              threshold_seconds=1.5, q=0.95)
    good, bad = rule.window_events(
        _window(0, histograms={"cyclosa_lat": hist}))
    assert good == pytest.approx(15.0)
    assert bad == pytest.approx(5.0)
    assert rule.target == 0.95
    assert rule.window_events(_window(1)) is None
    assert rule.describe() == "p95(cyclosa_lat) <= 1.5s"


def test_bounded_gauge_is_zero_budget():
    rule = BoundedGaugeSlo(name="b", gauge="cyclosa_depth", bound=8.0)
    assert rule.window_events(_window(0, gauges={"cyclosa_depth": 8.0})) \
        == (1.0, 0.0)
    assert rule.window_events(_window(0, gauges={"cyclosa_depth": 9.0})) \
        == (0.0, 1.0)
    assert rule.window_events(_window(0)) is None


# -- burn-rate math ----------------------------------------------------


def test_burn_rate_is_error_rate_over_budget():
    assert _burn(90.0, 10.0, budget=0.1) == pytest.approx(1.0)
    assert _burn(80.0, 20.0, budget=0.1) == pytest.approx(2.0)
    assert _burn(0.0, 0.0, budget=0.1) == 0.0
    assert _burn(99.0, 1.0, budget=0.0) == BURN_CAP  # zero budget
    assert _burn(99.0, 0.0, budget=0.0) == 0.0


def test_merge_ranges():
    assert _merge_ranges([]) == ()
    assert _merge_ranges([3]) == ((3, 3),)
    assert _merge_ranges([3, 4, 5, 9, 10, 14]) == ((3, 5), (9, 10), (14, 14))


def test_policy_validation():
    with pytest.raises(ValueError):
        BurnRatePolicy(short_windows=0)
    with pytest.raises(ValueError):
        BurnRatePolicy(short_windows=5, long_windows=3)
    with pytest.raises(ValueError):
        BurnRatePolicy(factor=0.0)


# -- evaluation --------------------------------------------------------


def test_healthy_run_reports_ok():
    spec = SloSpec(name="t", policy=POLICY,
                   rules=(SuccessRateSlo(name="s", target=0.9),))
    report = evaluate_slo(spec, _result_windows([(10, 0)] * 8))
    assert report.verdict == "ok"
    assert report.rule("s").verdict == "ok"
    assert report.rule("s").attained == 1.0
    assert report.rule("s").alert_ranges == ()


def test_sustained_breach_alerts_on_the_breach_windows():
    # Clean for 4 windows, then a 4-window storm, then clean again.
    windows = _result_windows(
        [(10, 0)] * 4 + [(2, 8)] * 4 + [(10, 0)] * 4)
    spec = SloSpec(name="t", policy=POLICY,
                   rules=(SuccessRateSlo(name="s", target=0.9),))
    report = evaluate_slo(spec, windows)
    rule = report.rule("s")
    assert report.verdict == "breached"
    assert rule.violating_windows == (4, 5, 6, 7)
    (lo, hi), = rule.alert_ranges
    # The long range needs enough bad mass to heat up: onset may lag a
    # window or two, and the trailing ranges keep alerting at most
    # short_windows past the storm.
    assert 4 <= lo <= 5
    assert 7 <= hi <= 7 + POLICY.short_windows
    assert rule.max_burn >= POLICY.factor


def test_single_window_blip_is_suppressed_by_long_range():
    windows = _result_windows([(10, 0)] * 6 + [(0, 10)] + [(10, 0)] * 6)
    spec = SloSpec(name="t", policy=BurnRatePolicy(
        short_windows=1, long_windows=8, factor=3.0),
        rules=(SuccessRateSlo(name="s", target=0.9),))
    report = evaluate_slo(spec, windows)
    rule = report.rule("s")
    assert rule.violating_windows == (6,)
    assert rule.alert_ranges == ()   # long range never got hot
    assert report.verdict == "ok"


def test_zero_budget_gauge_alerts_on_any_excursion():
    windows = [_window(i, gauges={"cyclosa_depth": 100.0 if i == 3 else 1.0})
               for i in range(6)]
    spec = SloSpec(name="t", policy=POLICY,
                   rules=(BoundedGaugeSlo(name="b", gauge="cyclosa_depth",
                                          bound=8.0),))
    report = evaluate_slo(spec, windows)
    rule = report.rule("b")
    assert rule.verdict == "breached"
    assert rule.alert_ranges[0][0] == 3
    assert rule.max_burn == BURN_CAP


def test_report_round_trips_canonical_json():
    windows = _result_windows([(10, 0)] * 4 + [(2, 8)] * 4)
    spec = SloSpec(name="t", policy=POLICY,
                   rules=(SuccessRateSlo(name="s", target=0.9),))
    report = evaluate_slo(spec, windows)
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(text)["verdict"] == "breached"
    assert evaluate_slo(spec, windows).to_dict() == report.to_dict()
    assert math.isfinite(json.loads(text)["rules"][0]["max_burn"])


def test_unknown_rule_name_raises():
    spec = SloSpec(name="t", rules=(SuccessRateSlo(name="s", target=0.9),))
    report = evaluate_slo(spec, [])
    with pytest.raises(KeyError):
        report.rule("nope")
