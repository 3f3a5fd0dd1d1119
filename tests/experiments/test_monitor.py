"""The ``repro monitor`` flight-recorder scenario and its SLO verdict.

Marked ``slo``: these drive full churn+chaos soaks, so they are the
slowest tests in the experiments group. The SLO gate is the tests
parametrized over ``scale``: at both the small scale below and the
default one, the same-seed report is byte-identical, every search
terminates, the burn-rate alert covers exactly the injected storm and
the latency and backlog rules stay ok.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, obs
from repro.experiments import monitor

from tests.golden import monitor_report

pytestmark = [pytest.mark.obs, pytest.mark.slo]

#: One small soak shared by the read-only assertions below (a session-
#: scoped run would leak OBS state past the autouse reset, so module
#: scope + explicit params).
SMALL = dict(num_nodes=8, clients=3, duration=120.0, seed=11, plan_seed=3,
             storm_start=80.0, storm_end=110.0, churn_victims=1,
             churn_start=60.0, churn_duration=20.0, drain_seconds=90.0)

#: ``run_scenario`` arguments per scale; ``default`` is what
#: ``repro monitor`` runs with no flags.
SCALES = {"small": SMALL, "default": {}}


@pytest.fixture(scope="module")
def small_report():
    return monitor.run_scenario(**SMALL)


@pytest.fixture(params=list(SCALES))
def scale(request):
    return request.param


@pytest.fixture
def report(scale, small_report):
    """The soak at *scale*. The default one is the run the golden
    ``monitor`` artefact hashes, built once per session."""
    return small_report if scale == "small" else monitor_report()


def test_every_search_terminates(report):
    traffic = report["traffic"]
    assert traffic["hung_searches"] == 0
    assert traffic["completed"] == traffic["issued"]
    assert set(traffic["statuses"]) <= {
        "ok", "captcha", "relay-failure", "channel-failure", "no-peers"}


def test_windows_cover_the_run(small_report):
    windows = small_report["windows"]
    width = small_report["scenario"]["window_seconds"]
    # Recorder starts after warm-up; boundaries are absolute, so the
    # first window is the one containing t=warmup.
    first = int(small_report["scenario"]["warmup"] // width)
    assert [w["index"] for w in windows] == \
        list(range(first, first + len(windows)))
    for window in windows:
        assert window["end"] - window["start"] == pytest.approx(width)
    assert small_report["windows_evicted"] == 0


def test_storm_breaches_success_rate_in_its_windows(report):
    lo, hi = report["scenario"]["storm"]["windows"]
    rule = next(r for r in report["slo"]["rules"]
                if r["rule"] == "search-success")
    assert rule["verdict"] == "breached"
    assert rule["alert_ranges"], "storm produced no burn-rate alert"
    tail = monitor.default_slo_spec(
        report["scenario"]["window_seconds"]).policy.short_windows
    for alert_lo, alert_hi in rule["alert_ranges"]:
        assert alert_lo >= lo, "alert before the storm began"
        assert alert_hi <= hi + tail, "alert long after the storm"
    assert any(a_lo <= hi and a_hi >= lo
               for a_lo, a_hi in rule["alert_ranges"])


def test_quiet_rules_stay_ok(report):
    # The storm costs success rate, not queues or latency.
    by_name = {r["rule"]: r for r in report["slo"]["rules"]}
    assert by_name["backlog-bounded"]["verdict"] == "ok"
    assert by_name["search-latency"]["verdict"] == "ok"
    assert report["slo"]["verdict"] == "breached"  # storm rule


def test_report_is_byte_identical_across_runs(scale, report):
    again = monitor.run_scenario(**SCALES[scale])
    assert monitor.report_json(again) == monitor.report_json(report)


def test_dashboard_renders(small_report):
    text = monitor.format_dashboard(small_report)
    assert "win" in text and "alerts" in text
    assert "injected storm" in text
    assert "SLO spec 'soak-default': BREACHED" in text
    assert "burn-rate alerts: windows" in text


def test_scenario_validates_parameters():
    with pytest.raises(ValueError):
        monitor.run_scenario(num_nodes=4, clients=5)
    with pytest.raises(ValueError):
        monitor.run_scenario(num_nodes=4, clients=3, churn_victims=2)


def test_default_spec_scales_policy_with_window_width():
    wide = monitor.default_slo_spec(window_seconds=30.0)
    narrow = monitor.default_slo_spec(window_seconds=5.0)
    assert narrow.policy.short_windows > wide.policy.short_windows
    assert {rule.name for rule in wide.rules} == {
        "search-success", "search-latency", "backlog-bounded"}


# -- CLI ---------------------------------------------------------------

CLI_ARGS = ["monitor", "--nodes", "8", "--clients", "3",
            "--duration", "120", "--seed", "11", "--plan-seed", "3"]


def test_cli_monitor_json(capsys):
    rc = cli.main(CLI_ARGS + ["--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["traffic"]["hung_searches"] == 0
    assert report["slo"]["rules"]


def test_cli_monitor_dashboard(capsys):
    rc = cli.main(CLI_ARGS)
    assert rc == 0
    out = capsys.readouterr().out
    assert "SLO spec" in out


def test_cli_monitor_openmetrics(capsys):
    rc = cli.main(CLI_ARGS + ["--format", "openmetrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("# EOF\n")
    assert "# TYPE cyclosa_core_search_results counter" in out
