"""CLI smoke tests: ``repro obs`` and ``repro search --trace``."""

from __future__ import annotations

import json

import pytest

from repro import cli, obs

pytestmark = pytest.mark.obs


def test_obs_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["obs", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--format" in out


def test_obs_table_output(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    for stage in ("sensitivity", "adaptive_k", "fake_generation",
                  "fanout", "engine", "response_filtering"):
        assert stage in out
    # The engine row is service time, the path row the relay/network
    # remainder: they must not alias the same round trip.
    durations = {line.split()[0]: line.split()[2]
                 for line in out.splitlines()
                 if line.startswith(("engine ", "path "))}
    assert set(durations) == {"engine", "path"}
    assert durations["engine"] != durations["path"]


def test_obs_jsonl_output(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--format", "jsonl"])
    assert rc == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    names = {json.loads(line)["name"] for line in lines}
    assert "search" in names and "engine" in names


def test_obs_prom_output(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--format", "prom"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cyclosa_sgx_ecalls_total" in out
    assert "cyclosa_sgx_epc_faults_total" in out


def test_obs_chrome_output_is_trace_event_json(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--format", "chrome"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert any(e["ph"] == "M" and e["name"] == "process_name"
               for e in events)
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"search", "path", "relay.forward", "engine.serve"} <= names


def test_obs_critical_output_names_bounding_relay(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--format", "critical"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path for trace-" in out
    assert "bounding relay : node" in out
    assert "slowest leg    : path" in out


def test_obs_audit_passes_and_prints_verdict(capsys):
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--audit"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "telemetry privacy audit: PASS" in out
    assert "violations            : 0" in out


def test_obs_prom_includes_preregistered_collectors(capsys):
    # regression: `enable(fresh=True)` used to drop collectors that
    # modules register at import/process level, so their gauges were
    # missing from every `repro obs --format prom` snapshot.
    calls = []

    def collector(registry):
        calls.append(1)
        registry.gauge("cyclosa_collector_probe", "regression probe").set(7)

    obs.OBS.registry.register_collector(collector)
    rc = cli.main(["obs", "test query", "--nodes", "8", "--seed", "3",
                   "--format", "prom"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cyclosa_collector_probe 7" in out
    assert calls  # the collector ran against the fresh registry


def test_search_trace_prints_breakdown_and_snapshot(capsys):
    rc = cli.main(["search", "--trace", "test query",
                   "--nodes", "8", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline trace" in out
    assert "response_filtering" in out
    assert "cyclosa_sgx_crossings_total" in out


def test_search_without_trace_leaves_obs_disabled(capsys):
    obs.disable(reset=True)
    rc = cli.main(["search", "test query", "--nodes", "8", "--seed", "3"])
    assert rc == 0
    assert not obs.OBS.enabled
    assert "pipeline trace" not in capsys.readouterr().out
