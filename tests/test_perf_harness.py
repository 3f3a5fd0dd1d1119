"""Tests for :mod:`repro.perf`: the shared query workload and the
profile baseline that ``python -m repro perf`` writes.

Speed is the repository benchmark's job (``python -m bench``); nothing
here times anything. The full-size profile runs twice in this module:
once through ``repro perf`` and once through ``bench_profile``.
"""

import contextlib
import io
import json

import pytest

from repro import perf
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def perf_run(tmp_path_factory):
    """One ``repro perf --output`` run over a stale file: the output
    path, exit code, printed summary and the file it wrote."""
    out = tmp_path_factory.mktemp("perf") / "bench.json"
    out.write_text(json.dumps({"stale": {"events_per_sec": 1.0}}))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli_main(["perf", "--output", str(out)])
    return {"out": out, "code": code, "printed": printed.getvalue(),
            "written": json.loads(out.read_text())}


@pytest.fixture(scope="module")
def fresh_profile():
    """One more full-size profile, taken apart from ``repro perf``."""
    return perf.bench_profile(**perf.DEFAULT_PARAMS)


class TestWorkloadQueries:
    def test_workload_queries_deterministic(self):
        assert perf.workload_queries(30, seed=5) == \
            perf.workload_queries(30, seed=5)
        assert len(perf.workload_queries(30, seed=5)) == 30


class TestOnly:
    """The profile is the only section ``repro.perf`` still takes."""

    def test_profile_section_runs_when_requested(self):
        section = perf.bench_profile(profile_nodes=6, profile_searches=2)
        assert section["call_events"] > 0
        assert section["scenario"] == "search"
        assert (section["nodes"], section["searches"]) == (6, 2)
        assert len(section["collapsed_sha256"]) == 64
        shares = section["subsystems"]
        assert sum(row["self"] for row in shares.values()) \
            == section["call_events"]

    def test_profile_section_is_deterministic(self, perf_run, fresh_profile):
        # Two full-size runs, one through the CLI, must be equal.
        assert perf_run["written"]["profile"] == fresh_profile


class TestCli:
    def test_perf_subcommand_writes_report(self, perf_run):
        assert perf_run["code"] == 0
        assert f"wrote {perf_run['out']}" in perf_run["printed"]
        written = perf_run["written"]
        # The file is rewritten whole: meta plus the profile section.
        assert set(written) == {"meta", "profile"}
        assert written["meta"]["params"] == perf.DEFAULT_PARAMS

    def test_perf_profile_section_via_cli(self, perf_run, fresh_profile):
        assert perf_run["code"] == 0
        captured = perf_run["printed"]
        assert "profile (search scenario" in captured
        written = perf_run["written"]
        assert written["profile"]["collapsed_sha256"][:16] in captured
        assert written["profile"] == fresh_profile
