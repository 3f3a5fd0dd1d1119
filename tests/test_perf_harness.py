"""Tests for :mod:`repro.perf`: the shared query workload and the
profile baseline that ``python -m repro perf`` writes.

Speed is the repository benchmark's job (``python -m bench``); nothing
here times anything.
"""

import json

from repro import perf
from repro.cli import main as cli_main


class TestWorkloadQueries:
    def test_workload_queries_deterministic(self):
        assert perf.workload_queries(30, seed=5) == \
            perf.workload_queries(30, seed=5)
        assert len(perf.workload_queries(30, seed=5)) == 30


class TestOnly:
    """The profile is the only section ``repro.perf`` still takes."""

    def test_profile_section_runs_when_requested(self):
        section = perf.bench_profile(profile_nodes=6, profile_searches=2)
        assert section["samples"] > 0
        assert section["scenario"] == "search"
        assert (section["nodes"], section["searches"]) == (6, 2)
        assert len(section["collapsed_sha256"]) == 64
        shares = section["subsystems"]
        assert sum(row["self"] for row in shares.values()) \
            == section["samples"]

    def test_profile_section_is_deterministic(self):
        first = perf.bench_profile(**perf.DEFAULT_PARAMS)
        second = perf.bench_profile(**perf.DEFAULT_PARAMS)
        assert first == second


class TestCli:
    def test_perf_subcommand_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"stale": {"events_per_sec": 1.0}}))
        assert cli_main(["perf", "--output", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        written = json.loads(out.read_text())
        # The file is rewritten whole: meta plus the profile section.
        assert set(written) == {"meta", "profile"}
        assert written["meta"]["params"] == perf.DEFAULT_PARAMS

    def test_perf_profile_section_via_cli(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli_main(["perf", "--output", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "profile (search scenario" in captured
        written = json.loads(out.read_text())
        assert written["profile"]["collapsed_sha256"][:16] in captured
        assert written["profile"] == perf.bench_profile(
            **perf.DEFAULT_PARAMS)
