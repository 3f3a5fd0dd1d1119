"""Tests for the perf harness (repro.perf) and its regression guard.

Everything here runs at toy scale — these are correctness tests of the
harness plumbing (parameters, JSON schema, comparison logic, CLI exit
codes), not perf measurements. The measurements live in
``benchmarks/test_bench_pipeline.py`` behind the ``perf`` marker.
"""

import copy
import json

import pytest

from benchmarks import check_regression
from repro import perf
from repro.cli import main as cli_main

#: Small enough that the whole module stays in tier-1 comfortably.
TINY = dict(history_size=120, probes=10, linear_probes=4,
            num_events=1500, chains=8, num_nodes=4, searches=2,
            engine_queries=10, engine_unique=3, engine_docs_per_topic=6,
            replica_counts=[2], monitor_windows=40,
            scale_nodes=40, scale_duration=1.5, seed=0, repeats=1)


@pytest.fixture(scope="module")
def tiny_results():
    return perf.run_all(**TINY)


class TestRunAll:
    def test_sections_and_meta(self, tiny_results):
        assert set(tiny_results) >= {"meta", "sensitivity", "simulator",
                                     "search", "engine_scaling",
                                     "scale", "monitor"}
        # A process-wide cache snapshot is no measurement of any one
        # section, so no section of that kind is written.
        assert "text_caches" not in tiny_results
        meta = tiny_results["meta"]
        assert meta["schema"] == 1
        assert meta["params"]["history_size"] == 120

    def test_every_throughput_key_present_and_positive(self, tiny_results):
        for section, key in perf.THROUGHPUT_KEYS:
            assert tiny_results[section][key] > 0.0

    def test_scores_bit_identical_at_tiny_scale(self, tiny_results):
        assert tiny_results["sensitivity"]["scores_bit_identical"] is True

    def test_search_section_shape(self, tiny_results):
        search = tiny_results["search"]
        assert search["ok"] == search["searches"] == 2
        assert "sensitivity" in search["stage_breakdown_simulated_seconds"]
        assert search["simulated_end_to_end_seconds"] is not None

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError):
            perf.run_all(histroy_size=10)

    def test_none_overrides_fall_back_to_defaults(self):
        params = dict(TINY)
        params["seed"] = None
        results_meta_params = {}
        # Only exercise the parameter plumbing, not a full run: patch
        # via run_all's own validation by passing everything tiny.
        out = perf.run_all(**params)
        results_meta_params = out["meta"]["params"]
        assert results_meta_params["seed"] == perf.DEFAULT_PARAMS["seed"]

    def test_workload_queries_deterministic(self):
        assert perf.workload_queries(30, seed=5) == \
            perf.workload_queries(30, seed=5)
        assert len(perf.workload_queries(30, seed=5)) == 30

    def test_scale_section_shape(self, tiny_results):
        scale = tiny_results["scale"]
        assert set(scale) == {"num_nodes", "duration", "events",
                              "events_per_sec"}
        assert scale["num_nodes"] == 40
        assert scale["duration"] == 1.5
        assert scale["events"] > 0
        assert scale["events_per_sec"] > 0

    def test_engine_scaling_section_shape(self, tiny_results):
        scaling = tiny_results["engine_scaling"]
        assert scaling["sharded_identical"] is True
        assert [row["replicas"] for row in scaling["scaled"]] == [2]
        assert scaling["scaled"][0]["searches_per_sec_cache_off"] > 0
        assert scaling["best_replicas"] == 2
        assert scaling["baseline_searches_per_sec"] > 0
        assert scaling["best_searches_per_sec"] > 0
        assert scaling["speedup"] > 0


class TestOnly:
    def test_only_runs_the_requested_sections(self):
        results = perf.run_all(only=["simulator"], **TINY)
        assert "simulator" in results
        assert "search" not in results
        assert "engine_scaling" not in results
        assert "meta" in results

    def test_only_preserves_section_order(self):
        results = perf.run_all(only=["simulator", "sensitivity"], **TINY)
        sections = [name for name in results
                    if name in perf.BENCH_SECTIONS]
        assert sections == ["sensitivity", "simulator"]

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="no_such_bench"):
            perf.run_all(only=["no_such_bench"], **TINY)

    def test_empty_only_rejected(self):
        # `--only ,` parses to an empty list: silently measuring
        # nothing (and merging nothing into the baseline) would look
        # like success, so it must be an explicit error.
        with pytest.raises(ValueError, match="no perf sections"):
            perf.run_all(only=[], **TINY)

    def test_profile_section_excluded_by_default(self):
        results = perf.run_all(only=["simulator"], **TINY)
        assert "profile" not in results
        assert "profile" in perf.BENCH_SECTIONS

    def test_profile_section_runs_when_requested(self):
        results = perf.run_all(
            only=["profile"], profile=True,
            profile_nodes=6, profile_searches=2, **TINY)
        section = results["profile"]
        assert section["samples"] > 0
        assert section["scenario"] == "search"
        assert len(section["collapsed_sha256"]) == 64
        shares = section["subsystems"]
        assert sum(row["self"] for row in shares.values()) \
            == section["samples"]

    def test_profile_section_is_deterministic(self):
        kwargs = dict(only=["profile"], profile=True,
                      profile_nodes=6, profile_searches=2, **TINY)
        first = perf.run_all(**kwargs)["profile"]
        second = perf.run_all(**kwargs)["profile"]
        assert first == second

    def test_format_report_tolerates_partial_results(self):
        results = perf.run_all(only=["simulator"], **TINY)
        report = perf.format_report(results)
        assert "events/sec" in report
        assert "indexed speedup" not in report

    def test_compare_skips_sections_missing_from_either_side(
            self, tiny_results):
        partial = perf.run_all(only=["simulator"], **TINY)
        rows = perf.compare(tiny_results, partial)
        assert {row["metric"] for row in rows} == \
            {"simulator.events_per_sec"}


class TestBaselineIO:
    def test_write_load_roundtrip(self, tiny_results, tmp_path):
        path = str(tmp_path / "bench.json")
        perf.write_baseline(tiny_results, path)
        assert perf.load_baseline(path) == json.loads(
            json.dumps(tiny_results))

    def test_format_report_mentions_headlines(self, tiny_results):
        report = perf.format_report(tiny_results)
        assert "indexed speedup" in report
        assert "events/sec" in report
        assert "searches/sec" in report


class TestCompare:
    def test_no_regression_against_self(self, tiny_results):
        rows = perf.compare(tiny_results, tiny_results)
        assert len(rows) == len(perf.THROUGHPUT_KEYS)
        assert not any(row["regressed"] for row in rows)

    def test_inflated_baseline_flags_regression(self, tiny_results):
        inflated = copy.deepcopy(tiny_results)
        inflated["simulator"]["events_per_sec"] *= 100.0
        rows = perf.compare(inflated, tiny_results, tolerance=0.2)
        flagged = {row["metric"] for row in rows if row["regressed"]}
        assert flagged == {"simulator.events_per_sec"}

    def test_tolerance_is_respected(self, tiny_results):
        slightly_better = copy.deepcopy(tiny_results)
        slightly_better["search"]["searches_per_sec"] *= 1.1
        rows = perf.compare(slightly_better, tiny_results, tolerance=0.2)
        assert not any(row["regressed"] for row in rows)


class TestCheckRegression:
    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert check_regression.main(["--baseline", missing]) == 2

    def test_pass_against_own_baseline(self, tiny_results, tmp_path,
                                       capsys):
        path = str(tmp_path / "bench.json")
        perf.write_baseline(tiny_results, path)
        # Re-runs the benches with the baseline's own (tiny) params; a
        # generous tolerance absorbs wall-clock noise in CI.
        assert check_regression.main(
            ["--baseline", path, "--tolerance", "0.95"]) == 0
        assert "no perf regression" in capsys.readouterr().out

    def test_fail_against_inflated_baseline(self, tiny_results, tmp_path,
                                            capsys):
        inflated = copy.deepcopy(tiny_results)
        for section, key in perf.THROUGHPUT_KEYS:
            inflated[section][key] *= 1000.0
        path = str(tmp_path / "bench.json")
        perf.write_baseline(inflated, path)
        assert check_regression.main(["--baseline", path]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_update_writes_baseline(self, tiny_results, tmp_path):
        path = str(tmp_path / "bench.json")
        perf.write_baseline(tiny_results, path)  # params source
        assert check_regression.main(
            ["--baseline", path, "--update"]) == 0
        refreshed = perf.load_baseline(path)
        assert refreshed["meta"]["params"] == tiny_results["meta"]["params"]


#: CLI flags keeping a full `repro perf` run at toy scale.
TINY_FLAGS = ["--history", "100", "--probes", "6", "--events", "1000",
              "--nodes", "4", "--searches", "2", "--monitor-windows", "40",
              "--engine-queries", "8", "--engine-docs-per-topic", "6",
              "--scale-nodes", "40", "--scale-duration", "1.5"]


class TestCli:
    def test_perf_subcommand_writes_report(self, tmp_path, capsys,
                                           monkeypatch):
        out = str(tmp_path / "bench.json")
        code = cli_main(["perf", *TINY_FLAGS, "--output", out])
        captured = capsys.readouterr().out
        assert code == 0
        assert "CYCLOSA pipeline perf" in captured
        assert "engine tier" in captured
        written = perf.load_baseline(out)
        assert written["meta"]["params"]["history_size"] == 100

    def test_perf_no_write(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        code = cli_main(["perf", *TINY_FLAGS, "--output", out,
                         "--no-write"])
        assert code == 0
        assert not (tmp_path / "bench.json").exists()

    def test_perf_only_merges_into_existing_baseline(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "bench.json")
        assert cli_main(["perf", *TINY_FLAGS, "--output", out]) == 0
        full = perf.load_baseline(out)
        assert cli_main(["perf", *TINY_FLAGS, "--output", out,
                         "--only", "simulator"]) == 0
        merged = perf.load_baseline(out)
        # The partial run refreshed its section and kept every other
        # section from the committed baseline.
        assert set(merged) == set(full)
        assert merged["search"] == full["search"]

    def test_perf_full_run_keeps_sections_it_skips(self, tmp_path,
                                                   capsys):
        # A default run skips `profile`; writing it must not drop the
        # profile section (or the params) an existing file holds.
        out = tmp_path / "bench.json"
        profile = {"scenario": "search", "samples": 344}
        out.write_text(json.dumps({"meta": {"params": {"legacy": 1}},
                                   "profile": profile}))
        assert cli_main(["perf", *TINY_FLAGS, "--output", str(out)]) == 0
        written = perf.load_baseline(str(out))
        assert written["profile"] == profile
        assert written["meta"]["params"]["legacy"] == 1
        assert written["meta"]["params"]["history_size"] == 100
        assert "simulator" in written

    def test_perf_param_conflict_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        original = json.dumps({"meta": {"params": {"history_size": 999}}})
        out.write_text(original)
        code = cli_main(["perf", *TINY_FLAGS, "--output", str(out)])
        assert code == 2
        assert "history_size" in capsys.readouterr().err
        assert out.read_text() == original

    def test_perf_only_accepts_comma_separated_sections(self, tmp_path,
                                                        capsys):
        out = str(tmp_path / "bench.json")
        code = cli_main(["perf", *TINY_FLAGS, "--output", out,
                         "--only", "simulator,monitor", "--no-write"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "events/sec" in captured
        assert "flight recorder" in captured

    def test_perf_only_unknown_section_exits_2(self, capsys):
        code = cli_main(["perf", "--only", "nope", "--no-write"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown perf sections" in err
        # The error names the valid sections so the fix is one
        # copy-paste away.
        for section in perf.BENCH_SECTIONS:
            assert section in err

    def test_perf_only_empty_exits_2(self, capsys):
        # A stray comma (`--only ,`) must not silently run nothing.
        code = cli_main(["perf", "--only", ",", "--no-write"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no perf sections selected" in err
        for section in perf.BENCH_SECTIONS:
            assert section in err

    def test_perf_profile_section_via_cli(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        code = cli_main(["perf", *TINY_FLAGS, "--output", out,
                         "--only", "profile", "--profile"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "profile (search scenario" in captured
        written = perf.load_baseline(out)
        assert written["profile"]["samples"] > 0
