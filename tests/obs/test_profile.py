"""The deterministic sampling profiler: byte-identity, subsystem
attribution, bounded structures, heap windows and the output audit.

The profiler's one non-negotiable property is that two same-seed runs
of the same workload produce *byte-identical* collapsed stacks and
attribution JSON — that is what lets the profile gate
(:class:`TestBaselineDrift`) diff against the ``profile`` section of
the committed ``BENCH_pipeline.json``. Everything else (mapping rules,
caps, the chrome merge, the privacy audit) supports that contract."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import obs, perf
from repro.net.simulator import Simulator
from repro.obs.profile import (CODE_LOCATION_RE, OVERFLOW_FRAME,
                               DeterministicProfiler, HeapSampler,
                               compare_attribution, parse_collapsed,
                               subsystem_of_module, subsystem_of_path)

pytestmark = [pytest.mark.obs, pytest.mark.profile]


# -- deterministic workloads -------------------------------------------


def fib(n: int) -> int:
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def churn(rounds: int) -> int:
    total = 0
    for value in range(rounds):
        total += fib(value % 10)
    return total


def profiled_run(interval: int = 16, rounds: int = 200):
    profiler = DeterministicProfiler(sample_interval=interval,
                                     stack_roots=("tests.obs.test_profile",))
    with profiler:
        churn(rounds)
    return profiler


# -- subsystem mapping --------------------------------------------------


class TestSubsystemMapping:
    def test_repro_packages_map_to_themselves(self):
        assert subsystem_of_module("repro.net.simulator") == "net"
        assert subsystem_of_module("repro.sgx.enclave") == "sgx"
        assert subsystem_of_module("repro.obs.profile") == "obs"

    def test_unknown_repro_submodule_maps_to_other(self):
        assert subsystem_of_module("repro.nonexistent.thing") == "other"
        assert subsystem_of_module("repro") == "other"

    def test_non_repro_maps_to_stdlib(self):
        assert subsystem_of_module("json.decoder") == "stdlib"
        assert subsystem_of_module("hmac") == "stdlib"

    def test_path_mapping_mirrors_module_mapping(self):
        assert subsystem_of_path("/x/src/repro/net/simulator.py") == "net"
        assert subsystem_of_path("/x/src/repro/perf.py") == "perf"
        assert subsystem_of_path("/x/src/repro/__init__.py") == "other"
        assert subsystem_of_path("/usr/lib/python3/json/decoder.py") \
            == "stdlib"
        assert subsystem_of_path(r"C:\x\repro\net\simulator.py") == "net"


# -- core sampling ------------------------------------------------------


class TestSampling:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeterministicProfiler(sample_interval=0)
        with pytest.raises(ValueError):
            DeterministicProfiler(max_depth=0)

    def test_refuses_to_stack_on_a_foreign_hook(self):
        sys.setprofile(lambda *args: None)
        try:
            with pytest.raises(RuntimeError):
                DeterministicProfiler().start()
        finally:
            sys.setprofile(None)
        profiler = DeterministicProfiler()
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()
        assert sys.getprofile() is None

    def test_samples_every_nth_call_event(self):
        profiler = profiled_run(interval=16)
        assert profiler.samples == profiler.call_events // 16
        assert profiler.samples > 0
        total = sum(profiler.stacks.values())
        assert total == profiler.samples

    def test_same_workload_is_byte_identical(self):
        first = profiled_run()
        second = profiled_run()
        assert first.collapsed_stacks() == second.collapsed_stacks()
        assert first.attribution_json() == second.attribution_json()
        assert first.samples > 0

    def test_stack_roots_cut_callers_above_the_entry_point(self):
        profiler = profiled_run()
        for stack in profiler.stacks:
            # Nothing above this test module survives: no pytest
            # frames, no _pytest plumbing.
            assert not any(frame.startswith("_pytest") for frame in stack)
            assert stack[0].partition(":")[0] == "tests.obs.test_profile"

    def test_self_ticks_sum_to_samples(self):
        profiler = profiled_run()
        attribution = profiler.attribution()
        rows = attribution["subsystems"]
        assert sum(row["self"] for row in rows.values()) \
            == attribution["samples"]
        for row in rows.values():
            assert row["cum"] >= row["self"]

    def test_distinct_stack_cap_overflows_gracefully(self):
        profiler = DeterministicProfiler(
            sample_interval=1, max_stacks=2,
            stack_roots=("tests.obs.test_profile",))
        with profiler:
            churn(60)
        assert profiler.stack_overflows > 0
        assert (OVERFLOW_FRAME,) in profiler.stacks
        assert sum(profiler.stacks.values()) == profiler.samples

    def test_max_depth_counts_truncated_stacks(self):
        profiler = DeterministicProfiler(sample_interval=1, max_depth=3,
                                         stack_roots=("nomatch",))
        with profiler:
            fib(12)
        assert profiler.truncated > 0
        assert all(len(stack) <= 3 for stack in profiler.stacks)

    def test_timeline_only_with_a_clock(self):
        without = profiled_run()
        assert without.timeline == []
        clock = obs.ManualClock()
        profiler = DeterministicProfiler(
            sample_interval=8, clock=clock,
            stack_roots=("tests.obs.test_profile",))
        with profiler:
            churn(50)
        assert profiler.timeline
        assert all(stamp == 0.0 for stamp, _ in profiler.timeline)
        assert all(isinstance(sub, str) for _, sub in profiler.timeline)


# -- collapsed format ---------------------------------------------------


class TestCollapsedFormat:
    def test_roundtrips_through_parse_collapsed(self):
        profiler = profiled_run()
        parsed = parse_collapsed(profiler.collapsed_stacks())
        assert parsed == profiler.stacks

    def test_every_frame_is_a_code_location(self):
        profiler = profiled_run()
        for stack in profiler.stacks:
            for frame in stack:
                assert CODE_LOCATION_RE.match(frame), frame

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_collapsed("no trailing count\n")
        with pytest.raises(ValueError):
            parse_collapsed(" 12\n")

    def test_empty_profile_collapses_to_empty_text(self):
        profiler = DeterministicProfiler()
        assert profiler.collapsed_stacks() == ""
        assert parse_collapsed("") == {}


# -- attribution comparison (the gate core) -----------------------------


class TestCompareAttribution:
    def test_identical_attributions_never_drift(self):
        attribution = profiled_run().attribution()
        rows = compare_attribution(attribution, attribution)
        assert rows and not any(row["drifted"] for row in rows)

    def test_inflated_subsystem_drifts(self):
        baseline = profiled_run().attribution()
        inflated = json.loads(json.dumps(baseline))
        bucket = next(iter(inflated["subsystems"]))
        inflated["subsystems"][bucket]["self_pct"] += 10.0
        rows = compare_attribution(baseline, inflated, tolerance_pct=5.0)
        drifted = [row for row in rows if row["drifted"]]
        assert [row["subsystem"] for row in drifted] == [bucket]

    def test_subsystem_appearing_from_nowhere_drifts(self):
        baseline = profiled_run().attribution()
        fresh = json.loads(json.dumps(baseline))
        fresh["subsystems"]["gossip"] = {
            "self": 9, "cum": 9, "self_pct": 6.0, "cum_pct": 6.0}
        rows = compare_attribution(baseline, fresh, tolerance_pct=5.0)
        by_name = {row["subsystem"]: row for row in rows}
        assert by_name["gossip"]["drifted"]
        assert by_name["gossip"]["self_pct_baseline"] == 0.0


class TestBaselineDrift:
    """The profile gate: the ``search`` scenario, replayed with the
    parameters the committed baseline recorded, keeps every
    subsystem's self% and cum% within 5 percentage points of it."""

    def test_search_scenario_matches_the_committed_shares(self):
        path = Path(__file__).resolve().parents[2] / perf.DEFAULT_BASELINE_NAME
        baseline = json.loads(path.read_text(encoding="utf-8"))
        section = baseline["profile"]
        fresh = perf.bench_profile(
            seed=baseline["meta"]["params"]["seed"],
            profile_nodes=section["nodes"],
            profile_searches=section["searches"],
            profile_sample_interval=section["sample_interval"])
        rows = compare_attribution(section, fresh, tolerance_pct=5.0)
        assert [row["subsystem"] for row in rows if row["drifted"]] == [], (
            "these subsystems' CPU shares drifted beyond ±5 pp; fix the "
            "hot path or re-baseline with `python -m repro perf` and say "
            "in the PR why the samples moved")


# -- heap sampling ------------------------------------------------------


class TestHeapSampler:
    def test_windows_at_absolute_boundaries(self):
        simulator = Simulator()
        sampler = HeapSampler(simulator, window_seconds=10.0)
        retained = []
        simulator.schedule_at(
            5.0, lambda: retained.append(bytearray(64_000)))
        sampler.start()
        simulator.run(until=35.0)
        boundaries = [row["when"] for row in sampler.windows]
        sampler.stop()
        assert boundaries == [10.0, 20.0, 30.0]
        assert all(row["subsystems"] for row in sampler.windows)

    def test_snapshot_groups_by_subsystem(self):
        simulator = Simulator()
        sampler = HeapSampler(simulator, window_seconds=10.0)
        sampler.start()
        keep = bytearray(128_000)
        row = sampler.snapshot_now()
        sampler.stop()
        assert keep is not None
        buckets = row["subsystems"]
        assert buckets
        for data in buckets.values():
            assert data["size_bytes"] >= 0 and data["blocks"] >= 0

    def test_snapshot_suspends_the_cpu_hook(self):
        simulator = Simulator()
        profiler = DeterministicProfiler(
            sample_interval=1, stack_roots=("tests.obs.test_profile",))
        sampler = HeapSampler(simulator, window_seconds=10.0)
        sampler.start()
        with profiler:
            before = profiler.call_events
            sampler.snapshot_now()
            after = profiler.call_events
        sampler.stop()
        # tracemalloc processing performs thousands of python calls;
        # only the fixed handful of suspension-preamble frames (the
        # snapshot_now/_grouped_row/getprofile calls themselves) may
        # land in the profiler's event stream.
        assert after - before < 10

    def test_rejects_bad_parameters(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            HeapSampler(simulator, window_seconds=0.0)
        with pytest.raises(ValueError):
            HeapSampler(simulator, retention=0)


# -- chrome merge -------------------------------------------------------


class TestChromeMerge:
    def test_profiler_track_rides_in_its_own_process(self):
        clock = obs.ManualClock()
        profiler = DeterministicProfiler(
            sample_interval=4, clock=clock,
            stack_roots=("tests.obs.test_profile",))
        with profiler:
            churn(40)
        document = json.loads(obs.chrome_trace_with_samples([], profiler))
        events = document["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == len(profiler.timeline)
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert "profiler" in names
        # Counter totals are monotone: the last event carries the
        # full sample count.
        assert sum(counters[-1]["args"].values()) == profiler.samples


# -- output audit -------------------------------------------------------


class TestProfileAudit:
    def test_clean_profile_passes(self):
        profiler = profiled_run()
        violations = obs.audit_profile_output(
            profiler.collapsed_stacks(), profiler.attribution(),
            queries=["flu symptoms treatment"],
            identities=["node003", "user007"])
        assert violations == []

    def test_smuggled_query_text_is_caught(self):
        collapsed = ("repro.core.node:search;"
                     "flu symptoms treatment:leak 3\n")
        violations = obs.audit_profile_output(
            collapsed, {"subsystems": {}},
            queries=["flu symptoms treatment"])
        checks = {violation.check for violation in violations}
        assert checks == {"profile-output"}
        assert len(violations) >= 2  # bad shape AND needle hit

    def test_malformed_line_is_caught(self):
        violations = obs.audit_profile_output(
            "not a stack line\n", {"subsystems": {}}, queries=[])
        assert violations

    def test_unknown_attribution_bucket_is_caught(self):
        profiler = profiled_run()
        attribution = profiler.attribution()
        attribution["subsystems"]["user007-bucket"] = {
            "self": 1, "cum": 1, "self_pct": 1.0, "cum_pct": 1.0}
        violations = obs.audit_profile_output(
            profiler.collapsed_stacks(), attribution, queries=[])
        assert violations

    def test_overflow_pseudo_frame_is_allowed(self):
        violations = obs.audit_profile_output(
            f"{OVERFLOW_FRAME} 5\n", {"subsystems": {}}, queries=[])
        assert violations == []


# -- scenario harness ---------------------------------------------------


class TestScenarios:
    def test_simulator_scenario_is_byte_identical(self):
        from repro.experiments.profiling import run_scenario

        kwargs = dict(seed=3, num_events=2000, chains=4, heap=False)
        first = run_scenario("simulator", **kwargs)
        second = run_scenario("simulator", **kwargs)
        assert first["collapsed"] == second["collapsed"]
        assert first["cpu"] == second["cpu"]
        assert first["cpu"]["samples"] > 0
        assert first["events"] == second["events"] > 0

    def test_byte_identical_despite_foreign_gc_callback(self):
        # Regression: hypothesis (and other harnesses) leave a Python
        # callback in gc.callbacks to time collections. Automatic GC
        # fires on process-lifetime allocation counts, so that callback
        # injects call events at points that differ between two
        # otherwise-identical runs — shifting every later sample.
        # run_scenario must freeze the cycle collector for the
        # measured pass so the contract survives a polluted process.
        import gc

        events = []

        def noisy_callback(phase, info):
            events.append(phase)

        from repro.experiments.profiling import run_scenario

        thresholds = gc.get_threshold()
        gc.callbacks.append(noisy_callback)
        try:
            kwargs = dict(seed=0, nodes=6, searches=2, heap=False)
            # Wildly different thresholds per run: without the freeze
            # the first run would collect (and fire the callback) ~20x
            # more often than the second, guaranteeing divergence.
            gc.set_threshold(50)
            first = run_scenario("search", **kwargs)
            gc.set_threshold(1000)
            second = run_scenario("search", **kwargs)
        finally:
            gc.callbacks.remove(noisy_callback)
            gc.set_threshold(*thresholds)
        assert first["collapsed"] == second["collapsed"]
        assert first["cpu"] == second["cpu"]
        assert gc.isenabled()

    def test_unknown_scenario_raises(self):
        from repro.experiments.profiling import run_scenario

        with pytest.raises(ValueError):
            run_scenario("bogus")

    def test_search_scenario_attributes_and_audits(self):
        from repro.experiments.profiling import run_scenario

        report = run_scenario("search", seed=1, nodes=6, searches=2)
        assert report["ok"] == 2
        subsystems = report["cpu"]["subsystems"]
        # The pipeline genuinely crosses these layers.
        for sub in ("net", "core", "sgx", "crypto"):
            assert sub in subsystems, sub
        assert report["heap"]["windows"], "no heap windows recorded"
        assert obs.audit_profile_output(
            report["collapsed"], report["cpu"],
            report["audit_needles"]) == []
        # The chrome view parses and carries the profiler process.
        document = json.loads(report["chrome"])
        assert any(e.get("args", {}).get("name") == "profiler"
                   for e in document["traceEvents"])


# -- the CLI surface ----------------------------------------------------


class TestCli:
    def test_profile_subcommand_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = str(tmp_path / "profiles")
        code = cli_main(["profile", "simulator", "--events", "2000",
                         "--seed", "3", "--out", out])
        captured = capsys.readouterr().out
        assert code == 0
        assert "profile scenario 'simulator'" in captured
        assert "hottest stacks" in captured
        collapsed = (tmp_path / "profiles"
                     / "simulator-seed3.collapsed").read_text()
        assert parse_collapsed(collapsed)
        cpu = json.loads((tmp_path / "profiles"
                          / "simulator-seed3.cpu.json").read_text())
        assert cpu["samples"] > 0

    def test_profile_subcommand_json_is_deterministic(self, capsys):
        from repro.cli import main as cli_main

        flags = ["profile", "simulator", "--events", "2000", "--json",
                 "--no-write", "--no-heap"]
        assert cli_main(flags) == 0
        first = capsys.readouterr().out
        assert cli_main(flags) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["samples"] > 0

    def test_profile_subcommand_rejects_bad_interval(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["profile", "simulator", "--interval", "0",
                         "--no-write"])
        assert code == 2
        assert "sample_interval" in capsys.readouterr().err
