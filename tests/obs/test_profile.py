"""The deterministic profiler: byte-identity, exact call-event counts,
subsystem attribution, bounded structures, heap windows and the output
audit.

The profiler's one non-negotiable property is that two same-seed runs
of the same workload produce *byte-identical* collapsed stacks and
attribution JSON — that is what lets the profile gate
(:class:`TestBaselineDrift`) require every subsystem's self count to
equal the ``profile`` section of the committed ``BENCH_pipeline.json``.
Everything else (mapping rules, caps, the privacy audit) supports that
contract."""

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


def squares(n: int):
    for value in range(n):
        yield fib(value % 5)


def fails_on_thirds(value: int) -> int:
    if value % 3 == 0:
        raise ValueError(value)
    return fib(value % 4)


def resumes_the_hook(hook) -> int:
    sys.setprofile(hook)
    return fib(3)


def suspends_the_hook() -> int:
    """Takes the hook off; a callee the hook never sees puts it back."""
    hook = sys.getprofile()
    sys.setprofile(None)
    return resumes_the_hook(hook) + fib(2)


def mixed(rounds: int) -> int:
    """Generators resumed from C, exceptions, C calling back into
    Python and a hook put back one frame deeper than it was taken off:
    the cases where calls and returns do not nest plainly."""
    total = sum(squares(rounds)) + suspends_the_hook()
    for value in range(rounds):
        try:
            total += fails_on_thirds(value)
        except ValueError:
            total += 1
    return total + len(sorted(range(rounds), key=lambda v: fib(v % 4)))


def walked_stacks(workload) -> dict:
    """Reference stacks of every call event under ``mixed``, each taken
    by walking ``f_back`` from the called frame up to ``mixed``."""
    stacks: dict = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        labels = []
        cursor = frame
        while cursor is not None:
            code = cursor.f_code
            qualname = getattr(code, "co_qualname", code.co_name)
            labels.append(f"{cursor.f_globals['__name__']}:{qualname}")
            if code is mixed.__code__:
                stack = tuple(reversed(labels))
                stacks[stack] = stacks.get(stack, 0) + 1
                return
            cursor = cursor.f_back

    sys.setprofile(hook)
    try:
        workload()
    finally:
        sys.setprofile(None)
    return stacks


def fib_calls(n: int) -> int:
    """How many times ``fib(n)`` calls ``fib``, itself included."""
    return 1 if n < 2 else 1 + fib_calls(n - 1) + fib_calls(n - 2)


def profiled_run(rounds: int = 200):
    profiler = DeterministicProfiler(stack_roots=("tests.obs.test_profile",))
    with profiler:
        churn(rounds)
    return profiler


def drift_message(moved) -> str:
    """The profile gate's failure message for a compare_attribution
    result: each moved subsystem with its committed and fresh counts."""
    lines = [f"  {sub}: {before} → {after} ({after - before:+d})"
             for sub, (before, after) in moved.items()]
    return ("self call-event counts moved against BENCH_pipeline.json:\n"
            + "\n".join(lines) + "\nFix the layer, or re-take the "
            "baseline with `PYTHONPATH=src python -m repro perf` and say "
            "in CHANGES.md why that layer's work moved.")


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


# -- core counting ------------------------------------------------------


class TestSampling:
    def test_rejects_bad_parameters(self):
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

    def test_counts_every_call_event(self):
        profiler = profiled_run(rounds=200)
        assert sum(profiler.stacks.values()) == profiler.call_events
        fib_events = sum(count for stack, count in profiler.stacks.items()
                         if stack[-1] == "tests.obs.test_profile:fib")
        assert fib_events == sum(fib_calls(value % 10)
                                 for value in range(200))

    def test_stacks_equal_a_walk_of_the_frames(self):
        # Each call's stack extends its caller's entry; it must equal
        # the stack a full walk of f_back gives, for every event.
        profiler = DeterministicProfiler(
            stack_roots=("tests.obs.test_profile",))
        with profiler:
            mixed(30)
        counted = {}
        for stack, count in profiler.stacks.items():
            if "tests.obs.test_profile:mixed" in stack:
                below = stack[stack.index("tests.obs.test_profile:mixed"):]
                counted[below] = counted.get(below, 0) + count
        assert counted == walked_stacks(lambda: mixed(30))
        assert len(counted) > 5

    def test_same_workload_is_byte_identical(self):
        first = profiled_run()
        second = profiled_run()
        assert first.collapsed_stacks() == second.collapsed_stacks()
        assert first.attribution() == second.attribution()
        assert first.call_events > 0

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
            == attribution["call_events"]
        for row in rows.values():
            assert row["cum"] >= row["self"]

    def test_distinct_stack_cap_overflows_gracefully(self):
        profiler = DeterministicProfiler(
            max_stacks=2, stack_roots=("tests.obs.test_profile",))
        with profiler:
            churn(60)
        assert profiler.stack_overflows > 0
        assert (OVERFLOW_FRAME,) in profiler.stacks
        assert sum(profiler.stacks.values()) == profiler.call_events

    def test_max_depth_counts_truncated_stacks(self):
        profiler = DeterministicProfiler(max_depth=3,
                                         stack_roots=("nomatch",))
        with profiler:
            fib(12)
        assert profiler.truncated > 0
        assert all(len(stack) <= 3 for stack in profiler.stacks)


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
        assert attribution["subsystems"]
        assert compare_attribution(attribution, attribution) == {}

    def test_inflated_subsystem_drifts(self):
        baseline = profiled_run().attribution()
        inflated = json.loads(json.dumps(baseline))
        bucket = next(iter(inflated["subsystems"]))
        before = baseline["subsystems"][bucket]["self"]
        # No tolerance: one more call event is a move.
        inflated["subsystems"][bucket]["self"] += 1
        assert compare_attribution(baseline, inflated) \
            == {bucket: (before, before + 1)}

    def test_subsystem_appearing_from_nowhere_drifts(self):
        baseline = profiled_run().attribution()
        fresh = json.loads(json.dumps(baseline))
        fresh["subsystems"]["gossip"] = {"self": 9, "cum": 9}
        assert compare_attribution(baseline, fresh) == {"gossip": (0, 9)}

    def test_cum_moves_are_not_gated(self):
        baseline = profiled_run().attribution()
        fresh = json.loads(json.dumps(baseline))
        for row in fresh["subsystems"].values():
            row["cum"] += 7
        assert compare_attribution(baseline, fresh) == {}

    def test_drift_message_names_counts_and_the_command(self):
        message = drift_message({"gossip": (8307, 7071),
                                 "searchengine": (1203, 1355)})
        assert "gossip: 8307 → 7071 (-1236)" in message
        assert "searchengine: 1203 → 1355 (+152)" in message
        assert "python -m repro perf" in message


class TestBaselineDrift:
    """The profile gate: the ``search`` scenario, replayed with the
    parameters the committed baseline recorded, charges every
    subsystem exactly the self call-event count the baseline holds."""

    def test_search_scenario_matches_the_committed_shares(self):
        path = Path(__file__).resolve().parents[2] / perf.DEFAULT_BASELINE_NAME
        baseline = json.loads(path.read_text(encoding="utf-8"))
        section = baseline["profile"]
        fresh = perf.bench_profile(
            seed=baseline["meta"]["params"]["seed"],
            profile_nodes=section["nodes"],
            profile_searches=section["searches"])
        moved = compare_attribution(section, fresh)
        assert moved == {}, drift_message(moved)


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
            stack_roots=("tests.obs.test_profile",))
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

#: A small search scenario: 6 nodes, 2 searches.
SMALL_SEARCH = dict(seed=0, nodes=6, searches=2, heap=False)


@pytest.fixture(scope="module")
def small_search():
    """One clean profile of :data:`SMALL_SEARCH`, the reference the
    polluted-process and seeded-fault runs are compared with."""
    from repro.experiments.profiling import run_scenario

    return run_scenario("search", **SMALL_SEARCH)


class TestScenarios:
    def test_simulator_scenario_is_byte_identical(self):
        from repro.experiments.profiling import run_scenario

        kwargs = dict(seed=3, num_events=2000, chains=4, heap=False)
        first = run_scenario("simulator", **kwargs)
        second = run_scenario("simulator", **kwargs)
        assert first["collapsed"] == second["collapsed"]
        assert first["cpu"] == second["cpu"]
        assert first["cpu"]["call_events"] > 0
        assert first["events"] == second["events"] > 0

    def test_byte_identical_despite_foreign_gc_callback(self,
                                                         small_search):
        # Regression: hypothesis (and other harnesses) leave a Python
        # callback in gc.callbacks to time collections. Automatic GC
        # fires on process-lifetime allocation counts, so that callback
        # injects call events at points that differ between two
        # otherwise-identical runs — changing the counts.
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
            # Without the freeze, this run would collect (and fire the
            # callback) many times more often than the clean reference
            # run, guaranteeing divergence.
            gc.set_threshold(50)
            polluted = run_scenario("search", **SMALL_SEARCH)
        finally:
            gc.callbacks.remove(noisy_callback)
            gc.set_threshold(*thresholds)
        assert polluted["collapsed"] == small_search["collapsed"]
        assert polluted["cpu"] == small_search["cpu"]
        assert gc.isenabled()

    def test_monitor_scenario_stacks_start_at_the_scenario(self):
        # `repro profile monitor` profiles the SLO soak: every stack is
        # rooted at the scenario runner, with no launcher frame above it.
        from repro.experiments.profiling import run_scenario

        report = run_scenario("monitor", seed=0, nodes=6,
                              monitor_seconds=10.0, heap=False,
                              warmup=False)
        stacks = parse_collapsed(report["collapsed"])
        assert stacks and report["issued"] > 0
        assert all(stack[0].startswith("repro.experiments.profiling:")
                   for stack in stacks)
        assert "cli" not in report["cpu"]["subsystems"]

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

    def test_doubled_text_work_is_named_text(self, small_search,
                                             monkeypatch):
        # A seeded fault: the engine tokenises every query twice. The
        # exact comparison names `text`, and anything else it names is
        # the wrapper's own frames (this module maps to `stdlib`).
        from repro.experiments.profiling import run_scenario
        from repro.searchengine import engine

        baseline = small_search["cpu"]
        tokenize = engine.tokenize

        def tokenize_twice(*args, **kw):
            tokenize(*args, **kw)
            return tokenize(*args, **kw)

        monkeypatch.setattr(engine, "tokenize", tokenize_twice)
        report = run_scenario("search", **SMALL_SEARCH)
        moved = compare_attribution(baseline, report["cpu"])
        assert "text" in moved, drift_message(moved)
        # Every text call event under the engine's tokenize happens
        # twice now, and no other text work moved.
        engine_text_events = sum(
            count for stack, count
            in parse_collapsed(small_search["collapsed"]).items()
            if "repro.searchengine.engine:query_plan" in stack
            and stack[-1].startswith("repro.text."))
        assert engine_text_events > 0
        before, after = moved.pop("text")
        assert after - before == engine_text_events
        wrapper_events = sum(
            count for stack, count
            in parse_collapsed(report["collapsed"]).items()
            if stack[-1].endswith(".tokenize_twice"))
        assert wrapper_events > 0
        assert moved == {"stdlib": (baseline["subsystems"]["stdlib"]["self"],
                                    baseline["subsystems"]["stdlib"]["self"]
                                    + wrapper_events)}


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
        assert cpu["call_events"] > 0

    def test_profile_subcommand_json_is_deterministic(self, capsys):
        from repro.cli import main as cli_main

        flags = ["profile", "simulator", "--events", "2000", "--json",
                 "--no-write", "--no-heap"]
        assert cli_main(flags) == 0
        first = capsys.readouterr().out
        assert cli_main(flags) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["call_events"] > 0
