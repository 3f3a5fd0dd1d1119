"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``                      — list every reproducible experiment.
- ``run <experiment> [...]``    — run one experiment's paper-scale CLI.
- ``all``                       — run every analytic experiment in order.
- ``search <query>``            — one protected search on a demo overlay
  (``--trace`` adds the per-stage latency breakdown).
- ``obs [query]``               — run a traced search and dump the
  observability output (breakdown table, trace JSON-lines, or a
  Prometheus metrics snapshot).
- ``perf``                      — run the pipeline perf benches and
  write the ``BENCH_pipeline.json`` trajectory baseline (see
  ``docs/performance.md``); ``--profile`` adds the deterministic
  subsystem-attribution section.
- ``profile <scenario>``        — deterministic sampling profile of a
  named scenario: per-subsystem CPU/heap attribution, collapsed-stack
  flamegraph files and a chrome-trace view with the sample track
  merged in (see docs/observability.md).
- ``lint [paths...]``           — run the trust-boundary / taint /
  determinism / layering analyzer over ``src/``, incl. the
  whole-program PDG taint pass (``--jobs N`` parallelises per-file
  analysis; see ``docs/static-analysis.md``).
- ``chaos``                     — run the seeded fault-matrix sweep
  over the protected-search pipeline and report success rate /
  retries / latency per cell (see ``docs/robustness.md``).
- ``monitor``                   — run the churn+chaos soak under the
  time-series flight recorder: per-window dashboard, deterministic
  JSON report or OpenMetrics series, plus the SLO burn-rate verdict
  (see ``docs/observability.md``).
- ``scale``                     — run a city-scale churn+chaos overlay
  on the single-heap simulator (default: the 10k-node scenario; see
  ``docs/performance.md``).

Examples::

    python -m repro list
    python -m repro run fig5
    python -m repro search "flu symptoms treatment"
    python -m repro search --trace "flu symptoms treatment"
    python -m repro obs --format prom
    python -m repro perf --output BENCH_pipeline.json
    python -m repro perf --profile
    python -m repro profile search
    python -m repro profile simulator --events 100000 --no-write
    python -m repro lint --baseline
    python -m repro lint --format json src/repro/core
    python -m repro chaos
    python -m repro chaos --cells combo ratelimit-storm --json
    python -m repro monitor
    python -m repro monitor --json
    python -m repro monitor --format openmetrics
    python -m repro scale
    python -m repro scale --nodes 100000 --duration 5
    python -m repro scale --json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List, Optional

#: experiment alias -> (module, description)
EXPERIMENTS: Dict[str, tuple] = {
    "table1": ("repro.experiments.table1_properties",
               "Table I  — property matrix (behavioural probes)"),
    "table2": ("repro.experiments.table2_categorizer",
               "Table II — categorizer precision/recall"),
    "fig5": ("repro.experiments.fig5_reidentification",
             "Fig 5    — re-identification rates"),
    "fig6": ("repro.experiments.fig6_accuracy",
             "Fig 6    — correctness/completeness"),
    "fig7": ("repro.experiments.fig7_adaptive_k",
             "Fig 7    — adaptive-k CDF"),
    "fig8a": ("repro.experiments.fig8a_latency",
              "Fig 8a   — end-to-end latency CDFs"),
    "fig8b": ("repro.experiments.fig8b_k_latency",
              "Fig 8b   — latency vs k"),
    "fig8c": ("repro.experiments.fig8c_throughput",
              "Fig 8c   — throughput/latency saturation"),
    "fig8d": ("repro.experiments.fig8d_ratelimit",
              "Fig 8d   — rate-limit survival"),
    "ablations": ("repro.experiments.ablations",
                  "Ablations — adaptive k, fake source, paths, EPC"),
    "robustness": ("repro.experiments.robustness",
                   "Extension — Byzantine relays and churn"),
    "sweep": ("repro.experiments.sensitivity_sweep",
              "Extension — workload sensitivity sweep (§IX)"),
    "traffic": ("repro.experiments.traffic_analysis",
                "Extension — size-leak quantification (§IV)"),
    "calibration": ("repro.experiments.calibration",
                    "Tooling — generator-knob calibration sweep"),
    "fullstack": ("repro.experiments.fullstack_privacy",
                  "Validation — SimAttack vs the real network stack"),
    "scale": ("repro.experiments.shard_scale",
              "Extension — 10k-node churn+chaos overlay"),
}

#: 'all' runs the cheap analytic experiments; the network-heavy
#: fig8a/fig8b are opt-in by name.
DEFAULT_SEQUENCE = ("table1", "table2", "fig5", "fig6", "fig7",
                    "fig8c", "fig8d", "ablations")


def _cmd_list() -> int:
    print("Reproducible experiments (python -m repro run <name>):\n")
    for alias, (_module, description) in EXPERIMENTS.items():
        print(f"  {alias:<11} {description}")
    return 0


def _cmd_run(names: List[str]) -> int:
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("use `python -m repro list`", file=sys.stderr)
        return 2
    for name in names:
        module_name, _ = EXPERIMENTS[name]
        module = importlib.import_module(module_name)
        module.main()
    return 0


def _cmd_all() -> int:
    return _cmd_run(list(DEFAULT_SEQUENCE))


def _cmd_search(query: str, num_nodes: int, seed: int,
                kmax: Optional[int], trace: bool = False) -> int:
    from repro.core.client import CyclosaNetwork
    from repro.core.config import CyclosaConfig

    config = CyclosaConfig() if kmax is None else CyclosaConfig(kmax=kmax)
    print(f"bootstrapping a {num_nodes}-node overlay (seed {seed})...")
    deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                       config=config, observe=trace)
    result = deployment.node(0).search(query)
    # lint: allow(taint-print) -- echoing the user's own query to their
    # own terminal; nothing wire- or adversary-visible.
    print(f"\nquery     : {query!r}")  # lint: allow(taint-print)
    print(f"status    : {result.status}")
    print(f"fakes (k) : {result.k}")
    print(f"latency   : {result.latency:.3f} s (simulated)")
    print("results   :")
    for url in result.documents:
        print(f"  - {url}")
    print("\nengine observed:")
    for entry in deployment.engine_log[-(result.k + 1):]:
        marker = "fake" if entry.is_fake else "REAL"
        # The demo's point: show the engine-side adversary view (real
        # query hidden among fakes) on the local terminal.
        print(f"  [{marker}] from {entry.identity}: {entry.text}")  # lint: allow(taint-print)
    if trace:
        _print_trace_report(result.trace_id)
    return 0 if result.ok else 1


def _print_trace_report(trace_id: Optional[str]) -> None:
    """Per-stage breakdown + metrics snapshot of an enabled obs run."""
    from repro import obs
    from repro.obs import (format_breakdown, prometheus_snapshot,
                           root_span, stage_breakdown)

    from repro.text.cache import install_metrics

    tracer = obs.get_tracer()
    spans = tracer.sink.spans if tracer is not None else []
    rows = stage_breakdown(spans, trace_id=trace_id)
    root = root_span(spans, trace_id=trace_id)
    print(f"\npipeline trace {trace_id or '(none)'}:")
    total = root.duration if root is not None and root.finished else None
    t0 = root.start if root is not None else None
    print(format_breakdown(rows, total=total, t0=t0))
    print("\nmetrics snapshot:")
    install_metrics(obs.get_registry())  # text-cache gauges in the dump
    print(prometheus_snapshot(obs.get_registry()))


#: Simulated seconds to drive the deployment past the real result, so
#: the fake legs' (late) responses and their relay spans land before
#: the trace is assembled.
_OBS_DRAIN_SECONDS = 60.0


def _cmd_obs(query: str, num_nodes: int, seed: int, fmt: str,
             run_audit: bool = False) -> int:
    """Run one traced search and dump observability output."""
    from repro.core.client import CyclosaNetwork

    deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                       observe=True)
    from repro import obs

    if run_audit:
        report = obs.run_telemetry_audit(
            deployment, [query], drain_seconds=_OBS_DRAIN_SECONDS)
        print(report.format())
        return 0 if report.ok else 1

    result = deployment.node(0).search(query)
    from repro.obs import (chrome_trace, format_breakdown,
                           prometheus_snapshot, root_span,
                           stage_breakdown, trace_to_jsonl)

    tracer = obs.get_tracer()
    spans = tracer.sink.spans if tracer is not None else []
    if fmt == "jsonl":
        deployment.run(_OBS_DRAIN_SECONDS)
        if result.trace_id is not None:
            spans = deployment.assembled_trace(result.trace_id).spans
        else:
            spans = tracer.sink.spans + obs.OBS.router.all_spans()
        print(trace_to_jsonl(spans))
    elif fmt == "prom":
        from repro.text.cache import install_metrics

        install_metrics(obs.get_registry())
        print(prometheus_snapshot(obs.get_registry()), end="")
    elif fmt == "chrome":
        deployment.run(_OBS_DRAIN_SECONDS)
        if result.trace_id is not None:
            spans = deployment.assembled_trace(result.trace_id).spans
        else:
            spans = tracer.sink.spans + obs.OBS.router.all_spans()
        print(chrome_trace(spans))
    elif fmt == "critical":
        deployment.run(_OBS_DRAIN_SECONDS)
        if result.trace_id is None:
            print("(no trace id — was observability enabled?)")
            return 1
        assembled = deployment.assembled_trace(result.trace_id)
        print(f"query  : {query!r}  (status {result.status}, "  # lint: allow(taint-print) -- own terminal
              f"k={result.k}, seed {seed})")
        print(obs.format_report(obs.critical_path(assembled)))
        summaries = obs.relay_latency_summaries(obs.OBS.router.all_spans())
        stragglers = obs.find_stragglers(summaries)
        if stragglers:
            print("stragglers     : " + ", ".join(stragglers)
                  + "  (candidate §VI-b blacklist)")
    else:  # table
        print(f"query  : {query!r}  (status {result.status}, "  # lint: allow(taint-print) -- own terminal
              f"k={result.k}, seed {seed})")
        rows = stage_breakdown(spans, trace_id=result.trace_id)
        root = root_span(spans, trace_id=result.trace_id)
        total = root.duration if root is not None and root.finished else None
        t0 = root.start if root is not None else None
        print(format_breakdown(rows, total=total, t0=t0))
    return 0 if result.ok else 1


def _cmd_perf(args) -> int:
    """Run the pipeline perf benches; merge them into the trajectory
    baseline."""
    import os

    from repro import perf

    only = None
    if args.only:
        only = [name for entry in args.only
                for name in entry.split(",") if name]
    overrides = dict(
        history_size=args.history, probes=args.probes,
        num_events=args.events, num_nodes=args.nodes,
        searches=args.searches, monitor_windows=args.monitor_windows,
        engine_queries=args.engine_queries,
        engine_docs_per_topic=args.engine_docs_per_topic,
        scale_nodes=args.scale_nodes, scale_duration=args.scale_duration,
        seed=args.seed)
    existing = None
    if not args.no_write and os.path.exists(args.output):
        existing = perf.load_baseline(args.output)
    try:
        if existing is not None:
            # Fail before measuring: the merge below would refuse.
            perf.merge_params(existing, perf.resolve_params(**overrides))
        results = perf.run_all(only=only, profile=args.profile, **overrides)
    except ValueError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    print(perf.format_report(results))
    if not args.no_write:
        # Skipped sections (e.g. `profile`, or everything outside
        # --only) keep their committed numbers.
        perf.write_baseline(
            results if existing is None
            else perf.merge_baseline(existing, results), args.output)
        print(f"\nwrote {args.output}")
    sens = results.get("sensitivity")
    if sens is not None and not sens["scores_bit_identical"]:
        print("ERROR: indexed linkability diverged from the linear scan",
              file=sys.stderr)
        return 1
    scaling = results.get("engine_scaling")
    if scaling is not None and not scaling["sharded_identical"]:
        print("ERROR: sharded engine results diverged from the "
              "unsharded baseline", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    """Profile a named scenario; print and write the deterministic
    attribution artifacts."""
    import os

    from repro import obs
    from repro.experiments import profiling

    try:
        report = profiling.run_scenario(
            args.scenario, seed=args.seed, nodes=args.nodes,
            searches=args.searches, sample_interval=args.interval,
            window_seconds=args.window, heap=not args.no_heap,
            num_events=args.events, monitor_seconds=args.monitor_seconds)
    except ValueError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2

    # The profile must be shareable: refuse to print or write anything
    # that fails the code-locations-only audit.
    violations = obs.audit_profile_output(
        report["collapsed"], report["cpu"], report["audit_needles"])
    if violations:
        print("ERROR: profile output failed the privacy audit:",
              file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1

    cpu = report["cpu"]
    if args.json:
        import json as _json

        print(_json.dumps(cpu, sort_keys=True, indent=2))
    else:
        print(f"profile scenario {args.scenario!r} "
              f"(seed {args.seed}, 1 sample / {args.interval} call events)")
        print(obs.format_attribution(cpu))
        stacks = obs.parse_collapsed(report["collapsed"])
        if stacks:
            print(f"\nhottest stacks (top {args.top}, leaf first):")
            print(obs.top_stacks(stacks, limit=args.top))
        final = report["heap"]["final"]
        if final is not None:
            print("\nlive heap by subsystem (end of run):")
            for sub, row in sorted(
                    final["subsystems"].items(),
                    key=lambda item: -item[1]["size_bytes"]):
                print(f"  {sub:<14} {row['size_bytes'] / 1024.0:>10.1f} KiB "
                      f"in {row['blocks']} blocks")

    if not args.no_write:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, f"{args.scenario}-seed{args.seed}")
        import json as _json

        with open(f"{base}.collapsed", "w", encoding="utf-8") as handle:
            handle.write(report["collapsed"])
        with open(f"{base}.cpu.json", "w", encoding="utf-8") as handle:
            handle.write(_json.dumps(cpu, sort_keys=True, indent=2) + "\n")
        written = [f"{base}.collapsed", f"{base}.cpu.json"]
        if report["heap"]["windows"] or report["heap"]["final"]:
            with open(f"{base}.heap.json", "w", encoding="utf-8") as handle:
                handle.write(_json.dumps(report["heap"], sort_keys=True,
                                         indent=2) + "\n")
            written.append(f"{base}.heap.json")
        if report["chrome"] is not None:
            with open(f"{base}.chrome.json", "w", encoding="utf-8") as handle:
                handle.write(report["chrome"] + "\n")
            written.append(f"{base}.chrome.json")
        print("\nwrote " + ", ".join(written))
    return 0


def _cmd_lint(args) -> int:
    """Run the static analyzer; exit 1 on non-baselined findings."""
    from pathlib import Path

    from repro.lint import (default_root, findings_to_json, format_baseline,
                            format_text, load_baseline, run_lint)
    from repro.lint.baseline import DEFAULT_BASELINE_NAME

    root = Path(args.root).resolve() if args.root else default_root()
    paths = [Path(p) for p in args.paths] or None
    findings = run_lint(root=root, paths=paths, jobs=args.jobs)

    if args.write_baseline:
        target = Path(args.baseline or DEFAULT_BASELINE_NAME)
        target.write_text(format_baseline(findings), encoding="utf-8")
        print(f"wrote {len(findings)} entr{'y' if len(findings) == 1 else 'ies'}"
              f" to {target} (fill in the JUSTIFY comments)")
        return 0

    baseline = None
    if args.baseline is not None or args.use_baseline:
        baseline_path = Path(args.baseline or DEFAULT_BASELINE_NAME)
        try:
            baseline = load_baseline(baseline_path)
        except FileNotFoundError:
            print(f"baseline file not found: {baseline_path}",
                  file=sys.stderr)
            return 2

    if baseline is not None:
        fresh, grandfathered = baseline.apply(findings)
    else:
        fresh, grandfathered = list(findings), []

    if args.format == "json":
        print(findings_to_json(fresh))
    else:
        print(format_text(fresh))
        if grandfathered:
            print(f"({len(grandfathered)} baselined finding"
                  f"{'s' if len(grandfathered) != 1 else ''} suppressed)")
        if baseline is not None:
            stale = baseline.stale_entries(findings)
            if stale:
                print(f"note: {len(stale)} stale baseline entr"
                      f"{'ies' if len(stale) != 1 else 'y'} "
                      "(fixed — remove from the baseline):")
                for rule, path, _message in stale:
                    print(f"  {rule}\t{path}")
    return 1 if fresh else 0


def _cmd_chaos(args) -> int:
    """Run the fault-matrix sweep; exit 1 on any broken invariant."""
    from repro.faults import chaos

    if args.list_cells:
        for cell in chaos.default_matrix():
            print(f"  {cell.name:<20} {cell.description}")
        return 0
    cells = chaos.matrix_cells(args.cells or None,
                               plan_seed=args.plan_seed)
    report = chaos.run_matrix(cells, num_nodes=args.nodes,
                              num_queries=args.queries, seed=args.seed,
                              k=args.k)
    if args.json:
        print(chaos.report_json(report))
    else:
        print(f"fault matrix: {args.nodes} nodes, "
              f"{args.queries} queries/cell, seed {args.seed}, "
              f"k={args.k}\n")
        print(chaos.format_report(report))
    broken = [row["cell"] for row in report["cells"]
              if row["hung_searches"] or row["disjointness_violations"]]
    if broken:
        print(f"\nBROKEN INVARIANT in: {', '.join(broken)} "
              "(hung search or relay-disjointness violation)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_monitor(args) -> int:
    """Run the churn+chaos soak under the flight recorder."""
    from repro.experiments import monitor

    profiler = None
    if args.profile:
        from repro import obs

        profiler = obs.DeterministicProfiler(sample_interval=256)
    report = monitor.run_scenario(
        num_nodes=args.nodes, seed=args.seed, plan_seed=args.plan_seed,
        duration=args.duration, window_seconds=args.window,
        query_interval=args.interval, clients=args.clients, k=args.k,
        profiler=profiler)
    if args.format == "json":
        print(monitor.report_json(report))
    elif args.format == "openmetrics":
        from repro import obs

        windows = _windows_from_report(report)
        print(obs.openmetrics_timeseries(windows), end="")
    else:
        print(monitor.format_dashboard(report))
        if profiler is not None:
            from repro import obs

            print("\nCPU attribution (traffic + drain phase):")
            print(obs.format_attribution(report["profile"]))
    if report["traffic"]["hung_searches"]:
        print(f"\nBROKEN INVARIANT: "
              f"{report['traffic']['hung_searches']} hung searches",
              file=sys.stderr)
        return 1
    if args.strict and report["slo"]["verdict"] != "ok":
        return 1
    return 0


def _cmd_scale(args) -> int:
    """Run the churn+chaos scale scenario."""
    from repro.experiments import shard_scale

    try:
        report = shard_scale.run(
            num_nodes=args.nodes, duration=args.duration, seed=args.seed,
            fanout=args.fanout, query_interval=args.interval,
            response_drop=args.drop, churn_fraction=args.churn)
    except ValueError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(shard_scale.report_json(report))
    else:
        print(shard_scale.format_report(report))
    return 0


def _windows_from_report(report) -> list:
    """Rebuild Window rows from a report's window dicts (CLI-side glue
    so the OpenMetrics dump reuses the one exporter)."""
    from repro import obs

    windows = []
    for row in report["windows"]:
        windows.append(obs.Window(
            index=row["index"], start=row["start"], end=row["end"],
            counters=row["counters"], cumulative=row["cumulative"],
            gauges=row["gauges"],
            histograms={
                key: obs.WindowHistogram(
                    count=value["count"], sum=value["sum"], buckets=(),
                    quantiles={name: number
                               for name, number in value.items()
                               if name not in ("count", "sum")})
                for key, value in row["histograms"].items()}))
    return windows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CYCLOSA reproduction — experiments and demos")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list experiments")

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument("names", nargs="+",
                            help="experiment aliases (see `list`)")

    subparsers.add_parser("all", help="run the full analytic sequence")

    search_parser = subparsers.add_parser(
        "search", help="one protected search on a demo overlay")
    search_parser.add_argument("query")
    search_parser.add_argument("--nodes", type=int, default=16)
    search_parser.add_argument("--seed", type=int, default=7)
    search_parser.add_argument("--kmax", type=int, default=None)
    search_parser.add_argument(
        "--trace", action="store_true",
        help="enable repro.obs and print the per-stage latency "
             "breakdown plus a Prometheus metrics snapshot")

    obs_parser = subparsers.add_parser(
        "obs", help="run a traced search and dump observability output")
    obs_parser.add_argument("query", nargs="?",
                            default="flu symptoms treatment")
    obs_parser.add_argument("--nodes", type=int, default=16)
    obs_parser.add_argument("--seed", type=int, default=7)
    obs_parser.add_argument(
        "--format",
        choices=("table", "jsonl", "prom", "chrome", "critical"),
        default="table",
        help="table = per-stage breakdown, jsonl = assembled distributed "
             "trace dump, prom = Prometheus text snapshot, chrome = "
             "Chrome trace-event JSON (load in chrome://tracing or "
             "Perfetto), critical = cross-node critical-path report")
    obs_parser.add_argument(
        "--audit", action="store_true",
        help="run the telemetry privacy audit instead: wiretap the "
             "deployment, issue the query, and verify no trace ids or "
             "query text leak into wire metadata or span attributes")

    perf_parser = subparsers.add_parser(
        "perf", help="run the pipeline perf benches and write the "
                     "BENCH_pipeline.json trajectory baseline")
    perf_parser.add_argument("--history", type=int, default=None,
                             help="linkability history size (default 10000)")
    perf_parser.add_argument("--probes", type=int, default=None,
                             help="probe queries per pass (default 200)")
    perf_parser.add_argument("--events", type=int, default=None,
                             help="simulator events (default 200000)")
    perf_parser.add_argument("--nodes", type=int, default=None,
                             help="overlay size (default 16)")
    perf_parser.add_argument("--searches", type=int, default=None,
                             help="end-to-end searches (default 25)")
    perf_parser.add_argument("--monitor-windows", type=int, default=None,
                             help="flight-recorder flush windows "
                                  "(default 400)")
    perf_parser.add_argument("--engine-queries", type=int, default=None,
                             help="queries fired at the engine tier in "
                                  "the scale-out bench (default 400)")
    perf_parser.add_argument("--engine-docs-per-topic", type=int,
                             default=None,
                             help="corpus size knob for the engine "
                                  "scale-out bench (default 6000)")
    perf_parser.add_argument("--scale-nodes", type=int, default=None,
                             help="overlay size of the churn+chaos scale "
                                  "run (default 5000)")
    perf_parser.add_argument("--scale-duration", type=float, default=None,
                             help="simulated seconds of the scale run "
                                  "(default 5)")
    perf_parser.add_argument("--seed", type=int, default=None)
    perf_parser.add_argument(
        "--only", action="append", default=None, metavar="SECTION",
        help="run only these bench sections (repeatable or "
             "comma-separated; known: sensitivity, simulator, search, "
             "engine_scaling, scale, monitor, lint, profile)")
    perf_parser.add_argument(
        "--profile", action="store_true",
        help="include the deterministic-profiler attribution section "
             "(excluded from default runs; implies nothing about the "
             "other sections)")
    perf_parser.add_argument("--output", default="BENCH_pipeline.json",
                             help="baseline path (default "
                                  "./BENCH_pipeline.json); an existing "
                                  "file is merged into: sections this "
                                  "run skips stay, and a param both "
                                  "hold with different values exits 2")
    perf_parser.add_argument("--no-write", action="store_true",
                             help="print the report without writing the file")

    profile_parser = subparsers.add_parser(
        "profile", help="run a seeded scenario under the deterministic "
                        "sampling profiler and report per-subsystem "
                        "CPU/heap attribution (docs/observability.md)")
    profile_parser.add_argument(
        "scenario", nargs="?", default="search",
        choices=("search", "simulator", "sensitivity", "monitor"),
        help="workload to profile (default: search)")
    profile_parser.add_argument("--seed", type=int, default=0,
                                help="workload seed (default 0)")
    profile_parser.add_argument("--nodes", type=int, default=8,
                                help="overlay size for search/monitor "
                                     "scenarios (default 8)")
    profile_parser.add_argument("--searches", type=int, default=6,
                                help="protected searches in the search "
                                     "scenario (default 6)")
    profile_parser.add_argument("--interval", type=int, default=256,
                                help="sample every Nth call event "
                                     "(default 256)")
    profile_parser.add_argument("--window", type=float, default=5.0,
                                help="heap-snapshot window in simulated "
                                     "seconds (default 5)")
    profile_parser.add_argument("--events", type=int, default=30000,
                                help="events for the simulator scenario "
                                     "(default 30000)")
    profile_parser.add_argument("--monitor-seconds", type=float,
                                default=60.0,
                                help="traffic duration for the monitor "
                                     "scenario (default 60)")
    profile_parser.add_argument("--no-heap", action="store_true",
                                help="skip tracemalloc heap snapshots")
    profile_parser.add_argument("--top", type=int, default=5,
                                help="hottest stacks to print (default 5)")
    profile_parser.add_argument(
        "--json", action="store_true",
        help="print the CPU attribution JSON (byte-identical for "
             "identical arguments) instead of the table")
    profile_parser.add_argument("--out", default="profiles",
                                help="directory for the collapsed-stack / "
                                     "attribution / chrome-trace artifacts "
                                     "(default ./profiles)")
    profile_parser.add_argument("--no-write", action="store_true",
                                help="print the report without writing "
                                     "artifact files")

    lint_parser = subparsers.add_parser(
        "lint", help="trust-boundary / taint / determinism / layering "
                     "static analysis over src/ (docs/static-analysis.md)")
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: all of src/repro)")
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text = human-readable findings, json = machine-readable")
    lint_parser.add_argument(
        "--baseline", nargs="?", const="", default=None, metavar="FILE",
        help="suppress findings recorded in the baseline file "
             "(default ./lint-baseline.txt when FILE is omitted)")
    lint_parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings as a new baseline file and exit")
    lint_parser.add_argument(
        "--root", default=None,
        help="source root to lint instead of the installed src/ tree")
    lint_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan per-file analysis out over N worker processes "
             "(findings are byte-identical for any N)")

    chaos_parser = subparsers.add_parser(
        "chaos", help="run the seeded fault-matrix sweep over the "
                      "protected-search pipeline (docs/robustness.md)")
    chaos_parser.add_argument(
        "--cells", nargs="*", default=None, metavar="CELL",
        help="cells to run (default: the whole matrix; "
             "see --list-cells)")
    chaos_parser.add_argument("--list-cells", action="store_true",
                              help="list the matrix cells and exit")
    chaos_parser.add_argument("--nodes", type=int, default=10,
                              help="overlay size per cell (default 10)")
    chaos_parser.add_argument("--queries", type=int, default=6,
                              help="protected searches per cell "
                                   "(default 6)")
    chaos_parser.add_argument("--seed", type=int, default=7,
                              help="deployment seed (default 7)")
    chaos_parser.add_argument("--plan-seed", type=int, default=0,
                              help="fault-plan seed (default 0)")
    chaos_parser.add_argument("--k", type=int, default=2,
                              help="fake queries per search (default 2)")
    chaos_parser.add_argument(
        "--json", action="store_true",
        help="emit the deterministic per-cell JSON report instead of "
             "the table (byte-identical for identical arguments)")

    monitor_parser = subparsers.add_parser(
        "monitor", help="run the churn+chaos soak under the time-series "
                        "flight recorder and report SLO health "
                        "(docs/observability.md)")
    monitor_parser.add_argument("--nodes", type=int, default=12,
                                help="overlay size (default 12)")
    monitor_parser.add_argument("--clients", type=int, default=4,
                                help="nodes issuing searches (default 4)")
    monitor_parser.add_argument("--seed", type=int, default=11,
                                help="deployment seed (default 11)")
    monitor_parser.add_argument("--plan-seed", type=int, default=3,
                                help="fault-plan seed (default 3)")
    monitor_parser.add_argument("--duration", type=float, default=200.0,
                                help="traffic duration in simulated "
                                     "seconds (default 200)")
    monitor_parser.add_argument("--window", type=float, default=10.0,
                                help="aggregation window width in "
                                     "simulated seconds (default 10)")
    monitor_parser.add_argument("--interval", type=float, default=2.0,
                                help="seconds between searches (default 2)")
    monitor_parser.add_argument("--k", type=int, default=2,
                                help="fake queries per search (default 2)")
    monitor_parser.add_argument(
        "--format", choices=("dash", "json", "openmetrics"),
        default="dash",
        help="dash = per-window terminal dashboard, json = the "
             "deterministic report (byte-identical for identical "
             "arguments), openmetrics = the windowed series as "
             "OpenMetrics text with timestamps")
    monitor_parser.add_argument(
        "--json", dest="format", action="store_const", const="json",
        help="shorthand for --format json")
    monitor_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the SLO verdict is breached (hung searches "
             "always exit 1)")
    monitor_parser.add_argument(
        "--profile", action="store_true",
        help="run the soak under the deterministic profiler and append "
             "the per-subsystem CPU attribution (dash format only; the "
             "json report gains a 'profile' section)")

    scale_parser = subparsers.add_parser(
        "scale", help="run a city-scale churn+chaos overlay "
                      "(docs/performance.md)")
    scale_parser.add_argument("--nodes", type=int, default=10_000,
                              help="overlay size (default 10000)")
    scale_parser.add_argument("--duration", type=float, default=20.0,
                              help="simulated seconds (default 20)")
    scale_parser.add_argument("--seed", type=int, default=0,
                              help="run seed (default 0)")
    scale_parser.add_argument("--fanout", type=int, default=3,
                              help="peers queried per round (default 3)")
    scale_parser.add_argument("--interval", type=float, default=1.0,
                              help="seconds between query rounds "
                                   "(default 1.0)")
    scale_parser.add_argument("--drop", type=float, default=0.05,
                              help="chaos: probability a peer eats a "
                                   "query (default 0.05)")
    scale_parser.add_argument("--churn", type=float, default=0.10,
                              help="fraction of nodes that crash "
                                   "mid-run (default 0.10)")
    scale_parser.add_argument(
        "--json", action="store_true",
        help="emit the deterministic report JSON (wall-clock fields "
             "stripped; byte-identical for identical arguments)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.names)
    if args.command == "all":
        return _cmd_all()
    if args.command == "search":
        return _cmd_search(args.query, args.nodes, args.seed, args.kmax,
                           trace=args.trace)
    if args.command == "obs":
        return _cmd_obs(args.query, args.nodes, args.seed, args.format,
                        run_audit=args.audit)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "lint":
        args.use_baseline = args.baseline is not None
        if args.baseline == "":
            args.baseline = None
            args.use_baseline = True
        return _cmd_lint(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "scale":
        return _cmd_scale(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    sys.exit(main())
