"""``repro.obs`` — the repository's single observability idiom.

End-to-end tracing (per-query spans), a process-global metrics
registry (counters / gauges / fixed-bucket histograms) and exporters
(JSON-lines traces, Prometheus text snapshots) shared by every layer:
``core``, ``sgx``, ``net``, ``searchengine``, ``gossip``, the
experiments and the CLI.

Design rules:

- **Off by default, near-zero when off.** Instrumented call sites
  guard on ``OBS.enabled`` — one attribute read — and touch nothing
  else when disabled. The ``benchmarks/test_bench_obs_overhead.py``
  micro-benchmark asserts the guard overhead on
  ``CyclosaUser.search`` stays under 5 %.
- **One clock per mode.** :func:`enable` binds the tracer to the
  discrete-event simulator when one is passed (simulated seconds) and
  to ``perf_counter`` otherwise, so traces are correct in both modes.
- **Everything bounded.** The span sink is a ring buffer; histograms
  keep a bounded reservoir; nothing here grows without limit.

Usage::

    from repro import obs

    deployment = CyclosaNetwork.create(num_nodes=16, observe=True)
    result = deployment.node(0).search("flu symptoms")
    print(obs.breakdown.format_breakdown(
        obs.breakdown.stage_breakdown(obs.OBS.tracer.sink.spans,
                                      result.trace_id)))
    print(obs.export.prometheus_snapshot(obs.OBS.registry))
"""

from __future__ import annotations

from contextlib import contextmanager as _contextmanager
from typing import Optional

from repro.obs import (audit, breakdown, clock, criticalpath, distributed,
                       export, metrics, profile, sinks, slo, timeseries,
                       trace)
from repro.obs.audit import (AuditReport, AuditViolation,
                             audit_cache_indistinguishability,
                             audit_profile_output, run_telemetry_audit)
from repro.obs.breakdown import (PIPELINE_STAGES, format_breakdown,
                                 root_span, split_engine_service,
                                 stage_breakdown)
from repro.obs.clock import Clock, ManualClock, SimulatedClock, WallClock
from repro.obs.criticalpath import (CriticalPathReport, critical_path,
                                    find_stragglers, format_report,
                                    relay_latency_summaries)
from repro.obs.distributed import (AssembledTrace, SpanRouter, TraceContext,
                                   assemble, close_remote_span,
                                   open_remote_span, query_hash_bucket,
                                   trace_sources)
from repro.obs.export import (chrome_trace, parse_sample_name,
                              prometheus_snapshot, sample_key,
                              trace_to_jsonl)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.profile import (DeterministicProfiler, HeapSampler,
                               compare_attribution, format_attribution,
                               parse_collapsed, subsystem_of_module,
                               subsystem_of_path, top_stacks)
from repro.obs.sinks import FORBIDDEN_ATTRIBUTE_KEYS, PATH_SCOPED_SPANS
from repro.obs.slo import (BoundedGaugeSlo, BurnRatePolicy, LatencyQuantileSlo,
                           RuleReport, SloReport, SloRule, SloSpec,
                           SuccessRateSlo, evaluate_slo)
from repro.obs.timeseries import (TimeSeriesRecorder, Window, WindowHistogram,
                                  openmetrics_timeseries)
from repro.obs.trace import NullSink, Span, Tracer, TraceSink


class ObsState:
    """The process-global observability switchboard.

    ``enabled`` is the only thing hot paths read; ``tracer``,
    ``registry``, ``router`` and ``remote`` are only dereferenced
    behind that guard. ``router`` holds the per-node span sinks of
    distributed tracing; ``remote`` is the propagated
    ``(node, TraceContext)`` the sgx layer tags ecall spans
    with while an enclave call runs on a context's behalf (see
    :func:`remote_context`).
    """

    __slots__ = ("enabled", "tracer", "registry", "router", "remote")

    def __init__(self) -> None:
        self.enabled = False
        # A disabled tracer writes to a NullSink — any stray span from
        # a race between disable() and in-flight callbacks is dropped,
        # not accumulated.
        self.tracer = Tracer(clock=WallClock(), sink=NullSink())
        self.registry = MetricsRegistry()
        self.router = SpanRouter()
        self.remote = None


#: The singleton every instrumented module imports.
OBS = ObsState()


def enable(simulator=None, *, trace_capacity: int = trace.DEFAULT_SINK_CAPACITY,
           fresh: bool = True) -> ObsState:
    """Turn instrumentation on.

    Parameters
    ----------
    simulator:
        When given (anything with ``.now``, i.e. a
        :class:`repro.net.simulator.Simulator`), spans are stamped in
        simulated seconds; otherwise in wall-clock ``perf_counter``
        seconds.
    trace_capacity:
        Ring-buffer size of the span sink.
    fresh:
        Reset the registry and start a new sink (the default — one
        enable() per measured run keeps runs comparable). Pass
        ``False`` to accumulate across deployments.
    """
    source = SimulatedClock(simulator) if simulator is not None else WallClock()
    if fresh or isinstance(OBS.tracer.sink, NullSink):
        OBS.tracer = Tracer(clock=source, sink=TraceSink(trace_capacity))
    else:
        OBS.tracer.clock = source
    if fresh:
        # Counters reset per measured run, but pull-based collectors
        # (text-cache gauges, wiretap exporters, ...) are process-level
        # registrations — carry them into the fresh registry so
        # ``repro obs --format prom`` never silently drops a family.
        replacement = MetricsRegistry()
        for collector in OBS.registry.collectors():
            replacement.register_collector(collector)
        OBS.registry = replacement
        OBS.router = SpanRouter()
        OBS.remote = None
    OBS.enabled = True
    return OBS


def disable(*, reset: bool = False) -> None:
    """Turn instrumentation off (and optionally drop collected data).

    ``reset=True`` drops *everything*, collectors included — it is the
    test-hygiene teardown, not the between-runs reset (that is
    ``enable(fresh=True)``, which keeps collectors).
    """
    OBS.enabled = False
    if reset:
        OBS.tracer = Tracer(clock=WallClock(), sink=NullSink())
        OBS.registry = MetricsRegistry()
        OBS.router = SpanRouter()
        OBS.remote = None


@_contextmanager
def remote_context(node: str, ctx):
    """Tag enclave crossings made on behalf of a propagated context.

    While active, :mod:`repro.sgx` attributes ecall spans to
    *node* with *ctx*'s trace id and path — that is how enclave
    transitions show up inside the distributed trace instead of as
    anonymous local work. A ``None`` *ctx* (obs off, or no trace to
    join) is a no-op, so callers need not branch on it.
    """
    if ctx is None:
        yield
        return
    previous = OBS.remote
    OBS.remote = (node, ctx)
    try:
        yield
    finally:
        OBS.remote = previous


def get_tracer() -> Tracer:
    return OBS.tracer


def get_registry() -> MetricsRegistry:
    return OBS.registry


__all__ = [
    "OBS",
    "ObsState",
    "enable",
    "disable",
    "get_tracer",
    "get_registry",
    "remote_context",
    # submodules
    "audit",
    "breakdown",
    "clock",
    "criticalpath",
    "distributed",
    "export",
    "metrics",
    "profile",
    "sinks",
    "slo",
    "timeseries",
    "trace",
    # frequently used types/functions
    "Clock",
    "WallClock",
    "SimulatedClock",
    "ManualClock",
    "Span",
    "Tracer",
    "TraceSink",
    "NullSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PIPELINE_STAGES",
    "stage_breakdown",
    "split_engine_service",
    "format_breakdown",
    "root_span",
    "trace_to_jsonl",
    "prometheus_snapshot",
    "sample_key",
    "parse_sample_name",
    "chrome_trace",
    # deterministic profiling
    "DeterministicProfiler",
    "HeapSampler",
    "compare_attribution",
    "format_attribution",
    "parse_collapsed",
    "subsystem_of_module",
    "subsystem_of_path",
    "top_stacks",
    # time-series & SLOs
    "TimeSeriesRecorder",
    "Window",
    "WindowHistogram",
    "openmetrics_timeseries",
    "SloRule",
    "SloSpec",
    "SuccessRateSlo",
    "LatencyQuantileSlo",
    "BoundedGaugeSlo",
    "BurnRatePolicy",
    "RuleReport",
    "SloReport",
    "evaluate_slo",
    # distributed tracing
    "TraceContext",
    "SpanRouter",
    "AssembledTrace",
    "assemble",
    "trace_sources",
    "query_hash_bucket",
    "open_remote_span",
    "close_remote_span",
    # critical path
    "CriticalPathReport",
    "critical_path",
    "format_report",
    "relay_latency_summaries",
    "find_stragglers",
    # telemetry audit + shared sink registry
    "AuditReport",
    "AuditViolation",
    "run_telemetry_audit",
    "audit_cache_indistinguishability",
    "audit_profile_output",
    "FORBIDDEN_ATTRIBUTE_KEYS",
    "PATH_SCOPED_SPANS",
]
