"""Disabled-profiler overhead on the CYCLOSA hot path.

The deterministic profiler's design contract is stronger than the
observability guard's: when no profile run is active there is *no*
instrumentation at all — ``sys.setprofile`` hooks are installed by
``DeterministicProfiler.start()`` and removed by ``stop()``, and the
interpreter only dispatches profile events while a hook is installed.
So "disabled overhead" here means: after a start/stop cycle, the hot
path must run at native speed again — no residual hook, no lingering
per-call cost.

Measured as min-of-repeats over a tight call loop (min is robust to
scheduler noise where the mean is not):

1. pristine per-call cost, before any profiler existed;
2. per-call cost after a full ``start()``/``stop()`` cycle — asserted
   within 5 % of pristine;
3. per-call cost *while profiling*, every call event counted —
   reported for context (this one is allowed to be expensive;
   profiling is opt-in and offline).
"""

from __future__ import annotations

import sys
import time

from benchmarks.conftest import single_run
from repro import obs

OVERHEAD_BUDGET = 0.05  # residual cost after stop(), vs pristine

CALLS_PER_LOOP = 200_000
REPEATS = 9


def _work(value: int) -> int:
    return value + 1


def _per_call_seconds() -> float:
    """Min-of-repeats cost of one trivial call on this machine."""
    best = float("inf")
    for _ in range(REPEATS):
        accumulator = 0
        begin = time.perf_counter()
        for _ in range(CALLS_PER_LOOP):
            accumulator = _work(accumulator)
        elapsed = time.perf_counter() - begin
        assert accumulator == CALLS_PER_LOOP
        best = min(best, elapsed)
    return best / CALLS_PER_LOOP


def test_bench_profiler_disabled_overhead(benchmark, report):
    assert sys.getprofile() is None, "a profile hook is already installed"

    def measure():
        pristine = _per_call_seconds()

        profiler = obs.DeterministicProfiler()
        with profiler:
            profiling = _per_call_seconds()
        assert sys.getprofile() is None, "stop() left the hook installed"

        after = _per_call_seconds()
        return pristine, profiling, after

    pristine, profiling, after = single_run(benchmark, measure)

    ratio = after / pristine
    report("\n".join([
        "",
        "== Profiler overhead (after stop vs never started) ==",
        f"pristine per-call cost       : {pristine * 1e9:.1f} ns",
        f"after start/stop cycle       : {after * 1e9:.1f} ns",
        f"residual ratio               : {ratio:.4f}x  "
        f"(budget {1 + OVERHEAD_BUDGET:.2f}x)",
        f"while profiling              : {profiling * 1e9:.1f} ns  "
        f"({profiling / pristine:.2f}x, opt-in only)",
    ]))

    assert ratio < 1 + OVERHEAD_BUDGET
