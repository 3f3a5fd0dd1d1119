"""The profile baseline (``python -m repro perf``) and the shared query
workload.

Speed is measured by the repository benchmark, ``python -m bench
run|compare`` (``bench/README.md``): medians and quartiles of four
end-to-end workloads, noise-derived bounds and a per-layer split.
This module keeps the two pieces the rest of the tree imports:

- :func:`workload_queries` — the seeded, AOL-like query stream that
  ``bench/workloads.py``, the profile scenarios and several tests
  replay. Its output is part of every seeded digest that uses it.
- :func:`bench_profile` — the deterministic per-subsystem attribution
  of the search scenario. ``python -m repro perf`` writes it as the
  ``profile`` section of ``BENCH_pipeline.json``, and the profile gate
  (``tests/obs/test_profile.py::TestBaselineDrift``) replays it against
  that section. It counts interpreter call events, not seconds, so
  the section is byte-identical across runs and machines for one
  python version.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Default name of the committed profile baseline, at the repo root.
DEFAULT_BASELINE_NAME = "BENCH_pipeline.json"

#: The profile's workload parameters, recorded under ``meta.params``.
DEFAULT_PARAMS: Dict[str, Any] = {
    "profile_nodes": 8,
    "profile_searches": 6,
    "seed": 0,
}


def workload_queries(count: int, seed: int = 0) -> List[str]:
    """*count* realistic query strings from the synthetic AOL generator
    (repetitive within and across users, like the real trace)."""
    from repro.datasets.aol import generate_aol_log

    texts: List[str] = []
    log_seed = seed
    while len(texts) < count:
        log = generate_aol_log(num_users=max(20, count // 60),
                               mean_queries_per_user=80.0, seed=log_seed)
        texts.extend(record.text for record in log.records)
        log_seed += 1
    return texts[:count]


def bench_profile(profile_nodes: int = 8, profile_searches: int = 6,
                  seed: int = 0) -> Dict[str, Any]:
    """Per-subsystem call-event counts of the end-to-end search scenario.

    Nothing here is a wall-clock number: every interpreter call event
    is counted (:mod:`repro.obs.profile`), so the subsystem counts —
    and the collapsed-stack digest — are byte-identical across runs
    *and machines* for one python version. That is what lets the
    profile gate require each subsystem's self count to equal the
    committed baseline's exactly.
    """
    import hashlib

    from repro.experiments.profiling import run_scenario

    report = run_scenario("search", seed=seed, nodes=profile_nodes,
                          searches=profile_searches, heap=False)
    cpu = report["cpu"]
    digest = hashlib.sha256(report["collapsed"].encode("utf-8")).hexdigest()
    return {
        "scenario": "search",
        "nodes": profile_nodes,
        "searches": profile_searches,
        "call_events": cpu["call_events"],
        "distinct_stacks": cpu["distinct_stacks"],
        "collapsed_sha256": digest,
        "subsystems": cpu["subsystems"],
    }
