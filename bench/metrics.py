"""Metric catalogue and the arithmetic behind every reported number.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced one (see :mod:`bench.layers`). ``BENCHMARK.json`` lists the same
names, units and directions; :func:`catalogue_matches` keeps the two in
step.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench.layers import LAYERS

#: name -> (unit, better). Order is the order reports print in.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "searches_per_s": ("1/s", "higher"),
    "search_wall_ms_p50": ("ms", "lower"),
    "search_wall_ms_p90": ("ms", "lower"),
    "latency_s_p50": ("s", "lower"),
    "latency_s_p95": ("s", "lower"),
    "ok_ratio": ("fraction", "higher"),
    "queries_per_search": ("queries", "higher"),
    "wire_kb_per_search": ("KB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Metrics timed on the machine (the rest repeat exactly per seed).
TIMED_METRICS = ("setup_s", "searches_per_s", "search_wall_ms_p50",
                 "search_wall_ms_p90")


def _per_layer() -> Dict[str, Tuple[str, str]]:
    table: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        table[f"setup.{layer}.self_s"] = ("s", "lower")
    table["setup.unattributed_s"] = ("s", "lower")
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", "lower")
        table[f"{layer}.calls"] = ("count", "lower")
    table["unattributed_s"] = ("s", "lower")
    table["trace_overhead_ratio"] = ("ratio", "lower")
    table.update({
        "text.cache_hit_ratio": ("ratio", "higher"),
        "core.assessments": ("count", "lower"),
        "core.searches": ("count", "higher"),
        "core.retries": ("count", "lower"),
        "core.fakes_sent": ("count", "higher"),
        "core.blacklisted": ("count", "lower"),
        "core.disjointness_violations": ("count", "lower"),
        "sgx.ecalls": ("count", "lower"),
        "sgx.attestations": ("count", "lower"),
        "sgx.modelled_s": ("s", "lower"),
        "crypto.aead_ops": ("count", "lower"),
        "crypto.aead_mb": ("MB", "lower"),
        "crypto.rsa_keygens": ("count", "lower"),
        "crypto.rsa_ops": ("count", "lower"),
        "crypto.dh_ops": ("count", "lower"),
        "net.events": ("count", "lower"),
        "net.events_per_s": ("1/s", "higher"),
        "net.messages": ("count", "lower"),
        "net.mb": ("MB", "lower"),
        "net.dropped": ("count", "lower"),
        "net.handshakes": ("count", "lower"),
        "gossip.rounds": ("count", "lower"),
        "gossip.exchanges_served": ("count", "lower"),
        "searchengine.rank_calls": ("count", "lower"),
        "searchengine.requests": ("count", "higher"),
        "searchengine.cache_hit_ratio": ("ratio", "higher"),
        "searchengine.captchas": ("count", "lower"),
        "obs.spans": ("count", "lower"),
        "obs.windows": ("count", "higher"),
    })
    return table


PER_LAYER: Dict[str, Tuple[str, str]] = _per_layer()


def catalogue_matches(spec: dict) -> List[str]:
    """Differences between this catalogue and a ``BENCHMARK.json``."""
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {entry["name"]: (entry["unit"], entry["better"])
                  for entry in spec[key]}
        if listed != table:
            problems.append(f"{key} in BENCHMARK.json differs from "
                            f"bench.metrics")
    return problems


# -- statistics ----------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)``."""
    import statistics

    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if flat)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


# -- results -------------------------------------------------------------


def result_digest(records: Sequence[Optional[dict]]) -> str:
    """sha256 over every search's (status, k, hit URLs), in issue order."""
    digest = hashlib.sha256()
    for record in records:
        row = None if record is None else [
            record["status"], record["k"], record["urls"]]
        digest.update(json.dumps(row, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def end_to_end(setup_s: Sequence[float], measured_s: Sequence[float],
               search_s: Sequence[Sequence[Optional[float]]],
               records: Sequence[Optional[dict]], wire_bytes: int,
               peak_rss_bytes: int) -> Dict[str, float]:
    """The ten user-facing numbers of one untraced run.

    *setup_s*, *measured_s* and *search_s* hold each replay's times in
    reference seconds. The replays ran the same inputs, so the
    throughput and the per-search percentiles pool all of them, and
    *records* (any replay's) give the simulated numbers.
    """
    completed = [index for index, record in enumerate(records)
                 if record is not None]
    ok = [records[index] for index in completed
          if records[index]["status"] == "ok"]
    if not ok:
        raise ValueError("no search completed ok: nothing to measure")
    walls = sorted(searches[index] * 1000.0 for searches in search_s
                   for index in completed)
    latencies = sorted(record["latency"] for record in ok)
    issued = len(records)
    return {
        "setup_s": median(setup_s),
        "searches_per_s": len(completed) * len(measured_s) / sum(measured_s),
        "search_wall_ms_p50": percentile(walls, 0.50),
        "search_wall_ms_p90": percentile(walls, 0.90),
        "latency_s_p50": percentile(latencies, 0.50),
        "latency_s_p95": percentile(latencies, 0.95),
        "ok_ratio": len(ok) / issued,
        "queries_per_search": sum(records[index]["k"] + 1
                                  for index in completed) / len(completed),
        "wire_kb_per_search": wire_bytes / 1000.0 / issued,
        "peak_rss_mb": peak_rss_bytes / 1e6,
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(setup, measured, counters: Dict[str, float],
              untraced_s: float, traced_s: float,
              untraced_measure_s: float) -> Dict[str, float]:
    """The layer split of a traced run.

    *setup* and *measured* are :class:`bench.layers.Phase` splits;
    *counters* holds the public-state deltas over the measured phase
    (see ``Workload.counters``).
    """
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"setup.{layer}.self_s"] = setup.self_s[layer]
        values[f"{layer}.self_s"] = measured.self_s[layer]
        values[f"{layer}.calls"] = measured.calls[layer]
    values["setup.unattributed_s"] = setup.unattributed_s
    values["unattributed_s"] = measured.unattributed_s
    values["trace_overhead_ratio"] = traced_s / untraced_s

    calls = measured.entries
    both = {entry: setup.entries.get(entry, 0) + count
            for entry, count in calls.items()}
    ecalls = sum(count for entry, count in calls.items()
                 if entry.startswith("CyclosaEnclave."))
    values.update({
        "text.cache_hit_ratio": _ratio(counters["text_hits"],
                                       counters["text_misses"]),
        "core.assessments": calls["SensitivityAnalysis.assess"],
        "core.searches": counters["searches"],
        "core.retries": counters["retries"],
        "core.fakes_sent": counters["fakes_sent"],
        "core.blacklisted": counters["blacklisted"],
        "core.disjointness_violations": counters["disjointness_violations"],
        "sgx.ecalls": ecalls,
        "sgx.attestations": calls["IntelAttestationService.verify"],
        "sgx.modelled_s": counters["meter_s"],
        "crypto.aead_ops": calls["aead.seal"] + calls["aead.open_"],
        "crypto.aead_mb": measured.tallies.get("aead_bytes", 0.0) / 1e6,
        # Keys are made while setting up, so this one counts both phases.
        "crypto.rsa_keygens": both["RsaKeyPair.generate"],
        "crypto.rsa_ops": (calls["RsaKeyPair.sign"]
                           + calls["RsaKeyPair.decrypt"]
                           + calls["RsaPublicKey.verify"]
                           + calls["RsaPublicKey.encrypt"]),
        "crypto.dh_ops": (calls["DhKeyPair.generate"]
                          + calls["DhKeyPair.shared_secret"]),
        "net.events": counters["events"],
        "net.events_per_s": counters["events"] / untraced_measure_s,
        "net.messages": counters["messages"],
        "net.mb": counters["bytes"] / 1e6,
        "net.dropped": counters["dropped"],
        "net.handshakes": calls["SecureChannelManager.establish"],
        "gossip.rounds": counters["gossip_rounds"],
        "gossip.exchanges_served": measured.tallies.get("gossip_served", 0),
        "searchengine.rank_calls": (calls["SearchEngine.search"]
                                    + calls["SearchEngine.rank_terms"]),
        "searchengine.requests": counters["engine_requests"],
        "searchengine.cache_hit_ratio": _ratio(counters["cache_hits"],
                                               counters["cache_misses"]),
        "searchengine.captchas": counters["captchas"],
        "obs.spans": calls["Tracer.start_span"],
        "obs.windows": counters["windows"],
    })
    return values
