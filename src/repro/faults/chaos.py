"""Seeded fault-matrix sweeps over the protected-search pipeline.

Each :class:`ChaosCell` names one failure scenario (a fault-plan
builder); :func:`run_cell` builds a fresh deployment, installs the
plan, issues protected searches from a client and reports what the
§VI-b machinery did with them — success rate, terminal statuses,
retries, blacklisting, latency, injections per fault kind, and the two
invariants every cell must hold:

- **zero hung searches** — after a drain, every issued search reached
  a terminal status (``outstanding_searches()`` is empty);
- **zero disjointness violations** — no real-query retry ever landed
  on a relay already carrying a fake leg of the same search (§V).

Reports are plain dicts of sorted, rounded values derived only from
seeded state: :func:`report_json` output for the same arguments is
byte-identical run over run, which is what the chaos gate
(``TestGate`` in ``tests/faults/test_chaos.py``) and the
``repro chaos`` CLI pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.faults.inject import install
from repro.faults.plan import (CrashAfterReceive, Corrupt, Delay,
                               DenyAttestation, Drop, Duplicate, FaultPlan,
                               FORWARD_REQUESTS, MessageMatch,
                               RateLimitStorm, RPC_RESPONSES)

#: Simulated seconds the deployment is driven after the last search,
#: so stragglers (fake legs, retries in flight) settle before the
#: hang check.
DRAIN_SECONDS = 120.0


@dataclass(frozen=True)
class ChaosCell:
    """One named scenario of the fault matrix.

    ``build(relays, engine)`` receives the relay addresses (every node
    except the measuring client) and the engine address, and returns
    the cell's :class:`FaultPlan`. ``config_overrides`` are applied on
    top of :func:`run_cell`'s deployment config — the engine scale-out
    cells use this to stand up replicas before crashing one.
    """

    name: str
    description: str
    build: Callable[[List[str], str], FaultPlan]
    config_overrides: Optional[Dict[str, Any]] = None


def default_matrix(plan_seed: int = 0) -> List[ChaosCell]:
    """The standing fault matrix every scaling PR re-runs.

    One cell per degradation mode the §VI-b path must survive, plus a
    clean baseline and the drop+delay+crash combination cell.
    """

    def cell(name: str, description: str,
             faults: Callable[[List[str], str], tuple]) -> ChaosCell:
        return ChaosCell(
            name=name, description=description,
            build=lambda relays, engine: FaultPlan(
                seed=plan_seed, faults=faults(relays, engine)))

    return [
        cell("baseline", "no faults; records the healthy floor",
             lambda relays, engine: ()),
        cell("drop-forward", "25% of client->relay forwards lost",
             lambda relays, engine: (
                 Drop(match=FORWARD_REQUESTS, probability=0.25),)),
        cell("drop-response", "20% of RPC responses lost",
             lambda relays, engine: (
                 Drop(match=RPC_RESPONSES, probability=0.2),)),
        cell("slow-relays", "forwards delayed 0.6-0.9s (slow hosts)",
             lambda relays, engine: (
                 Delay(match=MessageMatch(kind="cyclosa.fwd*"),
                       extra=0.6, jitter=0.3),)),
        cell("duplicate-storm", "30% of responses delivered twice",
             lambda relays, engine: (
                 Duplicate(match=RPC_RESPONSES, probability=0.3),)),
        cell("corrupt-forward", "30% of forwards corrupted on the wire",
             lambda relays, engine: (
                 Corrupt(match=FORWARD_REQUESTS, probability=0.3),)),
        cell("crash-after-receive",
             "a third of relays crash on their first forward",
             lambda relays, engine: tuple(
                 CrashAfterReceive(node=address)
                 for address in relays[: max(1, len(relays) // 3)])),
        cell("attest-deny",
             "IAS denies a third of relays (channel establishment fails)",
             lambda relays, engine: (
                 DenyAttestation(
                     nodes=tuple(relays[: max(1, len(relays) // 3)])),)),
        cell("ratelimit-storm", "engine answers captcha until t=50s",
             lambda relays, engine: (
                 RateLimitStorm(start=0.0, end=50.0),)),
        ChaosCell(
            name="replica-crash",
            description="3 engine replicas with caching; replica "
                        "engine1 crashes on its first search — "
                        "searches routed elsewhere finish normally and "
                        "coordinators degrade to surviving shards",
            build=lambda relays, engine: FaultPlan(
                seed=plan_seed,
                faults=(CrashAfterReceive(
                    node="engine1",
                    trigger=MessageMatch(kind="search*")),)),
            config_overrides={"engine_replicas": 3,
                              "engine_cache_size": 256}),
        cell("combo", "drop + slow relays + crash, together",
             lambda relays, engine: (
                 Drop(match=FORWARD_REQUESTS, probability=0.15),
                 Delay(match=MessageMatch(kind="cyclosa.fwd*"),
                       extra=0.4, jitter=0.2),
                 CrashAfterReceive(node=relays[0]),)
             if relays else ()),
    ]


def matrix_cells(names: Optional[Sequence[str]] = None,
                 plan_seed: int = 0) -> List[ChaosCell]:
    """The default matrix, optionally filtered to *names* (in matrix
    order); unknown names raise ``ValueError``."""
    cells = default_matrix(plan_seed)
    if names is None:
        return cells
    by_name = {cell.name: cell for cell in cells}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ValueError(
            f"unknown chaos cells: {', '.join(unknown)} "
            f"(known: {', '.join(by_name)})")
    wanted = set(names)
    return [cell for cell in cells if cell.name in wanted]


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_cell(cell: ChaosCell, num_nodes: int = 10,
             num_queries: int = 6,
             seed: int = 7, k: int = 2,
             config: Optional[CyclosaConfig] = None,
             max_wait: float = 240.0) -> Dict[str, Any]:
    """Run one cell on a fresh deployment; return its report row."""
    config = config or CyclosaConfig(relay_timeout=1.5, max_retries=3)
    if cell.config_overrides:
        from dataclasses import replace
        config = replace(config, **cell.config_overrides)
    deployment = CyclosaNetwork.create(
        num_nodes=num_nodes, seed=seed, config=config, warmup_seconds=40.0)
    relays = [node.address for node in deployment.nodes[1:]]
    plan = cell.build(relays, deployment.engine_node.address)
    installed = install(plan, deployment)
    client = deployment.nodes[0]
    user = deployment.node(0)

    statuses: Dict[str, int] = {}
    latencies: List[float] = []
    for index in range(num_queries):
        result = user.search(f"chaos probe {index}", k_override=k,
                             max_wait=max_wait)
        statuses[result.status] = statuses.get(result.status, 0) + 1
        latencies.append(result.latency)
    deployment.run(DRAIN_SECONDS)
    hung = len(client.outstanding_searches())
    installed.uninstall()

    successes = statuses.get("ok", 0)
    return {
        "cell": cell.name,
        "description": cell.description,
        "queries": num_queries,
        "success_rate": round(successes / num_queries, 4),
        "statuses": dict(sorted(statuses.items())),
        "retries": client.stats.retries,
        "blacklisted": client.stats.blacklisted_peers,
        "hung_searches": hung,
        "disjointness_violations": client.stats.disjointness_violations,
        "latency_seconds": {
            "mean": round(sum(latencies) / len(latencies), 4),
            "p50": round(_percentile(latencies, 0.5), 4),
            "max": round(max(latencies), 4),
        },
        "faults_injected": installed.counts,
        "plan": plan.describe(),
    }


def run_matrix(cells: Optional[Sequence[ChaosCell]] = None,
               num_nodes: int = 10, num_queries: int = 6,
               seed: int = 7,
               k: int = 2, config: Optional[CyclosaConfig] = None,
               max_wait: float = 240.0) -> Dict[str, Any]:
    """Run every cell on its own fresh deployment (same seed)."""
    cells = list(cells) if cells is not None else default_matrix()
    rows = [run_cell(cell, num_nodes=num_nodes,
                     num_queries=num_queries,
                     seed=seed, k=k, config=config, max_wait=max_wait)
            for cell in cells]
    return {
        "nodes": num_nodes,
        "queries_per_cell": num_queries,
        "seed": seed,
        "k": k,
        "cells": rows,
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON encoding: sorted keys, fixed separators — the
    same report object always encodes to the same bytes."""
    return json.dumps(report, sort_keys=True, indent=2)


def format_report(report: Dict[str, Any]) -> str:
    """Aligned text table of a matrix report (the CLI's default view)."""
    header = ["cell", "success", "statuses", "retries", "hung",
              "p50 lat", "faults"]
    rows = []
    for row in report["cells"]:
        status_text = ",".join(
            f"{name}:{count}" for name, count in row["statuses"].items())
        fault_text = ",".join(
            f"{name}:{count}"
            for name, count in row["faults_injected"].items()) or "-"
        rows.append([
            row["cell"],
            f"{row['success_rate'] * 100:.0f} %",
            status_text,
            row["retries"],
            row["hung_searches"],
            f"{row['latency_seconds']['p50']:.2f} s",
            fault_text,
        ])
    widths = [len(str(h)) for h in header]
    for row in rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(str(value)))
    lines = ["  ".join(str(h).ljust(widths[i])
                       for i, h in enumerate(header))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(str(value).ljust(widths[i])
                               for i, value in enumerate(row)))
    return "\n".join(lines)
