"""Fig 8a: end-to-end latency CDFs for 200 queries, k = 3.

Paper medians: Direct < X-Search 0.577 s < CYCLOSA 0.876 s ≪ TOR
62.28 s (a 13× gap between CYCLOSA and TOR on average). The shapes
come from the calibrated models: datacenter-grade paths for Direct and
the X-Search proxy, residential peer links for CYCLOSA relays, and
heavy-tailed volunteer circuits for TOR.

Each system runs in its own deterministic simulation; queries are
issued sequentially from one client, exactly like the paper's
benchmark.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.baselines.direct import DirectClientNode
from repro.baselines.tor import TorClientNode, build_tor_network
from repro.baselines.xsearch import XSearchClientNode, XSearchEnclave, XSearchProxyNode
from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.experiments.common import build_workload, print_table
from repro.metrics.latencystats import cdf_points, summarize
from repro.net.latency import LogNormalLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.searchengine.corpus import build_corpus
from repro.searchengine.engine import SearchEngine
from repro.searchengine.node import SearchEngineNode
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy

PAPER_MEDIANS = {
    "Direct": 0.4,
    "X-Search": 0.577,
    "CYCLOSA": 0.876,
    "TOR": 62.28,
}


def _drive(simulator: Simulator, issue: Callable[[Callable], None],
           num_queries: int, queries: List[str],
           max_wait: float = 3600.0) -> List[float]:
    """Issue queries sequentially; collect per-query latencies."""
    latencies: List[float] = []
    for index in range(num_queries):
        holder: Dict[str, float] = {}
        issue(queries[index % len(queries)], lambda r: holder.update(r))
        deadline = simulator.now + max_wait
        simulator.run(stop_when=lambda: "latency" in holder
                      or not simulator.now < deadline)
        if "latency" in holder:
            latencies.append(holder["latency"])
    return latencies


def _engine_setup(seed: int, config: CyclosaConfig):
    rng = random.Random(seed)
    simulator = Simulator()
    network = Network(simulator, rng, default_latency=LogNormalLatency(
        median=config.peer_link_median, sigma=config.peer_link_sigma))
    engine_node = SearchEngineNode(
        network, SearchEngine(build_corpus(seed=seed)), rng,
        processing=LogNormalLatency(
            median=config.engine_processing_median,
            sigma=config.engine_processing_sigma))
    return rng, simulator, network, engine_node


def run_direct(num_queries: int, queries: List[str],
               seed: int = 0) -> List[float]:
    config = CyclosaConfig()
    rng, simulator, network, engine_node = _engine_setup(seed, config)
    client = DirectClientNode(network, "client", engine_node.address)
    network.set_link_latency(
        client.address, engine_node.address,
        LogNormalLatency(median=config.engine_link_median, sigma=0.3))
    return _drive(simulator,
                  lambda q, cb: client.search(q, cb),
                  num_queries, queries)


def run_tor(num_queries: int, queries: List[str],
            seed: int = 0, num_relays: int = 9) -> List[float]:
    config = CyclosaConfig()
    rng, simulator, network, engine_node = _engine_setup(seed, config)
    relays = build_tor_network(network, rng, engine_node.address,
                               num_relays=num_relays)
    client = TorClientNode(network, "client", rng, relays,
                           engine_node.address)
    return _drive(simulator,
                  lambda q, cb: client.search(q, cb),
                  num_queries, queries)


def run_xsearch(num_queries: int, queries: List[str], k: int = 3,
                seed: int = 0) -> List[float]:
    config = CyclosaConfig()
    rng, simulator, network, engine_node = _engine_setup(seed, config)
    ias = IntelAttestationService()
    policy = MeasurementPolicy()
    policy.allow_class(XSearchEnclave)
    proxy = XSearchProxyNode(network, rng, engine_node.address, ias, policy,
                             k=k)
    proxy.prime(queries)
    # Proxy and engine sit in datacenters (fast peering between them);
    # the client reaches the proxy over its residential access link.
    network.set_link_latency(proxy.address, engine_node.address,
                             LogNormalLatency(median=0.012, sigma=0.25))
    client = XSearchClientNode(network, "client", rng, proxy, ias, policy)
    network.set_link_latency(client.address, proxy.address,
                             LogNormalLatency(median=0.105, sigma=0.35))
    network.set_link_latency(client.address, engine_node.address,
                             LogNormalLatency(median=config.engine_link_median,
                                              sigma=0.3))
    done = {}
    client.connect(lambda: done.setdefault("ok", True))
    simulator.run(until=simulator.now + 30)
    return _drive(simulator,
                  lambda q, cb: client.search(q, cb),
                  num_queries, queries)


def run_cyclosa(num_queries: int, queries: List[str], k: int = 3,
                seed: int = 0, num_nodes: int = 20) -> List[float]:
    deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed)
    user = deployment.node(0)
    latencies = []
    for index in range(num_queries):
        result = user.search(queries[index % len(queries)], k_override=k)
        if result.ok:
            latencies.append(result.latency)
    return latencies


def run_cyclosa_breakdown(num_queries: int, queries: List[str], k: int = 3,
                          seed: int = 0, num_nodes: int = 20) -> Dict:
    """The CYCLOSA leg again, traced: where does the latency go?

    Runs the same deployment with :mod:`repro.obs` enabled and returns
    a JSON-ready dict with per-pipeline-stage timings (mean seconds per
    query) and a component decomposition — enclave compute vs SGX gate
    crossings vs network flight vs engine processing — taken from
    metric deltas scoped to the query phase (warm-up excluded).
    """
    from repro import obs
    from repro.obs import PIPELINE_STAGES, stage_breakdown

    deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                       observe=True)
    user = deployment.node(0)

    def _value(name: str) -> float:
        metric = obs.get_registry().get(name)
        return float(metric.value) if metric is not None else 0.0

    def _hist_sum(name: str) -> float:
        metric = obs.get_registry().get(name)
        return float(metric.sum) if metric is not None else 0.0

    # Baselines after warm-up: gossip and handshake traffic from
    # deployment creation must not pollute the per-query components.
    base = {
        "crossing": _value("cyclosa_sgx_crossing_seconds_total"),
        "meter": _hist_sum("cyclosa_sgx_meter_charge_seconds"),
        "network": _value("cyclosa_net_flight_seconds_total"),
        "engine": _hist_sum("cyclosa_engine_processing_seconds"),
    }
    obs.get_tracer().sink.clear()

    latencies = []
    for index in range(num_queries):
        result = user.search(queries[index % len(queries)], k_override=k)
        if result.ok:
            latencies.append(result.latency)

    n = max(1, len(latencies))
    stages = {
        row.stage: {
            "mean_seconds": row.duration / n,
            "total_seconds": row.duration,
            "spans": row.count,
        }
        for row in stage_breakdown(obs.get_tracer().sink.spans)
        if row.stage in PIPELINE_STAGES
    }
    crossing = _value("cyclosa_sgx_crossing_seconds_total") - base["crossing"]
    meter = _hist_sum("cyclosa_sgx_meter_charge_seconds") - base["meter"]
    components = {
        # CostMeter charges include the crossings; enclave = the rest
        # (sealing, table maintenance, EPC traffic).
        "enclave_seconds": max(0.0, meter - crossing),
        "crossing_seconds": crossing,
        "network_seconds":
            _value("cyclosa_net_flight_seconds_total") - base["network"],
        "engine_seconds":
            _hist_sum("cyclosa_engine_processing_seconds") - base["engine"],
    }
    obs.disable(reset=True)
    return {
        "queries": len(latencies),
        "k": k,
        "stages": stages,
        "components": components,
    }


def run(num_queries: int = 200, k: int = 3, seed: int = 0,
        num_users: int = 60) -> Dict[str, List[float]]:
    """Latency samples per system (the Fig 8a series)."""
    workload = build_workload(num_users=num_users,
                              mean_queries_per_user=60.0, seed=seed)
    queries = [record.text for record in workload.test.records[:num_queries]]
    return {
        "Direct": run_direct(num_queries, queries, seed=seed),
        "X-Search": run_xsearch(num_queries, queries, k=k, seed=seed),
        "CYCLOSA": run_cyclosa(num_queries, queries, k=k, seed=seed),
        "TOR": run_tor(num_queries, queries, seed=seed),
    }


def main() -> None:
    import json

    from repro.experiments.plotting import ascii_cdf

    samples = run()
    rows = []
    for name, latencies in samples.items():
        summary = summarize(latencies)
        rows.append([name, f"{summary.median:.3f} s",
                     f"{PAPER_MEDIANS[name]:.3f} s",
                     f"{summary.p90:.3f} s", f"{summary.p99:.3f} s"])
    print_table("Fig 8a — end-to-end latency (200 queries, k=3)",
                ["System", "Median", "(paper)", "p90", "p99"], rows)
    print()
    print(ascii_cdf(samples, log_x=True))
    for name, latencies in samples.items():
        print(f"\n{name} CDF:",
              "  ".join(f"{q:.2f}:{v:.2f}s" for q, v in cdf_points(latencies)))

    # Where CYCLOSA's latency goes — a smaller traced run (repro.obs).
    workload = build_workload(num_users=60, mean_queries_per_user=60.0,
                              seed=0)
    queries = [record.text for record in workload.test.records[:50]]
    breakdown = run_cyclosa_breakdown(50, queries, k=3, seed=0)
    print("\nCYCLOSA per-stage breakdown (traced, 50 queries):")
    print(json.dumps(breakdown, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
