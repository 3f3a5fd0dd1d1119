"""Robustness under churn and Byzantine relays (§III, §VI-b).

The paper's adversary model lets remote peers "behave arbitrarily by
crashing, being subject to bugs or being under the control of malicious
adversaries", and §VI-b's mitigation is blacklisting unresponsive peers
and retrying. This experiment quantifies that story:

- a fraction of the overlay is *Byzantine*: those nodes complete
  attestation honestly (they run a genuine enclave) but their hosts
  drop every forward request (the DoS behaviour §III explicitly allows);
- additionally, a fraction of honest nodes *churns out* mid-run;
- clients keep issuing protected queries; we measure the query success
  rate, the retry volume, and the blacklisting activity.

Beyond the original drop-everything Byzantine relay, the experiment
now also sweeps the :mod:`repro.faults` fault matrix (message drop /
delay / duplication / corruption, crash-after-receive silence,
attestation denial, engine rate-limit storms) and reports the same
success/retry/latency story per fault cell — see
``docs/robustness.md``.

The headline: success degrades gracefully and recovery comes from the
timeout → blacklist → re-dispatch path, not from any trusted component.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.core.node import CyclosaNode
from repro.experiments.common import print_table


class ByzantineRelayNode(CyclosaNode):
    """A node whose *host* silently drops every forward request.

    Attestation still succeeds — the enclave is genuine — so honest
    peers will select it as a relay until its silence gets it
    blacklisted. This is exactly the §III threat ("malicious clients
    might not initialise the enclave, invoke calls into enclaves or
    drop all queries") and the §VI-b mitigation target.
    """

    def _handle_forward(self, ctx) -> None:  # noqa: D401 - drop silently
        self.stats.relayed += 0  # observable no-op


def build_mixed_deployment(num_nodes: int, byzantine_fraction: float,
                           seed: int,
                           config: CyclosaConfig) -> CyclosaNetwork:
    """A deployment where the first ``byzantine_fraction`` of nodes
    (excluding node 0, the measuring client) are Byzantine."""
    deployment = CyclosaNetwork.create(num_nodes=num_nodes, seed=seed,
                                       config=config, warmup_seconds=0)
    num_byzantine = int(byzantine_fraction * num_nodes)
    for node in deployment.nodes[1:1 + num_byzantine]:
        # Swap in the Byzantine forward handler (same enclave, same
        # attestation — only the untrusted host behaviour changes).
        node._handle_forward = (
            ByzantineRelayNode._handle_forward.__get__(node))
    deployment.simulator.run(until=40.0)
    return deployment


def run(num_nodes: int = 24, queries_per_setting: int = 40,
        byzantine_fractions=(0.0, 0.25, 0.5),
        churn_fraction: float = 0.0,
        k: int = 3, seed: int = 0) -> List[Dict[str, float]]:
    """Success rate and recovery effort per Byzantine fraction."""
    config = CyclosaConfig(relay_timeout=2.0, max_retries=4)
    rows: List[Dict[str, float]] = []
    for fraction in byzantine_fractions:
        deployment = build_mixed_deployment(num_nodes, fraction, seed,
                                            config)
        if churn_fraction > 0:
            victims = deployment.nodes[-int(churn_fraction * num_nodes):]
            for victim in victims:
                victim.pss.stop()
                deployment.network.unregister(victim.address)
        client = deployment.node(0)
        outcomes = []
        for index in range(queries_per_setting):
            outcomes.append(client.search(
                f"robustness probe query {index}", k_override=k,
                max_wait=240.0))
        node = deployment.nodes[0]
        successes = sum(1 for r in outcomes if r.ok)
        rows.append({
            "byzantine_fraction": fraction,
            "success_rate": successes / len(outcomes),
            "retries": node.stats.retries,
            "blacklisted": node.stats.blacklisted_peers,
            "median_latency": sorted(
                r.latency for r in outcomes)[len(outcomes) // 2],
        })
    return rows


def run_fault_matrix(num_nodes: int = 12, queries_per_cell: int = 6,
                     seed: int = 0,
                     cells=None) -> List[Dict[str, float]]:
    """§VI-b under the injected fault matrix (repro.faults).

    Each cell runs on a fresh deployment with one seeded fault plan
    installed; the rows carry success rate, terminal statuses, retry
    volume and the zero-hung-searches / relay-disjointness invariants.
    """
    from repro.faults import chaos

    report = chaos.run_matrix(
        chaos.matrix_cells(cells), num_nodes=num_nodes,
        num_queries=queries_per_cell, seed=seed)
    return report["cells"]


def main() -> None:
    rows = run()
    print_table(
        "Robustness — Byzantine relays vs query success (k=3)",
        ["byzantine", "success", "retries", "blacklisted", "median lat"],
        [[f"{r['byzantine_fraction'] * 100:.0f} %",
          f"{r['success_rate'] * 100:.0f} %",
          r["retries"], r["blacklisted"],
          f"{r['median_latency']:.2f} s"] for r in rows])
    print("\nByzantine relays pass attestation but drop all forwards; "
          "recovery is timeout -> blacklist -> retry (§VI-b).")

    fault_rows = run_fault_matrix()
    print_table(
        "Robustness — injected fault matrix (repro.faults, k=2)",
        ["cell", "success", "statuses", "retries", "hung", "p50 lat"],
        [[r["cell"],
          f"{r['success_rate'] * 100:.0f} %",
          ",".join(f"{s}:{c}" for s, c in r["statuses"].items()),
          r["retries"], r["hung_searches"],
          f"{r['latency_seconds']['p50']:.2f} s"] for r in fault_rows])
    print("\nEvery cell must keep zero hung searches and a real-query "
          "relay set disjoint from the fake legs (repro chaos and "
          "the chaos gate in tests/faults/test_chaos.py check the "
          "same invariants).")


if __name__ == "__main__":
    main()
