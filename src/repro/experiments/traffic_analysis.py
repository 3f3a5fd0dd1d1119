"""Traffic-analysis study: the §IV size-leak claim, quantified.

"An adversary can infer whether an outgoing message is a real query or
an obfuscated one from the request size (e.g., messages containing
obfuscated queries using the OR operator are larger than messages
containing the real query)."

For each system we collect the wire sizes of the messages its
client/proxy emits for real queries and for protected (fake/obfuscated)
material, then compute the best size-threshold adversary's advantage:

- **X-Search** (proxy → engine): plain engine requests vs OR-groups —
  the group is k+1 queries long, so sizes separate almost perfectly.
- **TrackMeNot** (user → engine): real vs RSS fakes — some separation
  (fake headline shapes differ from user queries).
- **CYCLOSA** (client → relay): sealed forward records are padded to a
  fixed envelope — real and fake records are byte-identical in size
  and the adversary's advantage collapses to ~0.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.baselines.base import or_aggregate
from repro.baselines.trackmenot import RssFeedSource
from repro.core.enclave import CyclosaEnclave
from repro.experiments.common import build_workload, print_table
from repro.metrics.traffic import size_advantage
from repro.net.tls import SecureChannel, _directional_keys
from repro.sgx.enclave import EnclaveHost


def _cyclosa_record_sizes(queries: List[str], k: int,
                          seed: int) -> Dict[str, List[int]]:
    """Wire sizes of sealed CYCLOSA forward records, real vs fake."""
    rng = random.Random(seed)
    host = EnclaveHost(rng)
    enclave = host.create_enclave(CyclosaEnclave, table_capacity=5000)
    relays = [f"r{i}" for i in range(k + 1)]
    ends = {}
    for relay in relays:
        send_a, recv_a = _directional_keys(
            relay.encode().ljust(32, b"."), initiator=True)
        send_b, recv_b = _directional_keys(
            relay.encode().ljust(32, b"."), initiator=False)
        enclave.install_peer_channel(relay, SecureChannel(
            peer=relay, send_key=send_a, recv_key=recv_a))
        ends[relay] = SecureChannel(peer="me", send_key=send_b,
                                    recv_key=recv_b)
    enclave.seed_table(queries[: len(queries) // 2])

    sizes = {"real": [], "fake": []}
    for query in queries[len(queries) // 2:]:
        batch, _, _ = enclave.build_protected_batch(query, k, relays)
        for relay, sealed in batch:
            record = ends[relay].open(sealed)
            kind = "fake" if record["meta"]["is_fake"] else "real"
            sizes[kind].append(len(sealed))
    return sizes


def _xsearch_request_sizes(queries: List[str], k: int,
                           seed: int) -> Dict[str, List[int]]:
    """Engine-request sizes: plain queries vs OR-groups."""
    rng = random.Random(seed)
    pool = list(queries)
    sizes = {"real": [], "fake": []}
    for query in queries:
        sizes["real"].append(len(query.encode()))
        fakes = rng.sample(pool, k)
        group, _index = or_aggregate(query, fakes, rng)
        sizes["fake"].append(len(group.encode()))  # the obfuscated request
    return sizes


def _trackmenot_request_sizes(queries: List[str],
                              seed: int) -> Dict[str, List[int]]:
    feed = RssFeedSource(seed=seed)
    return {
        "real": [len(q.encode()) for q in queries],
        "fake": [len(feed.next_fake().encode()) for _ in queries],
    }


def run(num_users: int = 40, mean_queries: float = 50.0, k: int = 3,
        seed: int = 0, max_queries: int = 400) -> List[Dict[str, float]]:
    """Size-threshold adversary advantage per system."""
    workload = build_workload(num_users=num_users,
                              mean_queries_per_user=mean_queries, seed=seed)
    queries = [r.text for r in workload.test.records[:max_queries]]
    rows = []
    for name, sizes in (
        ("CYCLOSA (sealed forwards)",
         _cyclosa_record_sizes(queries, k, seed)),
        ("TrackMeNot (plain requests)",
         _trackmenot_request_sizes(queries, seed)),
        ("X-Search (plain vs OR-group)",
         _xsearch_request_sizes(queries, k, seed)),
    ):
        advantage, threshold = size_advantage(sizes["real"], sizes["fake"])
        rows.append({
            "system": name,
            "advantage": advantage,
            "threshold": threshold,
            "real_sizes": len(set(sizes["real"])),
            "fake_sizes": len(set(sizes["fake"])),
        })
    return rows


def main() -> None:
    rows = run()
    print_table(
        "Traffic analysis — size-threshold adversary advantage (§IV)",
        ["system", "advantage", "best threshold", "distinct real sizes"],
        [[r["system"], f"{r['advantage'] * 100:.1f} %",
          f"{r['threshold']} B", r["real_sizes"]] for r in rows])
    print("\n0 % = sizes carry no signal (CYCLOSA's padded envelope);")
    print("~100 % = one glance at the size reveals obfuscation (OR groups).")


if __name__ == "__main__":
    main()
