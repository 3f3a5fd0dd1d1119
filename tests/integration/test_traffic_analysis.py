"""Traffic-analysis resistance (§IV).

"An external observer analysing the (encrypted) network traffic has no
clue whether a node is sending out a real query, a fake one or whether
he is forwarding someone else's query, which is not the case of systems
where fake queries are generated at the relays (e.g., X-SEARCH or
PEAS). In these systems, even though the traffic is encrypted, an
adversary can infer whether an outgoing message is a real query or an
obfuscated one from the request size."
"""

import random

import pytest

from repro.core.enclave import RECORD_ENVELOPE_BYTES, CyclosaEnclave
from repro.net.tls import SecureChannel, _directional_keys
from repro.sgx.enclave import EnclaveHost


def paired(secret, a, b):
    send_a, recv_a = _directional_keys(secret, initiator=True)
    send_b, recv_b = _directional_keys(secret, initiator=False)
    return (SecureChannel(peer=b, send_key=send_a, recv_key=recv_a),
            SecureChannel(peer=a, send_key=send_b, recv_key=recv_b))


@pytest.fixture
def enclave_with_relays():
    rng = random.Random(31)
    host = EnclaveHost(rng)
    enclave = host.create_enclave(CyclosaEnclave)
    ends = {}
    for name in ("r1", "r2", "r3", "r4"):
        local, remote = paired(name.encode().ljust(32, b"-"), "me", name)
        enclave.install_peer_channel(name, local)
        ends[name] = remote
    enclave.seed_table([f"a fake query number {i}" for i in range(20)])
    return enclave, ends


class TestCyclosaUniformity:
    def test_real_and_fakes_same_size(self, enclave_with_relays):
        enclave, ends = enclave_with_relays
        batch, _, _ = enclave.build_protected_batch(
            "hiv", 3, ["r1", "r2", "r3", "r4"])  # very short real query
        sizes = {len(sealed) for _, sealed in batch}
        assert len(sizes) == 1

    def test_short_and_long_queries_same_size(self, enclave_with_relays):
        enclave, ends = enclave_with_relays
        short, _, _ = enclave.build_protected_batch("flu", 0, ["r1"])
        long, _, _ = enclave.build_protected_batch(
            "a much longer and more descriptive medical question about "
            "treatment options", 0, ["r2"])
        assert len(short[0][1]) == len(long[0][1])

    def test_padding_is_transparent_to_relay(self, enclave_with_relays):
        enclave, ends = enclave_with_relays
        batch, _, _ = enclave.build_protected_batch("real query text", 0,
                                                    ["r1"])
        record = ends["r1"].open(batch[0][1])
        assert record["query"] == "real query text"

    def test_envelope_size_bound(self, enclave_with_relays):
        enclave, ends = enclave_with_relays
        batch, _, _ = enclave.build_protected_batch("q", 0, ["r1"])
        # nonce/tag/seq overhead + one envelope.
        assert len(batch[0][1]) <= 2 * RECORD_ENVELOPE_BYTES + 64


class TestXSearchLeakage:
    def test_or_group_is_visibly_larger(self):
        """The contrast the paper draws: an OR-group's wire size grows
        with k, so the proxy's outgoing 'obfuscated' requests are
        distinguishable from plain ones."""
        from repro.baselines.base import or_aggregate

        rng = random.Random(1)
        fakes = [f"plausible fake query {i} terms" for i in range(7)]
        plain = "flu symptoms"
        group, _ = or_aggregate(plain, fakes, rng)
        assert len(group.encode()) > 5 * len(plain.encode())
