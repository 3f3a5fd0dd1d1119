"""Security-analysis tests (§VI): the trust-boundary claims, verified.

Each test realises one of the paper's security-analysis scenarios and
asserts the system behaves as claimed — Byzantine relays learn nothing,
enclave bypass fails, replays are detected, the engine's view never
links users to queries.
"""

import random

import pytest

from repro.core.client import CyclosaNetwork
from repro.core.enclave import CyclosaEnclave
from repro.net.tls import SecureChannel, TlsError, _directional_keys
from repro.sgx.attestation import AttestationError, attest_quote
from repro.sgx.enclave import Enclave, EnclaveHost
from repro.sgx.errors import EnclaveIsolationError


@pytest.fixture(scope="module")
def deployment():
    return CyclosaNetwork.create(num_nodes=10, seed=77, warmup_seconds=40)


class TestClientSide:
    """§VI-a: clients cannot bypass the SGX enclave."""

    def test_cannot_read_peer_channels_from_host(self, deployment):
        node = deployment.nodes[0]
        with pytest.raises(EnclaveIsolationError):
            _ = node.enclave.trusted["peer_channels"]

    def test_cannot_forge_forward_records_without_keys(self, deployment):
        # A host-level attacker crafts bytes and sends them as a forward
        # request; every relay drops them (no attested channel keys).
        attacker = deployment.nodes[0]
        victim = deployment.nodes[1]
        relayed_before = victim.stats.relayed
        attacker.request(victim.address, b"\x00" * 120,
                         on_reply=lambda r: pytest.fail("got a reply"),
                         kind="cyclosa.fwd")
        deployment.run(20.0)
        assert victim.stats.relayed == relayed_before

    def test_rogue_enclave_build_cannot_join(self, deployment):
        class BackdooredEnclave(CyclosaEnclave):
            ENCLAVE_VERSION = "1.0-evil"

        rng = random.Random(123)
        host = EnclaveHost(rng)
        rogue = host.create_enclave(BackdooredEnclave)
        deployment.services.ias.provision_host(host)  # platform is genuine
        quote = host.quote_report(rogue.create_report(b"ctx"))
        with pytest.raises(AttestationError):
            attest_quote(deployment.services.ias,
                         deployment.services.policy, quote)


class TestProxySide:
    """§VI-b: a malicious relay cannot read or tamper."""

    def test_relay_host_sees_only_ciphertext(self, deployment):
        # Capture what flows over the wire for a protected query.
        captured = []
        original_send = deployment.network.send

        def tap(src, dst, kind, payload, size_bytes=None):
            if kind.startswith("cyclosa.fwd"):
                captured.append(payload)
            return original_send(src, dst, kind, payload, size_bytes)

        deployment.network.send = tap
        try:
            deployment.node(0).search("super secret medical condition",
                                      k_override=2)
        finally:
            deployment.network.send = original_send
        assert captured
        for payload in captured:
            assert isinstance(payload, (bytes, bytearray))
            assert b"secret medical" not in bytes(payload)

    def test_replayed_record_rejected(self, deployment):
        # §VI-b: "a malicious process could replay user past queries on
        # the proxy. This threat can be limited by including a random
        # identifier in each message to detect a replay."
        node_a = deployment.nodes[2]
        node_b = deployment.nodes[3]
        # Build a legitimate record from a's enclave to b.
        ready = []
        node_a.peer_tls.establish(node_b.address,
                                  on_ready=lambda ch: ready.append(ch))
        deployment.run(10.0)
        assert node_a.enclave.has_peer_channel(node_b.address)
        batch, _, _ = node_a.enclave.build_protected_batch(
            "replayable query", 0, [node_b.address])
        _, sealed = batch[0]
        first = node_b.enclave.unwrap_forward(node_a.address, sealed)
        assert first is not None
        replay = node_b.enclave.unwrap_forward(node_a.address, sealed)
        assert replay is None  # sequence-number replay protection

    def test_tampered_record_rejected(self, deployment):
        node_a = deployment.nodes[4]
        node_b = deployment.nodes[5]
        node_a.peer_tls.establish(node_b.address, on_ready=lambda ch: None)
        deployment.run(10.0)
        batch, _, _ = node_a.enclave.build_protected_batch(
            "tamper target", 0, [node_b.address])
        _, sealed = batch[0]
        tampered = bytearray(sealed)
        tampered[-1] ^= 0x01
        assert node_b.enclave.unwrap_forward(
            node_a.address, bytes(tampered)) is None


class TestSearchEngineSide:
    """§VI-c + §III: honest-but-curious engine's view."""

    def test_engine_log_never_contains_requester_identity(self, deployment):
        deployment.node(6).search("engine view probe", k_override=3)
        node_addresses = {n.address for n in deployment.nodes}
        for entry in deployment.engine_log:
            if entry.text == "engine view probe":
                # The identity is *a* node, but relays were chosen from
                # peers — never the requester itself.
                assert entry.identity != deployment.nodes[6].address

    def test_real_and_fake_indistinguishable_by_size(self, deployment):
        """§IV: an observer of encrypted traffic cannot tell real from
        fake forwards by message size."""
        sizes = {"real": [], "fake": []}
        original_send = deployment.network.send

        def tap(src, dst, kind, payload, size_bytes=None):
            message = original_send(src, dst, kind, payload, size_bytes)
            return message

        node = deployment.nodes[7]
        ready_relays = [
            n.address for n in deployment.nodes
            if n.address != node.address
        ][:3]
        for relay in ready_relays:
            node.peer_tls.establish(relay, on_ready=lambda ch: None)
        deployment.run(10.0)
        usable = [r for r in ready_relays
                  if node.enclave.has_peer_channel(r)]
        if len(usable) >= 3:
            batch, _, _ = node.enclave.build_protected_batch(
                "normal length query", 2, usable[:3])
            lengths = [len(sealed) for _, sealed in batch]
            # Records are padded to the envelope: identical wire sizes
            # for real and fake forwards.
            assert len(set(lengths)) == 1


class TestChannelPrimitives:
    def test_cross_channel_records_rejected(self):
        # A record sealed for one peer cannot be opened by another.
        send_a, recv_a = _directional_keys(b"1" * 32, initiator=True)
        send_c, recv_c = _directional_keys(b"2" * 32, initiator=False)
        alice = SecureChannel(peer="bob", send_key=send_a, recv_key=recv_a)
        carol = SecureChannel(peer="alice", send_key=send_c, recv_key=recv_c)
        record = alice.seal({"query": "for bob only"})
        with pytest.raises(TlsError):
            carol.open(record)
