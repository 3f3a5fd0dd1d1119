"""Tests for repro.net.tls: handshake, records, attested channels."""

import random

import pytest

from repro.crypto.keys import IdentityKeyPair
from repro.net import wire
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode
from repro.net.tls import (
    SecureChannel,
    SecureChannelManager,
    SgxAuthenticator,
    SignatureAuthenticator,
    TlsError,
    _directional_keys,
    _handshake_context,
)
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy
from repro.sgx.enclave import Enclave, EnclaveHost


class TlsNode(NetNode):
    def __init__(self, network, address, manager_factory):
        super().__init__(network, address)
        self.tls = manager_factory(self)

    def handle_request(self, ctx):
        self.tls.handle_handshake(ctx)


@pytest.fixture
def rng():
    return random.Random(7)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim, rng):
    return Network(sim, rng, default_latency=ConstantLatency(0.01))


def _sig_manager(rng):
    def factory(node):
        identity = IdentityKeyPair.generate(bits=512, rng=rng)
        return SecureChannelManager(
            node, SignatureAuthenticator(identity), rng)

    return factory


class TestHandshake:
    def test_establish_and_roundtrip(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        b = TlsNode(net, "b", _sig_manager(rng))
        ready = []
        a.tls.establish("b", on_ready=ready.append)
        sim.run()
        assert ready
        channel_a = a.tls.channel("b")
        channel_b = b.tls.channel("a")
        sealed = channel_a.seal({"query": "secret"}, rng=rng)
        assert channel_b.open(sealed) == {"query": "secret"}

    def test_bidirectional_records(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        b = TlsNode(net, "b", _sig_manager(rng))
        a.tls.establish("b", on_ready=lambda ch: None)
        sim.run()
        back = b.tls.channel("a").seal("reply", rng=rng)
        assert a.tls.channel("b").open(back) == "reply"

    def test_on_established_fires_both_sides(self, net, sim, rng):
        established = []

        def factory_with_hook(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(
                node, SignatureAuthenticator(identity), rng,
                on_established=lambda ch: established.append(
                    (node.address, ch.peer)))

        a = TlsNode(net, "a", factory_with_hook)
        TlsNode(net, "b", factory_with_hook)
        a.tls.establish("b", on_ready=lambda ch: None)
        sim.run()
        assert ("a", "b") in established and ("b", "a") in established

    def test_handshake_timeout(self, net, sim, rng):
        a = TlsNode(net, "a", _sig_manager(rng))
        failures = []
        # "b" exists but never answers handshake kinds.
        NetNode(net, "b")
        a.tls.establish("b", on_ready=lambda ch: None,
                        on_fail=failures.append, timeout=1.0)
        sim.run()
        assert failures == ["handshake timeout"]

    def test_pinned_trust_anchor_rejects_unknown_key(self, net, sim, rng):
        pinned_fingerprint = b"\x00" * 32

        def pinning_factory(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(
                node,
                SignatureAuthenticator(
                    identity,
                    trust_anchor=lambda pub: pub.fingerprint() == pinned_fingerprint),
                rng)

        a = TlsNode(net, "a", pinning_factory)
        TlsNode(net, "b", _sig_manager(rng))
        failures = []
        a.tls.establish("b", on_ready=lambda ch: None,
                        on_fail=failures.append, timeout=5.0)
        sim.run()
        assert failures  # peer key not pinned -> rejected

    def test_late_cross_handshake_hello_keeps_keys_agreed(self, net, sim, rng):
        """b loses the cross-handshake and answers a's hello, which
        satisfies b's own initiation. b's hello then reaches a after a
        finished, so a answers it as a fresh handshake and re-keys; b
        must install the channel that reply carries."""

        class LateFirstMessage:
            def __init__(self):
                self.sent = 0

            def sample(self, rng):
                self.sent += 1
                return 0.05 if self.sent == 1 else 0.01

        net.set_link_latency("b", "a", LateFirstMessage(), symmetric=False)
        established = []

        def factory(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(
                node, SignatureAuthenticator(identity), rng,
                on_established=lambda ch: established.append(node.address))

        a = TlsNode(net, "a", factory)
        b = TlsNode(net, "b", factory)
        ready, failures = [], []
        a.tls.establish("b", on_ready=lambda ch: ready.append("a"),
                        on_fail=failures.append)
        b.tls.establish("a", on_ready=lambda ch: ready.append("b"),
                        on_fail=failures.append)
        sim.run()
        assert sorted(ready) == ["a", "b"] and failures == []
        assert established.count("b") == 2  # b re-keyed with a
        to_a = b.tls.channel("a").seal("from b", rng=rng)
        assert a.tls.channel("b").open(to_a) == "from b"
        to_b = a.tls.channel("b").seal("from a", rng=rng)
        assert b.tls.channel("a").open(to_b) == "from a"


class TestRecordLayer:
    def _pair(self):
        send_a, recv_a = _directional_keys(b"s" * 32, initiator=True)
        send_b, recv_b = _directional_keys(b"s" * 32, initiator=False)
        return (SecureChannel(peer="b", send_key=send_a, recv_key=recv_a),
                SecureChannel(peer="a", send_key=send_b, recv_key=recv_b))

    def test_out_of_order_delivery_accepted(self, rng):
        a, b = self._pair()
        first = a.seal("one", rng=rng)
        second = a.seal("two", rng=rng)
        assert b.open(second) == "two"
        assert b.open(first) == "one"

    def test_replay_rejected(self, rng):
        a, b = self._pair()
        record = a.seal("payload", rng=rng)
        assert b.open(record) == "payload"
        with pytest.raises(TlsError):
            b.open(record)

    def test_tampered_record_rejected(self, rng):
        a, b = self._pair()
        record = bytearray(a.seal("payload", rng=rng))
        record[-1] ^= 1
        with pytest.raises(TlsError):
            b.open(bytes(record))

    def test_short_record_rejected(self):
        _, b = self._pair()
        with pytest.raises(TlsError):
            b.open(b"tiny")

    def test_non_bytes_record_rejected(self):
        _, b = self._pair()
        for record in ({"query": "flu"}, "a string record", None):
            with pytest.raises(TlsError):
                b.open(record)

    def test_seal_is_seal_bytes_of_the_encoding(self):
        a, _ = self._pair()
        twin, _ = self._pair()
        payload = {"hits": [], "status": "ok"}
        assert a.seal(payload, rng=random.Random(1)) == twin.seal_bytes(
            wire.encode(payload), rng=random.Random(1))

    def test_open_bytes_returns_the_plaintext(self, rng):
        a, b = self._pair()
        record = a.seal_bytes(b"raw page", rng=rng)
        assert b.open_bytes(record) == b"raw page"
        with pytest.raises(TlsError):  # the sequence number is spent
            b.open_bytes(record)

    @pytest.mark.parametrize("plaintext", [
        b"not json", b'{"query": "flu"', b"\xff\xfe", b"",
        b'{"__bytes__": 5}', b'{"__bytes__": "zz"}',
        pytest.param(b"[" * 100000 + b"]" * 100000, id="deep-nesting")])
    def test_authenticated_record_that_does_not_decode_rejected(
            self, rng, plaintext):
        a, b = self._pair()
        with pytest.raises(TlsError, match="does not decode"):
            b.open(a.seal_bytes(plaintext, rng=rng))

    def test_directional_keys_are_asymmetric(self):
        send_a, recv_a = _directional_keys(b"s" * 32, initiator=True)
        assert send_a.key != recv_a.key


class TestSgxAuthenticatedChannels:
    class PeerEnclave(Enclave):
        ENCLAVE_VERSION = "1"
        BASE_FOOTPRINT_BYTES = 4096

    def _sgx_factory(self, rng, ias, policy):
        def factory(node):
            host = EnclaveHost(rng)
            enclave = host.create_enclave(self.PeerEnclave)
            ias.provision_host(host)
            node.host = host
            node.enclave = enclave
            return SecureChannelManager(
                node, SgxAuthenticator(enclave, host, ias, policy), rng)

        return factory

    def test_attested_handshake_succeeds(self, net, sim, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(self.PeerEnclave)
        factory = self._sgx_factory(rng, ias, policy)
        a = TlsNode(net, "a", factory)
        TlsNode(net, "b", factory)
        ready = []
        a.tls.establish("b", on_ready=ready.append)
        sim.run()
        assert ready

    def test_unattested_initiator_gets_no_channel(self, net, sim, rng):
        ias = IntelAttestationService()
        policy = MeasurementPolicy()
        policy.allow_class(self.PeerEnclave)
        # Responder requires quotes; initiator only has a signature.
        responder = TlsNode(net, "b", self._sgx_factory(rng, ias, policy))
        initiator = TlsNode(net, "a", _sig_manager(rng))
        failures = []
        initiator.tls.establish("b", on_ready=lambda ch: None,
                                on_fail=failures.append, timeout=2.0)
        sim.run()
        assert failures
        assert responder.tls.channel("a") is None


def _signed_credential(rng, sender, receiver, dh_public):
    # A genuine signature over the handshake context: any key passes the
    # default trust anchor, so only the hello's shape can reject it.
    identity = IdentityKeyPair.generate(bits=512, rng=rng)
    return SignatureAuthenticator(identity).prove(
        _handshake_context(sender, receiver, dh_public))


_GOOD_DH = 5
_BAD_HELLOS = {
    "no-credential": lambda rng, src, dst: {"dh_public": _GOOD_DH},
    "no-dh-public": lambda rng, src, dst: {
        "credential": _signed_credential(rng, src, dst, _GOOD_DH)},
    "not-a-dict": lambda rng, src, dst: ["dh_public", _GOOD_DH],
    "dh-public-1": lambda rng, src, dst: {
        "dh_public": 1,
        "credential": _signed_credential(rng, src, dst, 1)},
    "dh-public-p-1": lambda rng, src, dst: {
        "dh_public": (1 << 127) - 2,
        "credential": _signed_credential(rng, src, dst, (1 << 127) - 2)},
    "dh-public-str": lambda rng, src, dst: {
        "dh_public": "5",
        "credential": _signed_credential(rng, src, dst, _GOOD_DH)},
    "credential-not-a-dict": lambda rng, src, dst: {
        "dh_public": _GOOD_DH, "credential": b"signature"},
    "credential-missing-field": lambda rng, src, dst: {
        "dh_public": _GOOD_DH,
        "credential": {
            key: value for key, value in _signed_credential(
                rng, src, dst, _GOOD_DH).items() if key != "e"}},
    "credential-negative-exponent": lambda rng, src, dst: {
        "dh_public": _GOOD_DH,
        "credential": {**_signed_credential(rng, src, dst, _GOOD_DH),
                       "e": -1}},
    "credential-unhashable-scheme": lambda rng, src, dst: {
        "dh_public": _GOOD_DH,
        "credential": {**_signed_credential(rng, src, dst, _GOOD_DH),
                       "scheme": ["rsa-sig"]}},
    "quote-missing-report-data": lambda rng, src, dst: {
        "dh_public": _GOOD_DH,
        "credential": {"scheme": "sgx-quote", "platform_id": 1,
                       "measurement": b"m", "signature": b"s"}},
}


def _send_raw_hello(net, sim, responder, hello):
    """Send *hello* from a bare node "x" to *responder* ("b"); returns
    the replies and timeouts the sender saw."""
    sender = NetNode(net, "x")
    replies, timeouts = [], []
    sender.request(responder.address, hello, on_reply=replies.append,
                   timeout=1.0, on_timeout=lambda: timeouts.append("timeout"),
                   kind="tls")
    sim.run()
    return replies, timeouts


class TestMalformedHandshake:
    """A peer's malformed hello ends its handshake, not the simulation."""

    @pytest.mark.parametrize("case", sorted(_BAD_HELLOS))
    def test_responder_drops_malformed_hello(self, net, sim, rng, case):
        responder = TlsNode(net, "b", _sig_manager(rng))
        replies, timeouts = _send_raw_hello(
            net, sim, responder, _BAD_HELLOS[case](rng, "x", "b"))
        assert replies == [] and timeouts == ["timeout"]
        assert responder.tls.channel("x") is None

    def test_pinned_responder_drops_oversized_exponent(self, net, sim, rng):
        # A pinning trust anchor fingerprints the presented key, which
        # packs e into 8 bytes.
        def pinning_factory(node):
            identity = IdentityKeyPair.generate(bits=512, rng=rng)
            return SecureChannelManager(node, SignatureAuthenticator(
                identity,
                trust_anchor=lambda pub: pub.fingerprint() == b"\x00" * 32),
                rng)

        responder = TlsNode(net, "b", pinning_factory)
        credential = _signed_credential(rng, "x", "b", _GOOD_DH)
        replies, timeouts = _send_raw_hello(net, sim, responder, {
            "dh_public": _GOOD_DH, "credential": {**credential, "e": 1 << 64}})
        assert replies == [] and timeouts == ["timeout"]

    def test_well_formed_raw_hello_is_answered(self, net, sim, rng):
        # Control for the drops above: the same sender, shape fixed.
        responder = TlsNode(net, "b", _sig_manager(rng))
        replies, timeouts = _send_raw_hello(net, sim, responder, {
            "dh_public": _GOOD_DH,
            "credential": _signed_credential(rng, "x", "b", _GOOD_DH)})
        assert len(replies) == 1 and replies[0]["dh_public"] > 1
        assert timeouts == []

    @pytest.mark.parametrize("case", sorted(_BAD_HELLOS))
    def test_initiator_fails_on_malformed_server_hello(self, net, sim, rng,
                                                       case):
        class BadServer(NetNode):
            def handle_request(self, ctx):
                ctx.respond(_BAD_HELLOS[case](rng, "b", "a"))

        initiator = TlsNode(net, "a", _sig_manager(rng))
        BadServer(net, "b")
        ready, failures = [], []
        initiator.tls.establish("b", on_ready=ready.append,
                                on_fail=failures.append, timeout=1.0)
        sim.run()
        assert ready == [] and failures == ["malformed server hello"]
        assert initiator.tls.channel("b") is None
