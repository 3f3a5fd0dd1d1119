"""Tests for repro.net.transport."""

import random

import pytest

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode, NetworkError, RequestContext


class EchoNode(NetNode):
    """RPC server echoing payloads; records datagrams."""

    def __init__(self, network, address, respond=True):
        super().__init__(network, address)
        self.datagrams = []
        self.respond = respond

    def handle_request(self, ctx: RequestContext):
        if self.respond:
            ctx.respond({"echo": ctx.request.payload})

    def handle_datagram(self, message):
        self.datagrams.append(message)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim, rng):
    return Network(sim, rng, default_latency=ConstantLatency(0.01))


class TestRegistration:
    def test_register_and_lookup(self, net):
        node = EchoNode(net, "a")
        assert net.node("a") is node
        assert "a" in net.addresses()

    def test_duplicate_address_rejected(self, net):
        EchoNode(net, "a")
        with pytest.raises(NetworkError):
            EchoNode(net, "a")

    def test_unknown_address_raises(self, net):
        with pytest.raises(NetworkError):
            net.node("ghost")

    def test_unknown_sender_rejected(self, net):
        with pytest.raises(NetworkError):
            net.send("ghost", "a", "kind", {})


class TestDelivery:
    def test_datagram_arrives_after_latency(self, net, sim):
        EchoNode(net, "a")
        b = EchoNode(net, "b")
        net.node("a").send("b", "data", "hello")
        sim.run()
        assert len(b.datagrams) == 1
        assert b.datagrams[0].payload == "hello"
        assert sim.now == pytest.approx(0.01)

    def test_message_to_churned_node_dropped(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        a.send("b", "data", "hello")
        net.unregister("b")
        sim.run()
        assert net.stats.dropped == 1

    def test_per_pair_latency_override(self, net, sim):
        a = EchoNode(net, "a")
        b = EchoNode(net, "b")
        net.set_link_latency("a", "b", ConstantLatency(0.5))
        a.send("b", "data", "x")
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_node_latency_override(self, net, sim):
        a = EchoNode(net, "a")
        b = EchoNode(net, "b")
        net.set_node_latency("b", ConstantLatency(0.3))
        a.send("b", "data", "x")
        sim.run()
        assert sim.now == pytest.approx(0.3)

    def test_pair_override_beats_node_override(self, net, sim):
        a = EchoNode(net, "a")
        b = EchoNode(net, "b")
        net.set_node_latency("b", ConstantLatency(0.3))
        net.set_link_latency("a", "b", ConstantLatency(0.1))
        a.send("b", "data", "x")
        sim.run()
        assert sim.now == pytest.approx(0.1)

    def test_stats_accumulate(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        a.send("b", "data", b"12345")
        assert net.stats.messages == 1
        assert net.stats.bytes == 5


class TestRpc:
    def test_request_reply(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        replies = []
        a.request("b", {"q": 1}, replies.append)
        sim.run()
        assert replies == [{"echo": {"q": 1}}]

    def test_timeout_fires_without_response(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b", respond=False)
        timeouts = []
        a.request("b", "q", lambda r: None, timeout=1.0,
                  on_timeout=lambda: timeouts.append(1))
        sim.run()
        assert timeouts == [1]

    def test_timeout_cancelled_by_reply(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        timeouts = []
        replies = []
        a.request("b", "q", replies.append, timeout=10.0,
                  on_timeout=lambda: timeouts.append(1))
        sim.run()
        assert replies and not timeouts

    def test_duplicate_response_rejected(self, net, sim):
        class DoubleResponder(NetNode):
            def handle_request(self, ctx):
                ctx.respond("one")
                with pytest.raises(NetworkError):
                    ctx.respond("two")

        a = EchoNode(net, "a")
        DoubleResponder(net, "c")
        a.request("c", "q", lambda r: None)
        sim.run()

    def test_deferred_response(self, net, sim):
        class SlowResponder(NetNode):
            def handle_request(self, ctx):
                self.network.simulator.schedule(
                    1.0, lambda: ctx.respond("late"))

        a = EchoNode(net, "a")
        SlowResponder(net, "slow")
        replies = []
        a.request("slow", "q", replies.append)
        sim.run()
        assert replies == ["late"]
        assert sim.now >= 1.0

    def test_concurrent_requests_correlate(self, net, sim):
        class TaggingResponder(NetNode):
            def handle_request(self, ctx):
                ctx.respond(ctx.request.payload * 10)

        a = EchoNode(net, "a")
        TaggingResponder(net, "t")
        replies = []
        for value in (1, 2, 3):
            a.request("t", value, replies.append)
        sim.run()
        assert sorted(replies) == [10, 20, 30]


class TestResponseAuthentication:
    """Only the peer a request went to may answer it, and only with a
    well-formed envelope. Anything else is dropped, and the request
    keeps its pending entry and its timeout."""

    def pending_request(self, net, respond):
        a = EchoNode(net, "a")
        b = EchoNode(net, "b", respond=respond)
        replies, timeouts = [], []
        a.request("b", "q", replies.append, timeout=5.0,
                  on_timeout=lambda: timeouts.append("timeout"))
        ((request_id, _),) = a._pending.items()
        return a, b, request_id, replies, timeouts

    def test_malformed_envelopes_are_dropped(self, net, sim):
        a, b, request_id, replies, timeouts = self.pending_request(
            net, respond=False)
        for envelope in ("abc", None, [request_id, "x"],
                         {"request_id": request_id},
                         {"payload": "x"},
                         {"request_id": str(request_id), "payload": "x"},
                         {"request_id": True, "payload": "x"}):
            b.send("a", "rpc.rsp", envelope)
        sim.run()
        assert replies == []
        assert timeouts == ["timeout"]

    def test_forged_answer_is_dropped_and_the_genuine_one_accepted(
            self, net, sim):
        a, b, request_id, replies, timeouts = self.pending_request(
            net, respond=True)
        c = EchoNode(net, "c")
        # Sent before b's reply and arrives first.
        c.send("a", "rpc.rsp", {"request_id": request_id,
                                "payload": "forged"})
        sim.run()
        assert replies == [{"echo": "q"}]
        assert timeouts == []

    def test_well_formed_answer_from_the_destination_is_accepted(
            self, net, sim):
        a, b, request_id, replies, timeouts = self.pending_request(
            net, respond=False)
        b.send("a", "rpc.rsp", {"request_id": request_id,
                                "payload": "by hand"})
        sim.run()
        assert replies == ["by hand"]
        assert timeouts == []
        assert a._pending == {}


class TestCrashedHostSemantics:
    def test_departed_sender_messages_dropped_silently(self, net, sim):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        net.unregister("a")
        # A leftover timer of the dead node fires and tries to send.
        assert net.send("a", "b", "data", "zombie") is None
        assert net.stats.dropped == 1

    def test_never_registered_sender_still_raises(self, net):
        with pytest.raises(NetworkError):
            net.send("never-existed", "b", "data", "x")

    def test_departed_address_can_rejoin(self, net, sim):
        a = EchoNode(net, "a")
        b = EchoNode(net, "b")
        net.unregister("a")
        rejoined = EchoNode(net, "a")  # same address, new incarnation
        rejoined.send("b", "data", "back")
        sim.run()
        assert b.datagrams and b.datagrams[-1].payload == "back"


class TestLostOnWireRequests:
    """A request lost on the wire must leave the same bookkeeping as
    one whose response never comes: a registered pending entry with a
    cancellable timeout handle."""

    def lost_sender(self, net):
        """A node whose sends are all lost (departed-host semantics)."""
        node = EchoNode(net, "a")
        net.unregister("a")
        return node

    def test_lost_request_times_out(self, net, sim):
        a = self.lost_sender(net)
        EchoNode(net, "b")
        timeouts = []
        a.request("b", "q", lambda r: None, timeout=1.0,
                  on_timeout=lambda: timeouts.append(1))
        sim.run()
        assert timeouts == [1]
        assert sim.now == pytest.approx(1.0)

    def test_lost_request_registers_cancellable_pending_entry(self, net,
                                                              sim):
        a = self.lost_sender(net)
        EchoNode(net, "b")
        timeouts = []
        a.request("b", "q", lambda r: None, timeout=5.0,
                  on_timeout=lambda: timeouts.append(1))
        ((request_id, pending),) = a._pending.items()
        # Negative local id: can never collide with a network msg_id.
        assert request_id < 0
        assert pending.timeout_handle is not None
        pending.timeout_handle.cancel()
        del a._pending[request_id]
        sim.run()
        assert timeouts == []

    def test_lost_request_without_timeout_keeps_no_state(self, net, sim):
        a = self.lost_sender(net)
        EchoNode(net, "b")
        a.request("b", "q", lambda r: None)
        assert a._pending == {}
        assert not sim.step()  # nothing scheduled either

    def test_lost_entry_does_not_capture_other_responses(self, net, sim,
                                                         monkeypatch):
        a = EchoNode(net, "a")
        EchoNode(net, "b")
        timeouts, replies = [], []
        # The first request is lost at send.
        monkeypatch.setattr(net, "send", lambda *args, **kwargs: None)
        a.request("b", "lost", replies.append, timeout=5.0,
                  on_timeout=lambda: timeouts.append("lost"))
        assert len(a._pending) == 1
        monkeypatch.undo()
        a.request("b", "real", replies.append, timeout=5.0,
                  on_timeout=lambda: timeouts.append("real"))
        sim.run()
        # The real reply resolved only its own entry; the lost
        # request's entry survived until its own timeout fired.
        assert replies == [{"echo": "real"}]
        assert timeouts == ["lost"]
