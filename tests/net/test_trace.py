"""Tests for the message-tracing wiretap."""

import random

import pytest

from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.trace import MessageTrace
from repro.net.transport import Network, NetNode


class Echo(NetNode):
    def handle_request(self, ctx):
        ctx.respond("pong")


@pytest.fixture
def setup():
    rng = random.Random(2)
    sim = Simulator()
    net = Network(sim, rng, default_latency=ConstantLatency(0.01))
    a = Echo(net, "a")
    b = Echo(net, "b")
    return sim, net, a, b


class TestTrace:
    def test_captures_matching_kinds(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net, kinds=("ping",)) as trace:
            a.send("b", "ping", b"\x00" * 40)
            a.send("b", "other", b"\x00" * 10)
            sim.run()
        assert len(trace) == 1
        assert trace.records[0].size_bytes == 40
        assert trace.records[0].payload_is_bytes

    def test_filters_by_endpoints(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net, dst="b") as trace:
            a.send("b", "x", "one")
            b.send("a", "x", "two")
            sim.run()
        assert len(trace) == 1
        assert trace.records[0].dst == "b"

    def test_uninstalls_on_exit(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net) as trace:
            a.send("b", "x", "one")
        a.send("b", "x", "two")
        sim.run()
        assert len(trace) == 1

    def test_rpc_roundtrip_traced_both_ways(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net) as trace:
            a.request("b", "ping", lambda r: None)
            sim.run()
        kinds = [r.kind for r in trace]
        assert "rpc.req" in kinds and "rpc.rsp" in kinds
        legs = {(r.src, r.dst) for r in trace}
        assert ("a", "b") in legs and ("b", "a") in legs

    def test_double_install_rejected(self, setup):
        sim, net, a, b = setup
        trace = MessageTrace(net)
        with trace:
            with pytest.raises(RuntimeError):
                trace.__enter__()

    def test_delivery_unaffected(self, setup):
        sim, net, a, b = setup
        replies = []
        with MessageTrace(net):
            a.request("b", "q", replies.append)
            sim.run()
        assert replies == ["pong"]

    def test_sizes_helper(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net, kinds=("data",)) as trace:
            for size in (10, 20, 30):
                a.send("b", "data", b"\x00" * size)
            sim.run()
        assert trace.sizes() == [10, 20, 30]

    def test_wire_image_only_captured_on_request(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net) as plain, \
                MessageTrace(net, capture_plaintext=True) as deep:
            a.send("b", "data", b"\xaa\xbb")
            sim.run()
        assert plain.records[0].wire_image is None
        assert deep.records[0].wire_image == b"\xaa\xbb"

    def test_wire_image_encodes_structured_payloads(self, setup):
        sim, net, a, b = setup
        with MessageTrace(net, capture_plaintext=True) as trace:
            a.send("b", "data", {"question": "flu symptoms"})
            sim.run()
        image = trace.records[0].wire_image
        assert isinstance(image, bytes) and b"flu symptoms" in image


class TestTraceMetrics:
    def test_wiretap_feeds_metrics_registry_when_enabled(self, setup):
        from repro import obs

        sim, net, a, b = setup
        obs.disable(reset=True)
        obs.enable(fresh=True)
        try:
            with MessageTrace(net):
                a.send("b", "data", b"\x00" * 100)
                a.send("b", "data", b"\x00" * 600)
                a.send("b", "ctrl", b"\x00" * 8)
                sim.run()
            snapshot = obs.prometheus_snapshot(obs.OBS.registry)
            assert 'cyclosa_net_traced_messages_total{kind="data"} 2' \
                in snapshot
            assert 'cyclosa_net_traced_messages_total{kind="ctrl"} 1' \
                in snapshot
            # byte histogram: the 100 B message is <= the 128 bucket,
            # the 600 B one only lands in 768 and above
            assert 'cyclosa_net_traced_message_bytes_bucket' \
                '{kind="data",le="128"} 1' in snapshot
            assert 'cyclosa_net_traced_message_bytes_bucket' \
                '{kind="data",le="768"} 2' in snapshot
        finally:
            obs.disable(reset=True)

    def test_wiretap_records_nothing_when_disabled(self, setup):
        from repro import obs

        sim, net, a, b = setup
        obs.disable(reset=True)
        with MessageTrace(net) as trace:
            a.send("b", "data", b"\x00" * 100)
            sim.run()
        assert len(trace) == 1  # the tap itself still works
        assert obs.prometheus_snapshot(obs.OBS.registry) == ""
