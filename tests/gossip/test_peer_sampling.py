"""Tests for repro.gossip.peer_sampling: overlay health and healing."""

import random

import pytest

from repro.gossip.bootstrap_repo import PublicRepository
from repro.gossip.peer_sampling import PeerSamplingService
from repro.gossip.view import NodeDescriptor
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, NetNode


class OverlayNode(NetNode):
    def __init__(self, network, address, rng, view_size=6):
        super().__init__(network, address)
        self.pss = PeerSamplingService(self, rng, view_size=view_size,
                                       interval=2.0)

    def handle_request(self, ctx):
        self.pss.handle_request(ctx)


def build_overlay(num_nodes=16, seed=5, view_size=6):
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, rng, default_latency=ConstantLatency(0.005))
    repo = PublicRepository(rng)
    nodes = []
    for index in range(num_nodes):
        node = OverlayNode(net, f"n{index}", rng, view_size=view_size)
        node.pss.bootstrap(repo.sample(4))
        repo.publish(node.address)
        nodes.append(node)
    for node in nodes:
        node.pss.start()
    return sim, net, repo, nodes


class TestOverlay:
    def test_views_fill_to_capacity(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=60)
        assert all(len(n.pss.view) == 6 for n in nodes)

    def test_rounds_progress(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=60)
        assert all(n.pss.rounds_completed > 5 for n in nodes)

    def test_overlay_is_connected(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=60)
        # BFS over the union of views.
        edges = {n.address: set(n.pss.view.addresses()) for n in nodes}
        seen = {nodes[0].address}
        frontier = [nodes[0].address]
        while frontier:
            current = frontier.pop()
            for neighbour in edges[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        assert len(seen) == len(nodes)

    def test_views_keep_changing(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=30)
        before = set(nodes[0].pss.view.addresses())
        sim.run(until=120)
        after = set(nodes[0].pss.view.addresses())
        assert before != after  # continuous reshuffling

    def test_random_peers_excludes(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=30)
        view = nodes[0].pss.view.addresses()
        peers = nodes[0].pss.random_peers(3, exclude=[view[0]])
        assert view[0] not in peers

    def test_no_self_in_view(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=60)
        for node in nodes:
            assert node.address not in node.pss.view

    def test_dead_peer_healed_out(self):
        sim, net, _, nodes = build_overlay()
        sim.run(until=30)
        victim = nodes[3]
        victim.pss.stop()
        net.unregister(victim.address)
        sim.run(until=300)
        holders = [n for n in nodes if n is not victim
                   and victim.address in n.pss.view]
        # Self-healing: (almost) nobody still references the dead node.
        assert len(holders) <= 1

    def test_stop_halts_gossip(self):
        sim, _, _, nodes = build_overlay()
        sim.run(until=20)
        nodes[0].pss.stop()
        rounds = nodes[0].pss.rounds_completed
        sim.run(until=60)
        assert nodes[0].pss.rounds_completed == rounds

    def test_deterministic_given_seed(self):
        sim1, _, _, nodes1 = build_overlay(seed=9)
        sim1.run(until=40)
        sim2, _, _, nodes2 = build_overlay(seed=9)
        sim2.run(until=40)
        views1 = [sorted(n.pss.view.addresses()) for n in nodes1]
        views2 = [sorted(n.pss.view.addresses()) for n in nodes2]
        assert views1 == views2


class TestBootstrap:
    def test_bootstrap_skips_self(self):
        rng = random.Random(1)
        sim = Simulator()
        net = Network(sim, rng)
        node = OverlayNode(net, "solo", rng)
        node.pss.bootstrap(["solo", "other"])
        assert node.pss.view.addresses() == ["other"]


class TestMalformedBuffers:
    """Gossip is not authenticated, so any host can send a view buffer:
    a malformed one is dropped, never raised out of the simulator."""

    @pytest.fixture
    def deployment(self):
        from repro.core.client import CyclosaNetwork

        return CyclosaNetwork.create(num_nodes=4, seed=1,
                                     warmup_seconds=5.0)

    @pytest.mark.parametrize("payload", [
        [5],
        "abc",
        [{"address": "node001"}],
        [{"address": 7, "age": 0}],
        [{"address": "x", "age": "old"}],
        None,
    ], ids=["int-entry", "str-buffer", "missing-age", "int-address",
            "str-age", "none"])
    def test_malformed_request_is_dropped_unanswered(self, deployment,
                                                     payload):
        rogue = NetNode(deployment.network, "rogue")
        replies = []
        rogue.request("node000", payload, replies.append, timeout=5.0,
                      kind="pss", on_timeout=lambda: replies.append(None))
        # Long enough for later view sorts and ageing steps to run.
        deployment.run(30.0)
        assert replies == [None]
        view = deployment.nodes[0].pss.view
        assert all(isinstance(address, str) and address.startswith("node")
                   for address in view.addresses())

    def test_malformed_reply_drops_the_peer(self, deployment):
        asked = []

        class Rogue(NetNode):
            def handle_request(self, ctx):
                asked.append(ctx.request.src)
                ctx.respond("abc")

        Rogue(deployment.network, "rogue")
        for node in deployment.nodes[1:]:
            node.pss.stop()  # nobody else can learn of the rogue
        pss = deployment.nodes[0].pss
        # The oldest entry: node000's next round gossips with it.
        pss.view.insert(NodeDescriptor("rogue", age=1000))
        deployment.run(12.0)
        assert asked == ["node000"]
        assert "rogue" not in pss.view
