"""Integration-grade tests for CyclosaNode + CyclosaNetwork."""

import pytest

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.net import wire


@pytest.fixture(scope="module")
def deployment():
    return CyclosaNetwork.create(num_nodes=10, seed=42, warmup_seconds=40)


class TestSearchFlow:
    def test_search_returns_relevant_results(self, deployment):
        result = deployment.node(0).search("flu symptoms treatment",
                                           k_override=2)
        assert result.ok
        assert result.hits
        assert all("web.example" in url for url in result.documents)

    def test_sensitive_query_gets_kmax(self, deployment):
        result = deployment.node(1).search("cancer chemotherapy")
        assert result.ok
        assert result.k == deployment.config.kmax

    def test_non_sensitive_fresh_query_gets_low_k(self, deployment):
        result = deployment.node(2).search("football playoffs tickets")
        assert result.ok
        assert result.k <= 2  # no history, not semantically sensitive

    def test_latency_is_positive_and_sane(self, deployment):
        result = deployment.node(3).search("laptop reviews", k_override=1)
        assert 0.1 < result.latency < 30.0

    def test_k_override(self, deployment):
        result = deployment.node(4).search("hotel booking", k_override=3)
        assert result.k == 3

    def test_repeated_query_linkability_raises_k(self, deployment):
        user = deployment.node(5)
        first = user.search("marathon training plan")
        for _ in range(2):
            user.search("marathon training plan")
        later = user.search("marathon training plan")
        assert later.k >= first.k
        assert later.k > 0


class TestUnlinkability:
    def test_engine_never_sees_requester_address(self, deployment):
        node = deployment.nodes[6]
        deployment.node(6).search("unique unlinkability probe", k_override=3)
        entries = [e for e in deployment.engine_log
                   if e.text == "unique unlinkability probe"]
        assert entries
        assert all(e.identity != node.address for e in entries)

    def test_fakes_reach_engine_from_distinct_relays(self, deployment):
        before = len(deployment.engine_log)
        deployment.node(7).search("distinct relay probe", k_override=3)
        new_entries = deployment.engine_log[before:]
        identities = [e.identity for e in new_entries]
        assert len(identities) == len(set(identities))
        assert len(identities) >= 3

    def test_fakes_marked_in_ground_truth(self, deployment):
        before = len(deployment.engine_log)
        deployment.node(8).search("ground truth probe", k_override=2)
        new_entries = deployment.engine_log[before:]
        reals = [e for e in new_entries if not e.is_fake]
        fakes = [e for e in new_entries if e.is_fake]
        assert len(reals) == 1 and reals[0].text == "ground truth probe"
        assert len(fakes) == 2


class TestRelayAccounting:
    def test_relays_store_forwarded_queries(self, deployment):
        sizes_before = [n.enclave.table_size() for n in deployment.nodes]
        deployment.node(0).search("brand new table entry", k_override=2)
        sizes_after = [n.enclave.table_size() for n in deployment.nodes]
        assert sum(sizes_after) > sum(sizes_before)

    def test_stats_track_activity(self, deployment):
        node = deployment.nodes[0]
        assert node.stats.queries_issued > 0
        total_relayed = sum(n.stats.relayed for n in deployment.nodes)
        assert total_relayed > 0


def _search_recording(monkeypatch, name):
    """Run one seeded search at k = 3 to its last leg, recording what
    every call of ``wire.<name>`` returns."""
    deployment = CyclosaNetwork.create(num_nodes=8, seed=3)
    original = getattr(wire, name)
    returned = []

    def recorded(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(wire, name, recorded)
    results = []
    deployment.nodes[0].search("cheap flights paris", k_override=3,
                               on_result=results.append)
    deployment.run(600.0)
    assert [(result["status"], result["k"]) for result in results] == [
        ("ok", 3)]
    return returned


class TestRelayAnswers:
    """The relays pass each engine page on unread, and the client
    enclave decodes only the real one of the k + 1 answers."""

    def test_one_search_decodes_one_page(self, monkeypatch):
        decoded = _search_recording(monkeypatch, "decode")
        pages = [value for value in decoded
                 if isinstance(value, dict) and "hits" in value]
        assert len(pages) == 1
        assert sorted(pages[0]) == ["hits", "status", "token"]

    def test_every_answer_is_its_canonical_encoding(self, monkeypatch):
        """Each relay answer's plaintext re-encodes to itself, so it is
        the encoding of ``{"hits", "status", "token"}`` byte for byte."""
        answers = _search_recording(monkeypatch, "append_member")
        assert len(answers) == 4
        for plaintext in answers:
            assert sorted(wire.decode(plaintext)) == [
                "hits", "status", "token"]
            assert wire.encode(wire.decode(plaintext)) == plaintext


class TestDeploymentApi:
    def test_determinism(self):
        a = CyclosaNetwork.create(num_nodes=6, seed=7, warmup_seconds=30)
        b = CyclosaNetwork.create(num_nodes=6, seed=7, warmup_seconds=30)
        ra = a.node(0).search("flu symptoms", k_override=2)
        rb = b.node(0).search("flu symptoms", k_override=2)
        assert ra.latency == rb.latency
        assert ra.documents == rb.documents

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            CyclosaNetwork.create(num_nodes=1, seed=0)

    def test_run_advances_time(self, deployment):
        now = deployment.simulator.now
        deployment.run(5.0)
        assert deployment.simulator.now == pytest.approx(now + 5.0)

    def test_result_helpers(self, deployment):
        result = deployment.node(9).search("espresso machine", k_override=1)
        assert result.ok is (result.status == "ok")
        assert isinstance(result.documents, list)


class TestFailureHandling:
    def test_relay_churn_is_survivable(self):
        config = CyclosaConfig(relay_timeout=2.0, max_retries=3)
        deployment = CyclosaNetwork.create(num_nodes=8, seed=13,
                                           config=config, warmup_seconds=40)
        # Kill two relays abruptly (crash: no retirement).
        for victim in deployment.nodes[6:8]:
            victim.pss.stop()
            deployment.network.unregister(victim.address)
        outcomes = []
        for _ in range(6):
            outcomes.append(deployment.node(0).search(
                "resilience probe query", k_override=2, max_wait=120.0))
        assert any(result.ok for result in outcomes)
