"""The protected-search lifecycle (``repro.core.node.TRANSITIONS``).

- the phase table refuses illegal moves with :class:`LifecycleError`;
- concurrent searches from one node that lose real legs retry *their
  own* query (the enclave names each batch's real record, so a retry
  can no longer pick up another search's pending entry);
- a rule-based state machine interleaves concurrent searches with
  dropped and delayed forwards, relay crashes, blacklisting, churn and
  time, and checks exactly-once delivery, relay disjointness and a
  clean drain.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.core.node import (TRANSITIONS, LifecycleError, ProtectedSearch)
from repro.faults.inject import install
from repro.faults.plan import Delay, Drop, FaultPlan, FORWARD_REQUESTS
from repro.perf import workload_queries


def engine_urls(deployment, query):
    return [hit.url for hit in deployment.engine_node.engine.search(query)]


class TestPhaseTable:
    def make(self):
        return ProtectedSearch(query="q", k=1, issued_at=0.0,
                               on_result=lambda result: None,
                               retries_left=1, search_id="n/s000000")

    def test_a_search_starts_connecting(self):
        search = self.make()
        assert search.phase == "connecting"
        assert not search.done

    def test_legal_moves_follow_the_table(self):
        search = self.make()
        for phase in ("sent", "backoff", "connecting", "sent", "done"):
            search.move(phase)
        assert search.done

    @pytest.mark.parametrize("start", sorted(TRANSITIONS))
    def test_every_illegal_move_raises(self, start):
        for target in sorted(set(TRANSITIONS) - TRANSITIONS[start]):
            search = self.make()
            search.phase = start
            with pytest.raises(LifecycleError, match=f"{start} -> {target}"):
                search.move(target)
            assert search.phase == start

    def test_the_table(self):
        assert TRANSITIONS == {
            "connecting": {"sent", "backoff", "done"},
            "sent": {"backoff", "done"},
            "backoff": {"connecting", "done"},
            "done": set(),
        }


class TestConcurrentRetriesKeepTheirOwnQuery:
    @pytest.mark.parametrize("seed", [3, 2])
    def test_every_search_gets_its_own_hits(self, seed):
        """Four clients with overlapping searches and 5 % of forwards
        dropped: every lost real leg is retried with the search's own
        query, so every search ends ``ok`` with its own results."""
        config = CyclosaConfig(relay_timeout=1.5, max_retries=3)
        deployment = CyclosaNetwork.create(num_nodes=16, seed=seed,
                                           config=config)
        install(FaultPlan(seed=6, faults=(
            Drop(match=FORWARD_REQUESTS, probability=0.05),)), deployment)
        queries = workload_queries(40, seed=3)
        results = {index: [] for index in range(len(queries))}
        for index, query in enumerate(queries):
            node = deployment.nodes[index % 4]
            deployment.simulator.post(
                index * 0.4,
                lambda node=node, query=query, out=results[index]:
                    node.search(query, on_result=out.append, k_override=2))
        deployment.run(300.0)
        for index, query in enumerate(queries):
            (result,) = results[index]
            assert result["query"] == query
            assert result["status"] == "ok", (index, result["status"])
            assert [hit["url"] for hit in result["hits"]] == \
                engine_urls(deployment, query), index
        assert sum(node.stats.retries for node in deployment.nodes) > 0
        for node in deployment.nodes:
            assert node.outstanding_searches() == []
            assert node.stats.disjointness_violations == 0


QUERIES = ["flu symptoms treatment", "cheap flights paris",
           "football scores tonight", "laptop battery review",
           "cancer treatment options", "pasta recipe easy"]


class SearchLifecycleMachine(RuleBasedStateMachine):
    """Concurrent searches from two clients under injected faults."""

    @initialize(seed=st.integers(0, 3))
    def deploy(self, seed):
        config = CyclosaConfig(relay_timeout=1.0, max_retries=2)
        self.deployment = CyclosaNetwork.create(num_nodes=8, seed=seed,
                                                config=config)
        self.clients = self.deployment.nodes[:2]
        self.relays = self.deployment.nodes[2:]
        #: (query, results delivered) per issued search.
        self.issued = []
        self.plans = 0

    @rule(client=st.integers(0, 1), query=st.sampled_from(QUERIES),
          count=st.integers(1, 3))
    def search(self, client, query, count):
        """*count* searches in flight at once from one client."""
        for _ in range(count):
            fired = []
            self.issued.append((query, fired))
            self.clients[client].search(query, on_result=fired.append,
                                        k_override=2)

    @rule(probability=st.sampled_from([0.2, 0.5, 1.0]),
          seconds=st.floats(1.0, 10.0))
    def drop_forwards(self, probability, seconds):
        now = self.deployment.simulator.now
        self.plans += 1
        install(FaultPlan(seed=self.plans, faults=(
            Drop(match=FORWARD_REQUESTS, probability=probability,
                 start=now, end=now + seconds),)), self.deployment)

    @rule(extra=st.floats(0.5, 6.0))
    def delay_forwards(self, extra):
        now = self.deployment.simulator.now
        self.plans += 1
        install(FaultPlan(seed=self.plans, faults=(
            Delay(match=FORWARD_REQUESTS, extra=extra, probability=0.5,
                  start=now, end=now + 5.0),)), self.deployment)

    @rule(relay=st.integers(0, 5))
    def crash_relay(self, relay):
        """The relay's host accepts records and never answers (§III)."""
        self.relays[relay]._handle_forward = lambda ctx: None

    @rule(client=st.integers(0, 1), relay=st.integers(0, 5))
    def blacklist(self, client, relay):
        self.clients[client]._blacklist(self.relays[relay].address)

    @rule(relay=st.integers(0, 5))
    def churn_out(self, relay):
        node = self.relays[relay]
        if node.address in self.deployment.network.addresses():
            node.pss.stop()
            self.deployment.network.unregister(node.address)

    @rule(seconds=st.floats(0.05, 8.0))
    def advance(self, seconds):
        self.deployment.run(seconds)

    @invariant()
    def delivered_at_most_once(self):
        for query, fired in self.issued:
            assert len(fired) <= 1, query

    @invariant()
    def relay_legs_disjoint(self):
        for client in self.clients:
            assert client.stats.disjointness_violations == 0

    def teardown(self):
        if not hasattr(self, "deployment"):
            return
        self.deployment.run(600.0)
        for query, fired in self.issued:
            (result,) = fired
            assert result["query"] == query
            if result["status"] == "ok":
                assert [hit["url"] for hit in result["hits"]] == \
                    engine_urls(self.deployment, query)
        for client in self.clients:
            assert client.outstanding_searches() == []


TestSearchLifecycleMachine = SearchLifecycleMachine.TestCase
TestSearchLifecycleMachine.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None)
