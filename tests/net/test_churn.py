"""Tests for the churn process and overlay recovery under it."""

import random

import pytest

from repro.core.client import CyclosaNetwork
from repro.core.config import CyclosaConfig
from repro.net.churn import ChurnProcess


class TestChurnProcess:
    @pytest.fixture
    def deployment(self):
        config = CyclosaConfig(relay_timeout=2.0, max_retries=4)
        return CyclosaNetwork.create(num_nodes=14, seed=23, config=config,
                                     warmup_seconds=40)

    def test_crash_departures_fire_in_window(self, deployment):
        departed = []
        churn = ChurnProcess(deployment.network, deployment.rng,
                             repository=deployment.services.repository,
                             on_depart=departed.append)
        victims = deployment.nodes[10:13]
        now = deployment.simulator.now
        events = churn.schedule_departures(victims, start=now + 1,
                                           duration=10.0)
        assert all(now + 1 <= e.time <= now + 11 for e in events)
        deployment.run(15.0)
        assert sorted(departed) == sorted(v.address for v in victims)
        for victim in victims:
            assert victim.address not in deployment.network.addresses()

    def test_graceful_departure_retires_from_repo(self, deployment):
        churn = ChurnProcess(deployment.network, deployment.rng,
                             repository=deployment.services.repository)
        victim = deployment.nodes[9]
        churn.schedule_departures([victim],
                                  start=deployment.simulator.now + 1,
                                  duration=1.0, style="graceful")
        deployment.run(5.0)
        fresh_sample = deployment.services.repository.sample(100)
        assert victim.address not in fresh_sample

    def test_crash_leaves_stale_repo_entry(self, deployment):
        churn = ChurnProcess(deployment.network, deployment.rng,
                             repository=deployment.services.repository)
        victim = deployment.nodes[8]
        churn.schedule_departures([victim],
                                  start=deployment.simulator.now + 1,
                                  duration=1.0, style="crash")
        deployment.run(5.0)
        assert victim.address in deployment.services.repository.sample(100)

    def test_invalid_style_rejected(self, deployment):
        churn = ChurnProcess(deployment.network, deployment.rng)
        with pytest.raises(ValueError):
            churn.schedule_departures([], start=0, duration=1, style="odd")

    def test_past_window_rejected_with_clear_error(self, deployment):
        # The deployment warmed up, so sim.now is well past zero; a
        # window behind the clock used to blow up deep inside
        # Simulator.schedule — it must fail up front, naming both the
        # window and the current simulated time.
        churn = ChurnProcess(deployment.network, deployment.rng)
        now = deployment.simulator.now
        assert now > 0
        with pytest.raises(ValueError) as excinfo:
            churn.schedule_departures(deployment.nodes[10:12],
                                      start=now - 5.0, duration=3.0)
        message = str(excinfo.value)
        assert f"[{now - 5.0}, {now - 2.0}]" in message
        assert f"sim.now={now}" in message

    def test_window_starting_exactly_now_is_fine(self, deployment):
        departed = []
        churn = ChurnProcess(deployment.network, deployment.rng,
                             repository=deployment.services.repository,
                             on_depart=departed.append)
        now = deployment.simulator.now
        churn.schedule_departures(deployment.nodes[12:13], start=now,
                                  duration=2.0)
        deployment.run(3.0)
        assert departed == [deployment.nodes[12].address]

    def test_departures_counted_and_spanned_when_observed(self):
        from repro import obs

        obs.disable(reset=True)
        deployment = CyclosaNetwork.create(num_nodes=14, seed=23,
                                           warmup_seconds=40,
                                           observe=True)
        try:
            churn = ChurnProcess(deployment.network, deployment.rng,
                                 repository=deployment.services.repository)
            crash = deployment.nodes[10]
            graceful = deployment.nodes[11]
            now = deployment.simulator.now
            churn.schedule_departures([crash], start=now + 1,
                                      duration=1.0, style="crash")
            churn.schedule_departures([graceful], start=now + 1,
                                      duration=1.0, style="graceful")
            deployment.run(5.0)

            snapshot = obs.prometheus_snapshot(obs.OBS.registry)
            assert 'cyclosa_churn_departures_total{style="crash"} 1' \
                in snapshot
            assert 'cyclosa_churn_departures_total{style="graceful"} 1' \
                in snapshot
            # each victim's own sink holds its departure span
            for victim, style in ((crash, "crash"), (graceful, "graceful")):
                spans = [s for s in obs.OBS.router.sink(victim.address)
                         if s.name == "churn.departure"]
                assert len(spans) == 1
                assert spans[0].attributes == {"node": victim.address,
                                               "style": style}
                assert spans[0].finished
        finally:
            obs.disable(reset=True)

    def test_searches_survive_ongoing_churn(self, deployment):
        churn = ChurnProcess(deployment.network, deployment.rng,
                             repository=deployment.services.repository)
        churn.schedule_departures(deployment.nodes[9:13],
                                  start=deployment.simulator.now + 2,
                                  duration=30.0)
        outcomes = []
        for index in range(10):
            outcomes.append(deployment.node(index % 4).search(
                f"churn survival probe {index}", k_override=2,
                max_wait=180.0))
        successes = sum(1 for result in outcomes if result.ok)
        assert successes >= 8  # blacklist+retry absorbs the churn
