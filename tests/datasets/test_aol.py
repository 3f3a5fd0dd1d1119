"""Tests for the synthetic AOL log generator."""

import pytest

from repro.datasets.aol import (
    LOG_WINDOW_SECONDS,
    PAPER_SENSITIVE_RATE,
    SyntheticAolLog,
    generate_aol_log,
)
from repro.datasets.vocabulary import SENSITIVE_TOPICS


@pytest.fixture(scope="module")
def log():
    return generate_aol_log(num_users=80, mean_queries_per_user=80, seed=21)


class TestGeneration:
    def test_user_count(self, log):
        assert len(log.users) == 80

    def test_every_user_queries(self, log):
        for user in log.users:
            assert len(log.queries_of(user)) >= 5

    def test_sensitive_rate_calibrated(self, log):
        # §VII-C crowd-sourcing: 15.74 % of queries are sensitive.
        assert log.sensitive_rate() == pytest.approx(
            PAPER_SENSITIVE_RATE, abs=0.035)

    def test_labels_match_topics(self, log):
        for record in log.records[:500]:
            assert record.is_sensitive == (record.topic in SENSITIVE_TOPICS)

    def test_timestamps_in_window_and_sorted(self, log):
        times = [r.timestamp for r in log.records]
        assert times == sorted(times)
        assert all(0 <= t <= LOG_WINDOW_SECONDS for t in times)

    def test_queries_nonempty(self, log):
        assert all(record.text.strip() for record in log.records)

    def test_activity_is_skewed(self, log):
        counts = sorted(len(log.queries_of(u)) for u in log.users)
        assert counts[-1] > 3 * counts[len(counts) // 2]

    def test_deterministic(self):
        a = generate_aol_log(num_users=10, mean_queries_per_user=20, seed=5)
        b = generate_aol_log(num_users=10, mean_queries_per_user=20, seed=5)
        assert [r.text for r in a.records] == [r.text for r in b.records]

    def test_seed_changes_log(self):
        a = generate_aol_log(num_users=10, mean_queries_per_user=20, seed=5)
        b = generate_aol_log(num_users=10, mean_queries_per_user=20, seed=6)
        assert [r.text for r in a.records] != [r.text for r in b.records]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_aol_log(num_users=0)
        with pytest.raises(ValueError):
            generate_aol_log(num_users=5, exploration_rate=1.0)

    def test_users_are_distinguishable(self, log):
        # Two users' term sets should differ substantially — the property
        # SimAttack exploits.
        users = log.users[:2]
        terms = []
        for user in users:
            bag = set()
            for record in log.queries_of(user):
                bag.update(record.text.split())
            terms.append(bag)
        overlap = len(terms[0] & terms[1]) / min(len(terms[0]), len(terms[1]))
        assert overlap < 0.5


class TestLogApi:
    def test_most_active_users_sorted(self, log):
        ranked = log.most_active_users(10)
        counts = [len(log.queries_of(u)) for u in ranked]
        assert counts == sorted(counts, reverse=True)
        assert len(ranked) == 10

    def test_empty_log(self):
        empty = SyntheticAolLog(records=[], users=[])
        assert empty.sensitive_rate() == 0.0
        assert empty.most_active_users(5) == []
