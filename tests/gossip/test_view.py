"""Tests for repro.gossip.view."""

import random

import pytest

from repro.gossip.view import NodeDescriptor, PartialView


@pytest.fixture
def rng():
    return random.Random(17)


class TestDescriptor:
    def test_aged(self):
        d = NodeDescriptor("a", 2)
        assert d.aged().age == 3 and d.aged().address == "a"

    def test_fresh(self):
        assert NodeDescriptor("a", 9).fresh().age == 0


class TestPartialView:
    def test_capacity_enforced(self, rng):
        view = PartialView(capacity=3)
        for index in range(6):
            view.insert(NodeDescriptor(f"n{index}", age=index))
        assert len(view) == 3
        # Oldest entries were evicted first.
        assert set(view.addresses()) == {"n0", "n1", "n2"}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PartialView(capacity=0)

    def test_insert_keeps_youngest_duplicate(self):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=5))
        view.insert(NodeDescriptor("a", age=1))
        assert view.descriptors()[0].age == 1
        view.insert(NodeDescriptor("a", age=9))  # older: ignored
        assert view.descriptors()[0].age == 1

    def test_increase_ages(self):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=0))
        view.increase_ages()
        assert view.descriptors()[0].age == 1

    def test_oldest_peer(self):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("young", age=0))
        view.insert(NodeDescriptor("old", age=7))
        assert view.oldest_peer() == "old"

    def test_oldest_peer_empty(self):
        assert PartialView(capacity=4).oldest_peer() is None

    def test_sample_excludes(self, rng):
        view = PartialView(capacity=8)
        for index in range(8):
            view.insert(NodeDescriptor(f"n{index}", age=0))
        sample = view.sample(3, rng, exclude=["n0", "n1"])
        assert len(sample) == 3
        assert not {"n0", "n1"} & set(sample)

    def test_sample_excludes_an_iterator(self, rng):
        # The exclusion set is built once, so a one-pass iterable
        # excludes every address it yields, not only from the first
        # candidate's test.
        view = PartialView(capacity=8)
        for index in range(8):
            view.insert(NodeDescriptor(f"n{index}", age=0))
        assert view.sample(8, rng, exclude=iter(["n3", "n5"])) == \
            ["n0", "n1", "n2", "n4", "n6", "n7"]

    def test_descriptor(self):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=2))
        assert view.descriptor("a") == NodeDescriptor("a", 2)
        with pytest.raises(KeyError):
            view.descriptor("ghost")

    def test_sample_returns_all_when_small(self, rng):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=0))
        assert view.sample(10, rng) == ["a"]

    def test_remove(self):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=0))
        view.remove("a")
        assert len(view) == 0
        view.remove("ghost")  # idempotent


class TestMerge:
    def test_merge_keeps_capacity(self, rng):
        view = PartialView(capacity=4)
        for index in range(4):
            view.insert(NodeDescriptor(f"n{index}", age=index))
        received = [NodeDescriptor(f"r{index}", age=0) for index in range(4)]
        view.merge(received, sent=[], heal=2, swap=0, rng=rng)
        assert len(view) == 4

    def test_heal_removes_oldest_first(self, rng):
        view = PartialView(capacity=3)
        view.insert(NodeDescriptor("ancient", age=50))
        view.insert(NodeDescriptor("old", age=10))
        view.insert(NodeDescriptor("new", age=0))
        view.merge([NodeDescriptor("fresh", age=0)], sent=[],
                   heal=1, swap=0, rng=rng)
        assert "ancient" not in view
        assert "fresh" in view

    def test_swap_removes_sent_entries(self, rng):
        view = PartialView(capacity=3)
        a = NodeDescriptor("a", age=1)
        view.insert(a)
        view.insert(NodeDescriptor("b", age=1))
        view.insert(NodeDescriptor("c", age=1))
        view.merge([NodeDescriptor("d", age=0)], sent=[a],
                   heal=0, swap=1, rng=rng)
        assert "a" not in view
        assert "d" in view

    def test_merge_prefers_younger_duplicates(self, rng):
        view = PartialView(capacity=4)
        view.insert(NodeDescriptor("a", age=9))
        view.merge([NodeDescriptor("a", age=1)], sent=[],
                   heal=0, swap=0, rng=rng)
        assert view.descriptors()[0].age == 1
