"""Partial views for gossip-based peer sampling.

A node's knowledge of the overlay is a bounded set of
:class:`NodeDescriptor` (address, age). Ages grow every gossip round and
reset when a fresh descriptor for the same address arrives; old
descriptors are the first to be evicted, which is what heals the
overlay after churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class NodeDescriptor:
    """One overlay entry: a peer address and how stale we believe it is."""

    address: str
    age: int

    def aged(self) -> "NodeDescriptor":
        return NodeDescriptor(self.address, self.age + 1)

    def fresh(self) -> "NodeDescriptor":
        return NodeDescriptor(self.address, 0)


class PartialView:
    """A bounded, age-aware set of peer descriptors."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("view capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[str, NodeDescriptor] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: str) -> bool:
        return address in self._entries

    def addresses(self) -> List[str]:
        return list(self._entries)

    def descriptors(self) -> List[NodeDescriptor]:
        return list(self._entries.values())

    def descriptor(self, address: str) -> NodeDescriptor:
        """The entry held for *address* (``KeyError`` if none)."""
        return self._entries[address]

    # -- mutation --------------------------------------------------------

    def insert(self, descriptor: NodeDescriptor) -> None:
        """Add or refresh one descriptor (youngest age wins)."""
        existing = self._entries.get(descriptor.address)
        if existing is None or descriptor.age < existing.age:
            self._entries[descriptor.address] = descriptor
        self._enforce_capacity()

    def increase_ages(self) -> None:
        """Start of a gossip round: everything we know gets older."""
        self._entries = {
            address: descriptor.aged()
            for address, descriptor in self._entries.items()
        }

    def remove(self, address: str) -> None:
        self._entries.pop(address, None)

    def _enforce_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            oldest = max(self._entries.values(), key=lambda d: d.age)
            del self._entries[oldest.address]

    # -- selection -------------------------------------------------------

    def oldest_peer(self) -> Optional[str]:
        """Tail peer selection: gossip with the most stale entry."""
        if not self._entries:
            return None
        return max(self._entries.values(),
                   key=lambda d: (d.age, d.address)).address

    def sample(self, count: int, rng,
               exclude: Sequence[str] = ()) -> List[str]:
        """Uniformly sample up to *count* distinct addresses."""
        excluded = set(exclude)
        candidates = [a for a in sorted(self._entries) if a not in excluded]
        if count >= len(candidates):
            return candidates
        return rng.sample(candidates, count)

    # -- gossip merge (Jelasity et al., Alg. 1 select_view) --------------

    def merge(self, received: Sequence[NodeDescriptor], sent: Sequence[NodeDescriptor],
              heal: int, swap: int, rng) -> None:
        """Combine the received buffer into the view.

        Follows the generic protocol's ``select_view``: append received
        descriptors (duplicates keep the youngest), then shrink back to
        capacity by removing — in order — ``heal`` oldest items, up to
        ``swap`` of the items we just sent, and finally random items.
        """
        for descriptor in received:
            existing = self._entries.get(descriptor.address)
            if existing is None or descriptor.age < existing.age:
                self._entries[descriptor.address] = descriptor

        overflow = len(self._entries) - self.capacity
        if overflow <= 0:
            return

        # H: heal — drop the oldest entries first.
        for _ in range(min(heal, overflow)):
            oldest = max(self._entries.values(),
                         key=lambda d: (d.age, d.address))
            del self._entries[oldest.address]
        overflow = len(self._entries) - self.capacity

        # S: swap — drop entries we pushed to the peer (they hold them now).
        if overflow > 0:
            for descriptor in sent[:swap]:
                if overflow <= 0:
                    break
                if descriptor.address in self._entries:
                    del self._entries[descriptor.address]
                    overflow -= 1

        # Random removal for whatever is still over.
        while len(self._entries) > self.capacity:
            victim = rng.choice(sorted(self._entries))
            del self._entries[victim]
