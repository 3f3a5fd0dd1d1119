"""Bounded LRU result cache for the engine tier.

Two caches use this class (see :mod:`repro.searchengine.node`):

- the per-replica **response cache** — final result pages keyed by
  query text, so a repeated query skips ranking and merging entirely;
  each entry also keeps the page's encoded body once a sealed answer
  has needed it, so a repeated sealed query is not re-encoded either;
- the per-shard **partial cache** — partial top-k lists keyed by the
  ranked term tuple, so sibling scatter-gather requests for a repeated
  query cost a dictionary lookup instead of a postings walk; each
  entry also keeps the encoding of its wire-hit list once a sibling
  has asked for it, which later shard replies splice in.

Privacy invariant (enforced by
:func:`repro.obs.audit.audit_cache_indistinguishability`): a cache hit
must be *indistinguishable from a miss to the adversary wiretap*. The
cache therefore never changes what goes on the wire or when — message
kinds, sealed sizes and response timing (drawn from the seeded latency
model) are identical either way, and a kept encoding is byte for byte
the one a miss would make. Only the wall-clock ranking and encoding
CPU is saved. That is why this class is a plain memo with statistics: all the
wire behaviour lives in the node, which consults the cache strictly
*after* the message flow for the query has been decided.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple


class ResultCache:
    """A bounded LRU mapping with hit/miss/eviction statistics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(found, value)``; a found entry becomes most-recently-used."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
