"""Term vectors and cosine similarity.

The paper's linkability assessment (§V-A2) and SimAttack (§VII-E) both
represent a query as a *binary* vector over its terms and compare with
cosine similarity.
"""

from __future__ import annotations

import math
from typing import FrozenSet

from repro.text.cache import DEFAULT_QUERY_CACHE_SIZE, LruCache
from repro.text.tokenize import stemmed_terms, tokenize

#: (query text, stem?) -> frozenset vector. Immutable values, shared.
_VECTOR_CACHE = LruCache("query_vectors", DEFAULT_QUERY_CACHE_SIZE)


def query_vector(text: str, stem: bool = True) -> FrozenSet[str]:
    """The binary term-set representation of a query.

    Memoized behind a bounded LRU (see :mod:`repro.text.cache`): the
    sensitivity pipeline, SimAttack and the baselines all vectorize the
    same query strings repeatedly, and the returned ``frozenset`` is
    immutable so one instance serves every caller.
    """
    key = (text, stem)
    try:
        return _VECTOR_CACHE.lookup(key)
    except KeyError:
        terms = stemmed_terms(text) if stem else tokenize(text)
        return _VECTOR_CACHE.store(key, frozenset(terms))


def cosine_binary(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Cosine similarity between two binary term sets.

    Equals ``|A ∩ B| / sqrt(|A| |B|)``; 0.0 when either set is empty.
    """
    if not a or not b:
        return 0.0
    # Iterate over the smaller set for speed.
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    overlap = sum(1 for term in small if term in large)
    if overlap == 0:
        return 0.0
    return overlap / math.sqrt(len(a) * len(b))
