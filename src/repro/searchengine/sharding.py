"""Sharded TF-IDF: partition the corpus, route clients to replicas.

The engine tier scales out by splitting the corpus across N replica
nodes (:mod:`repro.searchengine.node`), each indexing one shard. The
merged page must be byte-identical to the unsharded engine's at any
shard count. The merge is the engine's own page path
(:func:`repro.searchengine.engine.result_page`); the partition keeps
its two premises:

1. *Deterministic assignment* — document ``d`` lives in shard
   ``d.doc_id % num_shards`` and nowhere else, so every document is
   scored exactly once.
2. *Corpus-global IDF* — every shard scores with
   :meth:`SearchEngine.compute_idf` over the whole corpus, so a
   document's accumulated score is bit-for-bit the number the
   unsharded index would produce (same terms, same weights, same
   float-addition order). At one shard the engine is the unsharded
   one.

Routing maps each client identity to one replica by a stable hash, so
per-identity rate limiting keeps seeing an identity at one replica.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from repro.searchengine.corpus import Corpus, Document
from repro.searchengine.engine import SearchEngine


def shard_of(doc_id: int, num_shards: int) -> int:
    """The shard a document is assigned to (deterministic, total)."""
    return doc_id % num_shards


def shard_documents(corpus: Corpus,
                    num_shards: int) -> List[List[Document]]:
    """Partition the corpus documents by :func:`shard_of`, preserving
    corpus order within each shard."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    shards: List[List[Document]] = [[] for _ in range(num_shards)]
    for document in corpus.documents:
        shards[shard_of(document.doc_id, num_shards)].append(document)
    return shards


def build_shard_engines(corpus: Corpus, num_shards: int,
                        results_per_query: int = 10,
                        or_support: str = "native") -> List[SearchEngine]:
    """One :class:`SearchEngine` per shard, all sharing corpus-global
    IDF statistics."""
    idf = SearchEngine.compute_idf(corpus.documents)
    return [
        SearchEngine(corpus, results_per_query=results_per_query,
                     or_support=or_support, documents=shard, idf=idf)
        for shard in shard_documents(corpus, num_shards)
    ]


def replica_addresses(num_replicas: int) -> List[str]:
    """Transport addresses of the engine replica tier. Replica 0 keeps
    the historical ``engine`` address, so single-replica deployments
    stay byte-identical to the pre-sharding ones."""
    if num_replicas < 1:
        raise ValueError("num_replicas must be >= 1")
    return ["engine"] + [f"engine{index}"
                         for index in range(1, num_replicas)]


def route_to_replica(identity: str, addresses: Sequence[str]) -> str:
    """Deterministically assign a client identity to one replica.

    A stable content hash (crc32, seed-independent) keeps the mapping
    identical across runs and processes, so per-identity rate limiting
    (Fig 8d) keeps seeing every identity at the same replica.
    """
    if not addresses:
        raise ValueError("no replica addresses to route to")
    return addresses[zlib.crc32(identity.encode("utf-8")) % len(addresses)]
