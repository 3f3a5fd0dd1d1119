"""The search engine as a network service.

Wraps the pure :class:`~repro.searchengine.engine.SearchEngine` behind a
transport node with:

- a processing-latency model (commercial engines answer in a few
  hundred milliseconds; the default is calibrated for Fig 8a),
- the per-identity :class:`~repro.searchengine.ratelimit.RateLimiter`
  (one limiter per replica — Fig 8d reproduces per replica),
- the honest-but-curious :class:`~repro.searchengine.adversary.QueryLogTap`,
- TLS support, so enclaves can query over channels the relay host
  cannot read (§V-F: "CYCLOSA uses TLS connections to search engines
  ... established from within enclaves").

Two request flavours are served:

- ``search`` — plaintext payload ``{"query", "meta"}``; the identity
  logged is the transport source (used by Direct clients, TOR exits
  and the X-Search proxy).
- ``searchtls`` — payload is a sealed record on an established secure
  channel; the engine decrypts, serves and responds sealed.

``meta`` carries *evaluation-only* ground truth (true user, fake flag,
group id). It rides inside the encrypted payload, is copied verbatim to
the log tap, and is read exclusively by metric code — never by the
attack, which sees only (identity, text, time).

Engine tier scale-out
---------------------
A node is one replica of an engine tier of one or more (*cluster* lists
every replica address, ``None`` for a lone replica; *engine* holds this
replica's shard — see :mod:`repro.searchengine.sharding`). Every query
takes one serving path. The replica that receives it acts as its
coordinator: it plans the query
(:func:`~repro.searchengine.engine.query_plan`), ranks its own shard
into ``(-score, doc_id)`` keys, scatter-gathers partial top-k lists
from the sibling replicas over sealed channels (kind ``shard``), turns
each sibling's wire hit into a key, and merges the keys with the
engine's own :func:`~repro.searchengine.engine.result_page`, so the page
is byte-identical to the unsharded engine's. Each wire hit is built
once, where it is sent: a shard partial's ``d/u/s/t`` hits from this
shard's keys, and a page's ``doc_id/url/score/title`` hits from the
page's keys, with the url and title a sibling sent for its own
documents. No hit carries a snippet. A lone replica has no
siblings: its round ends at once, on its own partials. A sibling that
stays silent past *shard_timeout*, or whose reply is malformed, is
skipped (degraded page from the surviving shards — the chaos matrix's
replica-crash cell exercises exactly this).

Two caches and a batch window cut the ranking CPU without touching the
wire (*privacy invariant*: a cache hit is indistinguishable from a miss
to a wiretap — message kinds, sealed sizes and the seeded response
timing are identical either way; only wall-clock ranking and encoding
work is skipped):

- *response_cache* — final result pages per query at the coordinator,
  each with the ``{"hits", "status"}`` body a sealed answer carries,
  encoded for the first sealed job that reads the page;
- *partial_cache* — per-shard partial top-k keys per term tuple, each
  with the encoding of its ``d/u/s/t`` wire-hit list, made the first
  time a sibling asks for it; a shard reply splices these fragments
  (:func:`~repro.net.wire.splice_rows`) instead of re-encoding them;
- *batch_window* > 0 queues admitted queries on the simulated clock
  and serves each flush together: duplicates are ranked once and the
  whole batch shares one scatter-gather round per sibling, whose
  request is encoded once.

A coordinator keeps each sibling's reply as the plaintext its channel
authenticated and decodes the replies only when a query of the batch
misses the response cache, so a batch of cached queries reads none.
Only the cluster's replicas are served partials: a shard request from
any other address is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import IdentityKeyPair
from repro.net import wire
from repro.net.latency import LatencyModel, LogNormalLatency
from repro.net.tls import SecureChannelManager, SignatureAuthenticator, TlsError
from repro.net.transport import Network, NetNode, RequestContext
from repro.obs import (OBS, TraceContext, close_remote_span,
                       open_remote_span, query_hash_bucket)
from repro.searchengine.adversary import QueryLogTap
from repro.searchengine.cache import ResultCache
from repro.searchengine.engine import (RankKey, SearchEngine, query_plan,
                                       result_page)
from repro.searchengine.ratelimit import RateLimiter, RateLimitVerdict

DEFAULT_PROCESSING = LogNormalLatency(median=0.32, sigma=0.35)

#: RPC kind of the sealed replica-to-replica partial top-k exchange.
SHARD_KIND = "shard"


@dataclass
class _PendingQuery:
    """One admitted query waiting to be served (its batch, or its
    scatter-gather round, is still in flight)."""

    ctx: RequestContext
    identity: str
    query: str
    sealed_for: Any
    traceparent: Optional[str] = None


@dataclass
class _ScatterState:
    """Book-keeping of one scatter-gather round: the authenticated
    plaintext of each sibling's reply, decoded only if a page needs it."""

    pending: int
    replies: Dict[str, bytes] = field(default_factory=dict)
    done: bool = False


@dataclass
class _Encoded:
    """A cache entry: a value (a page's hits, or a shard partial's keys)
    and the encoding of what a reply sends of it, made when a reply
    first needs it."""

    value: Any
    encoding: Optional[bytes] = None


def _search_request(record: Any) -> Optional[Tuple[str, Dict[str, Any]]]:
    """``(query, meta)`` of a plaintext payload or opened sealed record,
    or ``None`` unless it is a dict whose ``query`` is a str and whose
    ``meta``, when present, is a dict. Clients are outside input."""
    if not isinstance(record, dict):
        return None
    query = record.get("query")
    meta = record.get("meta") or {}
    if not isinstance(query, str) or not isinstance(meta, dict):
        return None
    return query, meta


def _is_shard_request(record: Any) -> bool:
    """Whether a sibling's opened shard request is well formed: a
    non-negative int ``k`` and a ``q`` of per-query lists of term
    lists of strings. The sibling is outside input like any client."""
    if not isinstance(record, dict):
        return False
    topk, plans = record.get("k"), record.get("q")
    return (isinstance(topk, int) and not isinstance(topk, bool)
            and topk >= 0 and isinstance(plans, list)
            and all(isinstance(term_lists, list)
                    and all(isinstance(terms, list)
                            and all(isinstance(term, str) for term in terms)
                            for terms in term_lists)
                    for term_lists in plans))


def _is_wire_hit(hit: Any) -> bool:
    """Whether *hit* is one wire-encoded partial hit: an int ``d``, a
    str ``u``, a float ``s`` and a ``t`` list of str title terms."""
    if not isinstance(hit, dict):
        return False
    doc_id, title = hit.get("d"), hit.get("t")
    return (isinstance(doc_id, int) and not isinstance(doc_id, bool)
            and isinstance(hit.get("u"), str)
            and isinstance(hit.get("s"), float)
            and isinstance(title, list)
            and all(isinstance(term, str) for term in title))


def _shard_partials(record: Any, plans: Sequence[Sequence[Any]]
                    ) -> Optional[List[Any]]:
    """The partial top-k lists of a sibling's opened shard reply, or
    ``None`` unless they answer *plans*: one list per planned query, in
    plan order, holding one hit list per sub-query. A sibling is
    outside input like any client, so the coordinator checks its reply
    once, where it arrives."""
    if not isinstance(record, dict):
        return None
    partials = record.get("p")
    if not isinstance(partials, list) or len(partials) != len(plans):
        return None
    for term_lists, per_query in zip(plans, partials):
        if (not isinstance(per_query, list)
                or len(per_query) != len(term_lists)):
            return None
        for hits in per_query:
            if not isinstance(hits, list) or \
                    not all(_is_wire_hit(hit) for hit in hits):
                return None
    return partials


class SearchEngineNode(NetNode):
    """The engine's network front-end (one replica of the tier)."""

    def __init__(self, network: Network, engine: SearchEngine, rng,
                 address: str = "engine",
                 processing: Optional[LatencyModel] = None,
                 rate_limiter: Optional[RateLimiter] = None,
                 log_capacity: Optional[int] = None,
                 cluster: Optional[Sequence[str]] = None,
                 response_cache: Optional[ResultCache] = None,
                 partial_cache: Optional[ResultCache] = None,
                 batch_window: float = 0.0,
                 shard_timeout: float = 2.0) -> None:
        super().__init__(network, address)
        self.engine = engine
        self.rng = rng
        self.processing = processing or DEFAULT_PROCESSING
        self.rate_limiter = rate_limiter
        self.tap = QueryLogTap(capacity=log_capacity)
        self.identity = IdentityKeyPair.generate(bits=512, rng=rng)
        self.tls = SecureChannelManager(
            self, SignatureAuthenticator(self.identity), rng)
        self.cluster = list(cluster) if cluster else None
        self.siblings = ([peer for peer in self.cluster if peer != address]
                         if self.cluster else [])
        self.response_cache = response_cache
        self.partial_cache = partial_cache
        self.batch_window = batch_window
        self.shard_timeout = shard_timeout
        self._batch: List[_PendingQuery] = []

    # -- request handling --------------------------------------------------

    def handle_request(self, ctx: RequestContext) -> None:
        if self.tls.handle_handshake(ctx):
            return
        kind = ctx.request.kind
        if kind == "search.req":
            self._serve_plain(ctx)
        elif kind == "searchtls.req":
            self._serve_sealed(ctx)
        elif kind == f"{SHARD_KIND}.req":
            self._serve_shard(ctx)
        # Unknown kinds are silently dropped (the engine is not a peer).

    def _serve_plain(self, ctx: RequestContext) -> None:
        request = _search_request(ctx.request.payload)
        if request is None:
            return  # malformed request: drop
        query, meta = request
        self._admit_and_answer(ctx, ctx.request.src, query, meta,
                               sealed_for=None)

    def _serve_sealed(self, ctx: RequestContext) -> None:
        channel = self.tls.channel(ctx.request.src)
        if channel is None:
            return  # no channel: drop (client must handshake first)
        try:
            record = channel.open(ctx.request.payload)
        except TlsError:
            return  # replayed, forged or corrupted record: drop
        request = _search_request(record)
        if request is None:
            return
        query, meta = request
        self._admit_and_answer(
            ctx, ctx.request.src, query, meta,
            sealed_for=channel, traceparent=record.get("tp"))

    def _emit_serve_span(self, traceparent: Optional[str], query: str,
                         status: str, hits: int, delay: float) -> None:
        """The engine-side span of a distributed trace.

        The propagated context arrived inside the sealed record; the
        span carries only a hash bucket of the query (never text) and
        the same attribute keys whatever the record held, so an
        observer of the telemetry cannot tell real from fake legs.
        """
        trace_ctx = TraceContext.from_traceparent(traceparent)
        if trace_ctx is None:
            return
        span = open_remote_span(
            OBS.tracer, "engine.serve", trace_ctx, node=self.address,
            attributes={"status": status, "hits": hits,
                        "query_bucket": query_hash_bucket(query)})
        close_remote_span(OBS.router, self.address, span,
                          end_time=span.start + delay)

    def _admit_and_answer(self, ctx: RequestContext, identity: str,
                          query: str, meta: Dict[str, Any],
                          sealed_for, traceparent: Optional[str] = None
                          ) -> None:
        now = self.network.simulator.now
        if self.rate_limiter is not None:
            verdict = self.rate_limiter.check(identity, now)
            if OBS.enabled:
                # Counted here, at the front-end, rather than inside
                # the limiter: fault injection can wrap the limiter
                # (rate-limit storms) and those forced captchas must
                # show up in the per-window verdict series too.
                OBS.registry.counter(
                    "cyclosa_engine_ratelimit_verdicts_total",
                    "admission verdicts issued by the engine front-end",
                    verdict=verdict.value).inc()
            if verdict is RateLimitVerdict.CAPTCHA:
                response: Dict[str, Any] = {"status": "captcha", "hits": []}
                if OBS.enabled:
                    self._emit_serve_span(traceparent, query,
                                          status="captcha", hits=0,
                                          delay=0.005)
                self._respond_after_delay(
                    ctx, response if sealed_for is None
                    else wire.encode(response), sealed_for, delay=0.005)
                return
        # Honest-but-curious: log *then* serve faithfully (§III).
        self.tap.record(
            identity=identity, text=query, timestamp=now,
            true_user=meta.get("true_user"),
            is_fake=bool(meta.get("is_fake", False)),
            group_id=meta.get("group_id"))
        if OBS.enabled:
            OBS.registry.counter("cyclosa_engine_queries_total",
                                 "queries served by the engine").inc()
            OBS.registry.counter(
                "cyclosa_engine_replica_queries_total",
                "queries served, per engine replica",
                replica=self.address).inc()
        job = _PendingQuery(ctx=ctx, identity=identity, query=query,
                            sealed_for=sealed_for, traceparent=traceparent)
        if self.batch_window > 0:
            self._batch.append(job)
            if len(self._batch) == 1:
                self.network.simulator.post(self.batch_window,
                                            self._flush_batch)
            return
        self._serve_jobs([job])

    # -- batching ----------------------------------------------------------

    def _flush_batch(self) -> None:
        jobs, self._batch = self._batch, []
        if not jobs:
            return
        if OBS.enabled:
            OBS.registry.histogram(
                "cyclosa_engine_batch_size",
                "admitted queries per batch-window flush").observe(len(jobs))
        self._serve_jobs(jobs)

    # -- serving -----------------------------------------------------------

    def _serve_jobs(self, jobs: List[_PendingQuery]) -> None:
        """Serve a set of admitted queries together: duplicates are
        ranked once, and the whole set shares one scatter-gather round
        per sibling replica (none for a lone replica)."""
        unique = list(dict.fromkeys(job.query for job in jobs))
        topk = self.engine.results_per_query
        plans = [query_plan(query, self.engine.or_support)
                 for query in unique]
        state = _ScatterState(pending=len(self.siblings))

        def conclude() -> None:
            if state.done or state.pending > 0:
                return
            state.done = True
            self._finish_jobs(jobs, unique, plans, state.replies)

        if self.siblings:
            request = wire.encode({"q": plans, "k": topk})
        for sibling in self.siblings:
            channel = self.tls.channel(sibling)
            if channel is None:
                state.pending -= 1
                continue

            def on_reply(payload: Any, channel=channel,
                         sibling=sibling) -> None:
                try:
                    state.replies[sibling] = channel.open_bytes(payload)
                except TlsError:
                    pass  # degrade as if silent
                state.pending -= 1
                conclude()

            def on_timeout(sibling=sibling) -> None:
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_engine_shard_timeouts_total",
                        "sibling scatter-gather requests that timed out",
                        replica=self.address).inc()
                state.pending -= 1
                conclude()

            self.request(sibling, channel.seal_bytes(request, rng=self.rng),
                         on_reply, timeout=self.shard_timeout,
                         on_timeout=on_timeout, kind=SHARD_KIND)
        conclude()  # no sibling, or none with a channel

    def _serve_shard(self, ctx: RequestContext) -> None:
        """Answer a sibling coordinator's sealed partial top-k request."""
        if ctx.request.src not in self.siblings:
            return  # partials are for the cluster's replicas only
        channel = self.tls.channel(ctx.request.src)
        if channel is None:
            return
        try:
            record = channel.open(ctx.request.payload)
        except TlsError:
            return
        if not _is_shard_request(record):
            return  # malformed: the coordinator degrades without it
        topk = record["k"]
        reply = wire.splice_rows("p", [
            [self._partial_fragment(terms, topk) for terms in term_lists]
            for term_lists in record["q"]
        ])
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_engine_shard_requests_total",
                "sibling partial top-k requests served",
                replica=self.address).inc()
        ctx.respond(channel.seal_bytes(reply, rng=self.rng))

    def _partial(self, terms: Sequence[str], topk: int) -> _Encoded:
        """This replica's shard partial for *terms*: its keys, through
        the partial cache when one is configured."""
        if self.partial_cache is None:
            return _Encoded(self.engine.rank_terms(terms, topk))
        key = (tuple(terms), topk)
        found, partial = self.partial_cache.get(key)
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_engine_shard_lookups_total",
                "partial-cache lookups at shard ranking time",
                replica=self.address,
                result="hit" if found else "miss").inc()
        if not found:
            partial = _Encoded(self.engine.rank_terms(terms, topk))
            self.partial_cache.put(key, partial)
        return partial

    def _partial_fragment(self, terms: Sequence[str], topk: int) -> bytes:
        """The encoded wire-hit list of this shard's partial for
        *terms*, as a shard reply carries it; encoded once per partial
        cache entry."""
        partial = self._partial(terms, topk)
        if partial.encoding is None:
            partial.encoding = wire.encode(self._encode_hits(partial.value))
        return partial.encoding

    def _encode_hits(self, keys: Sequence[RankKey]) -> List[Dict[str, Any]]:
        """This shard's partial keys as wire hits: doc id, url, score
        and title terms."""
        hits = []
        for negated, doc_id in keys:
            document = self.engine.document(doc_id)
            hits.append({"d": doc_id, "u": document.url, "s": -negated,
                         "t": list(document.title_terms)})
        return hits

    def _result_page(self, plan: Sequence[Sequence[str]],
                     partials: Sequence[Sequence[Any]]
                     ) -> List[Dict[str, Any]]:
        """The final ``hits`` page for one planned query (coordinator
        side): this replica's partial keys and each answering sibling's
        *partials*, one wire hit list per sub-query taken as keys,
        through :func:`result_page`. A sibling's hit keeps the url and
        title terms it sent; this replica looks up its own."""
        topk = self.engine.results_per_query
        sent: Dict[int, Dict[str, Any]] = {}
        subquery_partials = []
        for sub_index, terms in enumerate(plan):
            shard_partials = [self._partial(terms, topk).value]
            for partial in partials:
                keys = []
                for hit in partial[sub_index]:
                    sent[hit["d"]] = hit
                    keys.append((-hit["s"], hit["d"]))
                shard_partials.append(keys)
            subquery_partials.append(shard_partials)
        page = []
        for negated, doc_id in result_page(subquery_partials, topk):
            hit = sent.get(doc_id)
            if hit is None:
                document = self.engine.document(doc_id)
                url, title = document.url, document.title_terms
            else:
                url, title = hit["u"], hit["t"]
            page.append({"doc_id": doc_id, "url": url, "score": -negated,
                         "title": list(title)})
        return page

    def _sibling_partials(self, replies: Dict[str, bytes],
                          plans: List[List[List[str]]]) -> List[Any]:
        """The partials of each sibling, in cluster order, whose reply
        decodes and answers *plans*. Silent or malformed siblings are
        missing: the page degrades to the surviving shards."""
        answered = []
        for sibling in self.siblings:
            if sibling not in replies:
                continue
            try:
                record = wire.decode(replies[sibling])
            except wire.DECODE_ERRORS:
                continue
            partials = _shard_partials(record, plans)
            if partials is not None:
                answered.append(partials)
        return answered

    def _finish_jobs(self, jobs: List[_PendingQuery], unique: List[str],
                     plans: List[List[List[str]]],
                     replies: Dict[str, bytes]) -> None:
        answered = None  # the sibling partials, read at the first miss
        pages: Dict[str, _Encoded] = {}
        for plan_index, query in enumerate(unique):
            if self.response_cache is not None:
                found, page = self.response_cache.get(query)
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_engine_cache_lookups_total",
                        "response-cache lookups at the replica front-end",
                        replica=self.address,
                        result="hit" if found else "miss").inc()
                if found:
                    pages[query] = page
                    continue
            if answered is None:
                answered = self._sibling_partials(replies, plans)
            page = _Encoded(self._result_page(
                plans[plan_index],
                [partials[plan_index] for partials in answered]))
            if self.response_cache is not None:
                self.response_cache.put(query, page)
            pages[query] = page
        for job in jobs:
            page = pages[job.query]
            hits = page.value
            if job.sealed_for is None:
                response: Any = {"status": "ok", "hits": list(hits)}
            else:
                if page.encoding is None:
                    page.encoding = wire.encode({"hits": hits,
                                                 "status": "ok"})
                response = page.encoding
            delay = self.processing.sample(self.rng)
            if OBS.enabled:
                OBS.registry.histogram(
                    "cyclosa_engine_processing_seconds",
                    "engine-side processing latency per answered query"
                ).observe(delay)
                span = OBS.tracer.start_span("engine_processing", attributes={
                    "identity": job.identity})
                OBS.tracer.end_span(span, end_time=span.start + delay)
                self._emit_serve_span(job.traceparent, job.query, status="ok",
                                      hits=len(hits), delay=delay)
            self._respond_after_delay(job.ctx, response, job.sealed_for,
                                      delay=delay)

    def _respond_after_delay(self, ctx: RequestContext, response: Any,
                             sealed_for, delay: float) -> None:
        """Answer *ctx* after *delay* with *response*; when *sealed_for*
        is a channel, *response* is the plaintext encoding to seal on it."""
        def respond() -> None:
            if sealed_for is not None:
                ctx.respond(sealed_for.seal_bytes(response, rng=self.rng))
            else:
                ctx.respond(response)

        self.network.simulator.post(delay, respond)
