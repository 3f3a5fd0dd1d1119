"""The CYCLOSA node: browser extension + enclave (§IV, §V).

One node plays both roles of the protocol:

- **Client**: assess the local user's query sensitivity (outside the
  enclave — it only involves the user's own data), pick ``k + 1``
  random relays from the peer-sampling view, have the enclave build one
  sealed record per relay (real query to one, indistinguishable fakes
  to the others), dispatch them, and surface only the real query's
  results.
- **Relay**: accept sealed records from attested peers, let the enclave
  store the query and re-seal it for the engine, forward, and route the
  sealed answer back. The relay host never sees any plaintext.

Failure handling follows §VI-b: a relay that does not respond within
the timeout is blacklisted (dropped from the view and its channel
forgotten) and the real query is retried through a different peer.

A protected search moves through the phases of :data:`TRANSITIONS`
(``connecting`` → ``sent`` → ``done``, with ``backoff`` between a lost
real leg and its retry); :meth:`ProtectedSearch.move` refuses any other
move with :class:`LifecycleError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Set,
                    Tuple)

from repro.core.adaptive import choose_k
from repro.core.config import CyclosaConfig
from repro.core.enclave import CyclosaEnclave
from repro.core.sensitivity import (
    LinkabilityAssessor,
    SemanticAssessor,
    SensitivityAnalysis,
)
from repro.gossip.bootstrap_repo import PublicRepository
from repro.gossip.peer_sampling import PeerSamplingService
from repro.net.transport import Network, NetNode, RequestContext
from repro.obs import (OBS, TraceContext, close_remote_span,
                       open_remote_span, remote_context)
from repro.net.tls import SecureChannelManager, SgxAuthenticator, SignatureAuthenticator
from repro.searchengine.sharding import route_to_replica
from repro.sgx.attestation import IntelAttestationService, MeasurementPolicy
from repro.sgx.enclave import EnclaveHost

FORWARD_KIND = "cyclosa.fwd"

#: The protected-search lifecycle: phase -> the phases it may move to.
#:
#: - ``connecting``: channels to the relays are being attested, and the
#:   real record is sealed and queued (the first dispatch, or a retry's
#:   replacement relay);
#: - ``sent``: the real record is in flight;
#: - ``backoff``: the real leg was lost; the §VI-b retry waits out its
#:   backoff;
#: - ``done``: a terminal status was delivered.
TRANSITIONS: Dict[str, FrozenSet[str]] = {
    "connecting": frozenset({"sent", "backoff", "done"}),
    "sent": frozenset({"backoff", "done"}),
    "backoff": frozenset({"connecting", "done"}),
    "done": frozenset(),
}


class LifecycleError(RuntimeError):
    """A search was asked to make a move :data:`TRANSITIONS` forbids."""


@dataclass
class CyclosaServices:
    """Deployment-wide services every node shares."""

    ias: IntelAttestationService
    policy: MeasurementPolicy
    repository: PublicRepository
    engine_address: str
    bootstrap_queries: List[str] = field(default_factory=list)
    #: Every engine replica's address (scale-out tier); empty means a
    #: single engine at ``engine_address``. Each node is pinned to one
    #: replica by a stable hash of its own address, so the per-identity
    #: rate limiter at that replica keeps seeing the same identities.
    engine_addresses: Tuple[str, ...] = ()


@dataclass
class NodeStats:
    """Per-node counters surfaced to the experiments."""

    queries_issued: int = 0
    fakes_sent: int = 0
    relayed: int = 0
    retries: int = 0
    blacklisted_peers: int = 0
    #: Searches whose real-query relay set ever intersected the fake
    #: legs' relay set (§V one-query-per-relay property; must stay 0).
    disjointness_violations: int = 0


@dataclass
class ProtectedSearch:
    """Book-keeping for one in-flight protected query."""

    query: str
    k: int
    issued_at: float
    on_result: Callable[[Dict[str, Any]], None]
    retries_left: int
    real_token: Optional[str] = None
    #: Where the search is in :data:`TRANSITIONS`; change it with
    #: :meth:`move`.
    phase: str = "connecting"
    #: Node-unique id; the search stays in ``CyclosaNode._searches``
    #: until a terminal status is delivered (hang detection).
    search_id: str = ""
    #: Retry attempts consumed so far (drives the backoff schedule).
    attempts: int = 0
    #: Every relay that ever carried the real query (initial dispatch
    #: plus §VI-b retries) / a fake leg. Replacement draws exclude the
    #: union, so the two sets stay disjoint across retries (§V).
    real_relays: Set[str] = field(default_factory=set)
    fake_relays: Set[str] = field(default_factory=set)
    #: Root span of this query's trace (None when obs is disabled).
    trace_root: Optional[Any] = None
    #: The open ``engine`` stage span (real record in flight).
    engine_span: Optional[Any] = None
    #: Distributed tracing: relay -> (path index, reserved span id of
    #: that leg's ``path`` span). The same span id is embedded (as the
    #: parent) in the sealed record bound for that relay.
    path_info: Dict[str, Any] = field(default_factory=dict)
    #: Open per-leg ``path`` spans, keyed by path index.
    path_spans: Dict[int, Any] = field(default_factory=dict)
    #: Next fan-out leg number — retries continue numbering past k.
    next_path: int = 0

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def move(self, phase: str) -> None:
        """Enter *phase*; raise :class:`LifecycleError` if the current
        phase does not allow it."""
        if phase not in TRANSITIONS[self.phase]:
            raise LifecycleError(
                f"search {self.search_id}: {self.phase} -> {phase}")
        self.phase = phase


class CyclosaNode(NetNode):
    """One participant: untrusted extension code + trusted enclave."""

    def __init__(self, network: Network, address: str, rng,
                 config: CyclosaConfig, services: CyclosaServices,
                 semantic: Optional[SemanticAssessor] = None,
                 user_id: Optional[str] = None) -> None:
        super().__init__(network, address)
        self.rng = rng
        self.config = config
        self.services = services
        self.user_id = user_id or address
        #: The engine replica this node (as client *and* relay) talks
        #: to — a stable hash of the node address over the tier's
        #: addresses, so the assignment survives restarts and keeps
        #: per-identity rate limiting per replica meaningful.
        self.engine_address = route_to_replica(
            address, services.engine_addresses or (services.engine_address,))
        self.stats = NodeStats()

        # -- trusted side ------------------------------------------------
        self.host = EnclaveHost(rng)
        self.enclave: CyclosaEnclave = self.host.create_enclave(
            CyclosaEnclave,
            table_capacity=config.table_capacity,
            bytes_per_table_entry=config.bytes_per_table_entry)
        services.ias.provision_host(self.host)

        # -- channel managers ---------------------------------------------
        # Peer channels require mutual remote attestation (§V-D); keys
        # land inside the enclave on establishment, both directions.
        self.peer_tls = SecureChannelManager(
            self,
            SgxAuthenticator(self.enclave, self.host, services.ias,
                             services.policy),
            rng, kind="atls",
            on_established=lambda ch: self.enclave.install_peer_channel(
                ch.peer, ch))
        # The engine channel is ordinary server-auth TLS, terminated
        # inside the enclave (§V-F).
        self.engine_tls = SecureChannelManager(
            self,
            SignatureAuthenticator(self.enclave.identity),
            rng, kind="tls",
            on_established=lambda ch: self.enclave.install_engine_channel(ch))

        # -- overlay -----------------------------------------------------
        self.pss = PeerSamplingService(
            self, rng, view_size=config.view_size,
            interval=config.gossip_interval)

        # -- sensitivity (untrusted: local user's own data, §IV) ----------
        self.sensitivity = SensitivityAnalysis(
            semantic=semantic or SemanticAssessor(),
            linkability=LinkabilityAssessor(alpha=config.smoothing_alpha))

        # -- sealed persistence -------------------------------------------
        from repro.sgx.sealing import SealingService

        self.sealing = SealingService(self.host.platform_id, rng)

        self._searches: Dict[str, ProtectedSearch] = {}
        self._search_ids = itertools.count()
        #: Trace id of the most recently issued search (None when obs
        #: is disabled); the synchronous facade surfaces it.
        self.last_trace_id: Optional[str] = None

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def bootstrap(self) -> None:
        """Join the overlay: publish, seed the view and the fake table,
        start gossip, open the engine channel (§V-D)."""
        repo = self.services.repository
        self.pss.bootstrap(repo.sample(self.config.bootstrap_sample,
                                       exclude=[self.address]))
        repo.publish(self.address)
        self.pss.start()
        if self.services.bootstrap_queries:
            self.enclave.seed_table(
                list(self.services.bootstrap_queries[: self.config.bootstrap_trends]))
        self.engine_tls.establish(
            self.engine_address,
            on_ready=lambda channel: None)

    def preload_history(self, queries: List[str]) -> None:
        """Load the user's pre-CYCLOSA search history (the linkability
        assessment compares new queries against it, §V-A2)."""
        self.sensitivity.remember(*queries)

    def persist_table(self):
        """Seal the enclave's past-queries table for storage across
        browser restarts. Returns an opaque blob the untrusted host can
        keep on disk but cannot read."""
        return self.enclave.seal_table(self.sealing)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def search(self, query: str,
               on_result: Callable[[Dict[str, Any]], None],
               k_override: Optional[int] = None) -> int:
        """Issue one protected search; *on_result* receives a dict with
        ``query``, ``k``, ``hits``, ``latency`` and ``status``.

        Returns the chosen ``k`` (useful to experiments). Pass
        *k_override* to bypass the adaptive rule (the latency sweeps of
        Fig 8b fix k explicitly).
        """
        tracer = OBS.tracer if OBS.enabled else None
        root = None
        if tracer is not None:
            root = tracer.start_span("search", attributes={
                "node": self.address, "query_terms": len(query.split())})
        self.last_trace_id = root.trace_id if root is not None else None

        if k_override is not None:
            k = k_override
            assessed = {"skipped": True}
            chosen = {"k": k, "override": True}
        else:
            report = self.sensitivity.assess(query)
            k = choose_k(report, self.config.kmax)
            assessed = {"semantic_sensitive": report.semantic_sensitive,
                        "linkability": report.linkability}
            chosen = {"k": k}
        if tracer is not None:
            # Emit the assessment stages even when bypassed, so every
            # trace carries the full six-stage pipeline.
            for name, attributes in (("sensitivity", assessed),
                                     ("adaptive_k", chosen)):
                tracer.end_span(tracer.start_span(
                    name, parent=root, attributes=attributes))
        self.sensitivity.remember(query)
        self.stats.queries_issued += 1
        if OBS.enabled:
            OBS.registry.counter("cyclosa_core_searches_total",
                                 "protected searches issued").inc()

        # The enclave can only produce as many distinct fakes as its
        # table holds; clamp k so relay selection matches.
        k = min(k, self.enclave.table_size())
        if root is not None:
            root.set_attribute("k", k)

        search = ProtectedSearch(
            query=query, k=k, issued_at=self.network.simulator.now,
            on_result=on_result, retries_left=self.config.max_retries,
            trace_root=root,
            search_id=f"{self.address}/s{next(self._search_ids):06d}")
        self._searches[search.search_id] = search
        relays = self.pss.random_peers(k + 1, exclude=[self.address])
        if not relays:
            self._finish(search, status="no-peers", hits=[])
            return k
        # Small view: degrade protection rather than fail (§V-C always
        # sends the real query).
        search.k = len(relays) - 1
        self._ensure_channels(relays,
                              lambda ready: self._dispatch(search, ready))
        return k

    def outstanding_searches(self) -> List[ProtectedSearch]:
        """Issued searches that have not yet reached a terminal status.

        Every protected search must terminate — with ``ok``,
        ``captcha``, ``no-peers``, ``relay-failure`` or
        ``channel-failure`` — whatever the overlay does (§VI-b). The
        chaos harness drains the simulator and asserts this is empty;
        a non-empty result after a drain is a hung search, i.e. a bug.
        """
        return list(self._searches.values())

    def outstanding_count(self) -> int:
        """Backlog depth: ``len(outstanding_searches())`` without the
        copy — cheap enough for pull-gauge collectors to call on every
        registry snapshot."""
        return len(self._searches)

    # -- relay selection -------------------------------------------------

    def _ensure_channels(self, relays: List[str],
                         proceed: Callable[[List[str]], None]) -> None:
        """Attest-and-connect any relay we lack a channel with, then
        call *proceed* with those that succeeded."""
        missing = [r for r in relays if not self.enclave.has_peer_channel(r)]
        if not missing:
            proceed(relays)
            return
        outcome = {"waiting": len(missing), "failed": set()}

        def settle(peer: str, ok: bool) -> None:
            if not ok:
                outcome["failed"].add(peer)
                self._blacklist(peer)
            outcome["waiting"] -= 1
            if outcome["waiting"] == 0:
                ready = [r for r in relays if r not in outcome["failed"]]
                proceed(ready)

        for peer in missing:
            self.peer_tls.establish(
                peer,
                on_ready=lambda ch, p=peer: settle(p, True),
                on_fail=lambda reason, p=peer: settle(p, False),
                timeout=self.config.relay_timeout)

    # -- dispatch ----------------------------------------------------------

    def _reserve_leg(self, search: ProtectedSearch, relay: str) -> str:
        """Number a new fan-out leg to *relay* and reserve the id of its
        ``path`` span; return the traceparent its sealed record carries,
        so the relay's spans attach under that span."""
        path = search.next_path
        search.next_path += 1
        leg_id = OBS.tracer.reserve_span_id()
        search.path_info[relay] = (path, leg_id)
        return TraceContext(search.trace_root.trace_id, leg_id,
                            path).to_traceparent()

    def _dispatch(self, search: ProtectedSearch, relays: List[str]) -> None:
        # Channels are re-checked at dispatch time: while
        # _ensure_channels waited on other handshakes, a concurrent
        # search's timeout may have blacklisted an already-ready relay
        # and dropped its channel. Sealing for it would raise; dropping
        # it degrades k instead (same policy as a small view).
        relays = [r for r in relays if self.enclave.has_peer_channel(r)]
        if not relays:
            # Peers existed but no channel could be established
            # (attestation denied, handshakes timed out): distinct from
            # an empty view, and still a terminal status — never a hang.
            self._finish(search, status="channel-failure", hits=[])
            return
        search.k = len(relays) - 1
        tracer = (OBS.tracer if OBS.enabled and search.trace_root is not None
                  else None)
        trace_contexts = root_ctx = None
        if tracer is not None:
            fake_span = tracer.start_span("fake_generation",
                                          parent=search.trace_root)
            trace_contexts = {relay: self._reserve_leg(search, relay)
                              for relay in relays}
            root_ctx = TraceContext(search.trace_root.trace_id,
                                    search.trace_root.span_id, 0)
        with remote_context(self.address, root_ctx):
            batch, real_relay, search.real_token = (
                self.enclave.build_protected_batch(
                    search.query, search.k, relays,
                    true_user=self.user_id, trace_contexts=trace_contexts))
        search.real_relays.add(real_relay)
        self.stats.fakes_sent += max(0, len(batch) - 1)
        # Enclave crypto cost + per-record client overhead stagger the
        # sends — this serialization is why latency grows with k (Fig 8b).
        delay = self.host.meter.take()
        if tracer is not None:
            # The modelled enclave time for sealing the batch is the
            # meter cost just drained — stamp it as the span's width.
            fake_span.set_attributes({"k": search.k,
                                      "records": len(batch)})
            tracer.end_span(fake_span, end_time=fake_span.start + delay)
            fanout_span = tracer.start_span(
                "fanout", parent=search.trace_root,
                attributes={"records": len(batch)})
        for relay, sealed in batch:
            delay += self.config.client_request_overhead
            is_real = relay == real_relay
            if not is_real:
                search.fake_relays.add(relay)
            self.network.simulator.post(
                delay,
                lambda r=relay, s=sealed, real=is_real: self._send_record(
                    search, r, s, real))
        if tracer is not None:
            # The fan-out stage lasts until the last staggered record
            # leaves the extension: start + the accumulated delay.
            tracer.end_span(fanout_span,
                            end_time=fanout_span.start + delay)

    def _send_record(self, search: ProtectedSearch, relay: str,
                     sealed: bytes, is_real: bool) -> None:
        if is_real:
            search.move("sent")
        elif search.done:
            return  # a fake leg still queued when the real result came
        if OBS.enabled and search.trace_root is not None:
            info = search.path_info.get(relay)
            if info is not None and info[0] not in search.path_spans:
                # The leg's "path" span: from the record leaving the
                # extension until its response (or timeout) returns.
                # Its id was reserved by _reserve_leg and is the parent
                # the relay's spans join to.
                path, leg_id = info
                root = search.trace_root
                search.path_spans[path] = open_remote_span(
                    OBS.tracer, "path",
                    TraceContext(root.trace_id, root.span_id, path),
                    node=self.address, span_id=leg_id,
                    attributes={"relay": relay})
            if is_real:
                # The "engine" stage: the real record's round trip
                # through its relay to the search engine and back.
                search.engine_span = OBS.tracer.start_span(
                    "engine", parent=search.trace_root,
                    attributes={"relay": relay, "bytes": len(sealed)})
        self.request(relay, sealed,
                     lambda payload: self._on_relay_response(
                         search, relay, payload, is_real),
                     timeout=self.config.relay_timeout * 4,
                     on_timeout=lambda: self._on_relay_timeout(
                         search, relay, is_real),
                     size_bytes=len(sealed), kind=FORWARD_KIND)

    # -- responses ---------------------------------------------------------

    def _close_path_span(self, search: ProtectedSearch, relay: str,
                         timed_out: bool = False) -> None:
        """End the fan-out leg's ``path`` span (response or timeout)."""
        info = search.path_info.get(relay)
        if info is None:
            return
        span = search.path_spans.pop(info[0], None)
        if span is None or span.finished:
            return
        if timed_out:
            span.set_attribute("timeout", True)
        OBS.tracer.end_span(span)

    def _close_engine_span(self, search: ProtectedSearch,
                           **attributes: Any) -> None:
        """End the open ``engine`` stage span, tagged with how the real
        leg ended."""
        span = search.engine_span
        if span is None or not OBS.enabled:
            return
        search.engine_span = None
        span.set_attributes(attributes)
        OBS.tracer.end_span(span)

    def _on_relay_response(self, search: ProtectedSearch, relay: str,
                           payload: Any, is_real: bool) -> None:
        result = None
        if isinstance(payload, (bytes, bytearray)):
            leg_ctx = None
            if OBS.enabled:
                self._close_path_span(search, relay)
                info = search.path_info.get(relay)
                if info is not None and search.trace_root is not None:
                    leg_ctx = TraceContext(search.trace_root.trace_id,
                                           info[1], info[0])
            meter_before = self.host.meter.total
            with remote_context(self.address, leg_ctx):
                result = self.enclave.open_relay_response(
                    relay, bytes(payload))
            filtering_cost = self.host.meter.total - meter_before
            if result is None and OBS.enabled:
                # fake-query response or undecodable: dropped in-enclave
                OBS.registry.counter(
                    "cyclosa_core_fake_responses_total",
                    "relay responses filtered inside the enclave").inc()
        if result is None:
            if is_real:
                # The real leg answered, but unusably: typically a
                # concurrent search timed out on the same relay and
                # blacklisted it, dropping the secure channel while
                # this response was in flight, or the page did not
                # decode. Unlike a timeout the relay is not
                # blacklisted, but the leg is dead (the transport
                # cancelled its timeout), so retry.
                if OBS.enabled:
                    OBS.registry.counter(
                        "cyclosa_core_real_responses_filtered_total",
                        "real-leg responses unusable in-enclave "
                        "(retried)").inc()
                self._close_engine_span(search, filtered=True)
                self._retry_or_fail(search, "relay-failure")
            return
        if OBS.enabled and search.trace_root is not None:
            tracer = OBS.tracer
            self._close_engine_span(search, status=result["status"])
            span = tracer.start_span(
                "response_filtering", parent=search.trace_root,
                attributes={"status": result["status"],
                            "hits": len(result["hits"])})
            # The enclave charge for opening the response is the
            # stage's modelled duration. The simulator delivers the
            # result at `now` regardless (the charge lives on the cost
            # meter), so extend the root to keep child spans nested;
            # _finish's end_span is then an idempotent no-op.
            tracer.end_span(span, end_time=span.start + filtering_cost)
            tracer.end_span(search.trace_root, end_time=span.end)
        self._finish(search, status=result["status"], hits=result["hits"])

    def _on_relay_timeout(self, search: ProtectedSearch, relay: str,
                          is_real: bool) -> None:
        self._blacklist(relay)
        if OBS.enabled:
            self._close_path_span(search, relay, timed_out=True)
        if not is_real:
            return
        if OBS.enabled:
            OBS.registry.counter("cyclosa_core_relay_timeouts_total",
                                 "real-query relay timeouts (§VI-b)").inc()
        self._close_engine_span(search, timeout=True)
        self._retry_or_fail(search, "relay-failure")

    # -- §VI-b retry path --------------------------------------------------

    def _retry_or_fail(self, search: ProtectedSearch, status: str) -> None:
        """The real leg is lost: it timed out, answered unusably, or its
        replacement relay could not be connected or sealed for.

        Queue the next retry behind exponential backoff: the r-th retry
        waits ``base * factor**r`` (capped), stretched by a seeded
        jitter draw so synchronised clients spread out instead of
        re-hitting a struggling overlay in lock-step. Once the retry
        budget is spent, end the search with *status* instead.
        """
        if search.retries_left <= 0:
            self._finish(search, status=status, hits=[])
            return
        search.move("backoff")
        search.retries_left -= 1
        self.stats.retries += 1
        config = self.config
        backoff = min(config.retry_backoff_max,
                      config.retry_backoff_base
                      * config.retry_backoff_factor ** search.attempts)
        search.attempts += 1
        if config.retry_backoff_jitter > 0:
            backoff *= 1.0 + config.retry_backoff_jitter * self.rng.random()
        if OBS.enabled:
            OBS.registry.counter("cyclosa_core_retry_backoff_total",
                                 "backed-off real-query retries").inc()
        self.network.simulator.post(
            backoff, lambda: self._retry_real(search))

    def _retry_real(self, search: ProtectedSearch) -> None:
        """Re-dispatch the real query through a fresh relay.

        The replacement draw excludes every relay this search ever
        used — real legs *and* fake legs — so a retry can never land
        on a relay already holding a fake record of the same search
        (which would clobber its pending entry and break the §V
        one-query-per-relay property).
        """
        search.move("connecting")
        used = search.real_relays | search.fake_relays
        used.add(self.address)
        replacements = self.pss.random_peers(1, exclude=sorted(used))
        if not replacements:
            self._finish(search, status="no-peers", hits=[])
            return
        self._ensure_channels(
            replacements, lambda ready: self._resend_real(search, ready))

    def _resend_real(self, search: ProtectedSearch, ready: List[str]) -> None:
        if not ready:
            # Channel re-establishment failed (attestation denial,
            # handshake timeout).
            self._retry_or_fail(search, "channel-failure")
            return
        relay = ready[0]
        traceparent = None
        if OBS.enabled and search.trace_root is not None:
            # The retry is a fresh fan-out leg: new path number, new
            # reserved "path" span id, same trace.
            traceparent = self._reserve_leg(search, relay)
        try:
            search.real_token, sealed = self.enclave.rebuild_real(
                search.real_token, relay, traceparent=traceparent)
        except KeyError:
            # The channel vanished between establishment and sealing (a
            # concurrent search blacklisted the same peer).
            self._retry_or_fail(search, "channel-failure")
            return
        search.real_relays.add(relay)
        cost = self.host.meter.take()
        self.network.simulator.post(
            cost + self.config.client_request_overhead,
            lambda: self._send_record(search, relay, sealed, True))

    def _finish(self, search: ProtectedSearch, status: str,
                hits: List[Dict[str, Any]]) -> None:
        # Exactly-once delivery: a second finish is an illegal move.
        search.move("done")
        del self._searches[search.search_id]
        if search.real_relays & search.fake_relays:
            self.stats.disjointness_violations += 1
        latency = self.network.simulator.now - search.issued_at
        if OBS.enabled:
            self._close_engine_span(search, status=status)
            if search.trace_root is not None:
                search.trace_root.set_attributes(
                    {"status": status, "k": search.k})
                OBS.tracer.end_span(search.trace_root)
            OBS.registry.counter("cyclosa_core_search_results_total",
                                 "completed searches by outcome",
                                 status=status).inc()
            OBS.registry.histogram(
                "cyclosa_core_search_latency_seconds",
                "end-to-end protected-search latency").observe(latency)
        search.on_result({
            "query": search.query,
            "k": search.k,
            "status": status,
            "hits": hits,
            "latency": latency,
            "search_id": search.search_id,
            "retries": search.attempts,
            "relays": {"real": sorted(search.real_relays),
                       "fake": sorted(search.fake_relays)},
        })

    def _blacklist(self, peer: str) -> None:
        """§VI-b: blacklist peers that do not respond in time."""
        self.pss.view.remove(peer)
        self.enclave.drop_peer_channel(peer)
        self.stats.blacklisted_peers += 1

    # ------------------------------------------------------------------
    # relay side
    # ------------------------------------------------------------------

    def handle_request(self, ctx: RequestContext) -> None:
        if self.pss.handle_request(ctx):
            return
        if self.peer_tls.handle_handshake(ctx):
            return
        if ctx.request.kind == f"{FORWARD_KIND}.req":
            self._handle_forward(ctx)
        # anything else: drop silently

    def _handle_forward(self, ctx: RequestContext) -> None:
        payload = ctx.request.payload
        if not isinstance(payload, (bytes, bytearray)):
            return
        tracer = OBS.tracer if OBS.enabled else None
        # Reserve the id of this hop's "relay.forward" span up front:
        # the enclave re-parents the propagated context onto it inside
        # the engine-bound record, so the engine's span attaches here.
        onward_id = tracer.reserve_span_id() if tracer is not None else None
        unwrapped = self.enclave.unwrap_forward(
            ctx.request.src, bytes(payload), onward_span_id=onward_id)
        if unwrapped is None:
            return  # unauthenticated or tampered: a Byzantine peer learns nothing
        handle, sealed_for_engine = unwrapped
        self.stats.relayed += 1
        trace = None
        if tracer is not None:
            OBS.registry.counter("cyclosa_core_relayed_total",
                                 "records forwarded on behalf of peers").inc()
            # Read the propagated context back out of the enclave
            # *before* draining the meter, so the gate's cost folds
            # into this forward's modelled delay like the others.
            incoming = TraceContext.from_traceparent(
                self.enclave.forward_trace_context(handle))
            if incoming is not None:
                fwd_span = open_remote_span(
                    tracer, "relay.forward", incoming,
                    node=self.address, span_id=onward_id)
                trace = (incoming, fwd_span)
        cost = self.host.meter.take()
        if trace is not None:
            # The in-enclave unwrap/re-seal work, as its own child.
            unwrap_span = open_remote_span(
                tracer, "relay.unwrap", trace[0].child(onward_id),
                node=self.address)
            close_remote_span(OBS.router, self.address, unwrap_span,
                              end_time=unwrap_span.start + cost)

        def forward_to_engine() -> None:
            self.request(
                self.engine_address, sealed_for_engine,
                on_reply=lambda response: self._relay_engine_reply(
                    ctx, handle, response, trace=trace),
                timeout=60.0,
                size_bytes=len(sealed_for_engine),
                kind="searchtls")

        self.network.simulator.post(cost, forward_to_engine)

    def _relay_engine_reply(self, ctx: RequestContext, handle: int,
                            response: Any, trace=None) -> None:
        if not isinstance(response, (bytes, bytearray)):
            return
        hop_ctx = None
        if trace is not None and OBS.enabled:
            incoming, fwd_span = trace
            hop_ctx = incoming.child(fwd_span.span_id)
        with remote_context(self.address, hop_ctx):
            wrapped = self.enclave.wrap_relay_response(handle, bytes(response))
        if wrapped is None:
            return
        _src, sealed = wrapped
        cost = self.host.meter.take()
        if hop_ctx is not None:
            respond_span = open_remote_span(
                OBS.tracer, "relay.respond", hop_ctx, node=self.address)
            close_remote_span(OBS.router, self.address, respond_span,
                              end_time=respond_span.start + cost)
            # The forward span covers the full relay residency: from
            # unwrap to the moment the re-sealed answer leaves.
            close_remote_span(OBS.router, self.address, fwd_span,
                              end_time=respond_span.start + cost)
        self.network.simulator.post(
            cost, lambda: ctx.respond(sealed, size_bytes=len(sealed)))
