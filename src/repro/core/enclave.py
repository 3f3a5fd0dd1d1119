"""The CYCLOSA enclave: all trusted code of a node (§IV).

Everything that touches *other users'* data runs behind ecall gates:

- the secure-channel keys (peer channels are only installed after
  remote attestation; the engine channel is TLS terminated inside the
  enclave, §V-F);
- the past-queries table (fake-query source — other users' queries must
  never reach the untrusted host in plain text);
- query protection: choosing fakes, binding each query to its relay,
  sealing one record per relay (§V-C);
- relay forwarding: unwrapping a peer's record, storing its query in
  the table, re-sealing it for the engine, and passing the engine's
  answer back to the requester unread — the page's bytes get the
  requester's token appended and are re-sealed, never parsed. The
  plaintext of a relayed query exists *only* inside the enclave;
- response filtering: every response is decrypted and authenticated,
  and its token read from the page's last member; only the record
  carrying the real query's token is decoded and surfaces results.
  Fake responses are dropped unread inside the enclave, so even the
  local host cannot tell which response mattered.

The untrusted node (:mod:`repro.core.node`) moves sealed bytes around
and runs everything that only involves the local user's own data
(sensitivity analysis, peer sampling) — "this allows to drastically
minimise the amount of trusted code" (§IV).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.fake_queries import PastQueryTable
from repro.net import wire
from repro.net.tls import SecureChannel, TlsError
from repro.obs import TraceContext
from repro.sgx.enclave import Enclave, ecall

#: Forward records are padded to a multiple of this envelope before
#: sealing, so an observer of encrypted traffic cannot distinguish a
#: short real query from a long fake (or vice versa) by size — the §IV
#: argument for why CYCLOSA's traffic is uniform where X-Search's
#: OR-groups are visibly larger than plain queries.
RECORD_ENVELOPE_BYTES = 512

_EMPTY_PAD = b'"pad":""'


def _padded_record(record: Dict[str, Any]) -> bytes:
    """The encoding of *record* with a ``pad`` string of zeros that
    fills it up to the next envelope boundary.

    Encoded once: ``{**record, "pad": ""}`` is measured, then the zeros
    are written into its empty ``pad`` string. That is the encoding of
    ``{**record, "pad": "0" * n}``, because every member after ``pad``
    (``query``, ``token``, ``tp``) is a string and ``"`` is escaped
    inside a string, so the last ``"pad":""`` is the record's own.
    """
    base = wire.encode({**record, "pad": ""})
    target = ((len(base) // RECORD_ENVELOPE_BYTES) + 1) * RECORD_ENVELOPE_BYTES
    cut = base.rindex(_EMPTY_PAD) + len(_EMPTY_PAD) - 1
    return b"".join((base[:cut], b"0" * (target - len(base)), base[cut:]))


class CyclosaEnclave(Enclave):
    """Trusted code of one CYCLOSA node.

    §V-F: linking mbedTLS yields "an enclave of only 1.7 MB, thus,
    CYCLOSA does not suffer from EPC paging" — the base footprint below
    is exactly that figure, and the EPC tests assert the no-paging
    claim.
    """

    ENCLAVE_VERSION = "1.0"
    BASE_FOOTPRINT_BYTES = 1_700_000
    #: Bound on outstanding per-record state (pending tokens and relay
    #: forward handles). Responses that never arrive would otherwise
    #: leak enclave memory forever; beyond the cap, the oldest entries
    #: are dropped — their late responses are then treated like any
    #: unknown token (silently discarded).
    MAX_PENDING = 4096

    def __init__(self, host, enclave_id, rng,
                 table_capacity: int = 2000,
                 bytes_per_table_entry: int = 64) -> None:
        super().__init__(host, enclave_id, rng)
        self._rng = rng
        self._bytes_per_entry = bytes_per_table_entry
        self._token_counter = itertools.count(1)
        # Trusted state is initialised through a private gate: the
        # constructor runs "during EINIT", conceptually inside.
        self._depth += 1
        try:
            self.trusted["table"] = PastQueryTable(capacity=table_capacity)
            self.trusted["peer_channels"] = {}
            self.trusted["engine_channel"] = None
            self.trusted["pending"] = {}   # token -> {"real", "query", ...}
            self.trusted["forwards"] = {}  # handle -> {"src", "token"}
        finally:
            self._depth -= 1

    # -- channels ---------------------------------------------------------

    @ecall
    def install_peer_channel(self, peer: str, channel: SecureChannel) -> None:
        """Store an attested peer channel's keys in enclave memory."""
        self.trusted["peer_channels"][peer] = channel

    @ecall
    def install_engine_channel(self, channel: SecureChannel) -> None:
        """Store the enclave→engine TLS channel."""
        self.trusted["engine_channel"] = channel

    @ecall
    def has_peer_channel(self, peer: str) -> bool:
        return peer in self.trusted["peer_channels"]

    @ecall
    def drop_peer_channel(self, peer: str) -> None:
        """Forget a (blacklisted) peer's channel."""
        self.trusted["peer_channels"].pop(peer, None)

    # -- past-queries table -------------------------------------------------

    @ecall
    def seed_table(self, queries: List[str]) -> int:
        """Bootstrap the fake-query table (§V-D, trending queries)."""
        table: PastQueryTable = self.trusted["table"]
        grew = table.extend(queries)
        if grew:
            self.trusted_alloc(grew * self._bytes_per_entry)
        return grew

    @ecall
    def table_size(self) -> int:
        return len(self.trusted["table"])

    @ecall
    def seal_table(self, sealing_service) -> "object":
        """Persist the past-queries table to untrusted storage.

        The blob is sealed to this enclave's measurement on this
        platform: the browser can stash it on disk across restarts, but
        neither the host nor a different enclave build can read other
        users' queries out of it.
        """
        table: PastQueryTable = self.trusted["table"]
        payload = wire.encode(table.entries())
        self.charge_crypto(len(payload), operations=1)
        return sealing_service.seal(type(self).measurement(), payload,
                                    rng=self._rng)

    @ecall
    def unseal_table(self, sealing_service, blob) -> int:
        """Restore a previously sealed table; returns entries restored.

        Raises :class:`repro.sgx.sealing.SealingError` when the blob was
        sealed by a different enclave build or platform.
        """
        payload = sealing_service.unseal(type(self).measurement(), blob)
        self.charge_crypto(len(payload), operations=1)
        entries = wire.decode(payload)
        table: PastQueryTable = self.trusted["table"]
        grew = table.extend(entries)
        if grew:
            self.trusted_alloc(grew * self._bytes_per_entry)
        return grew

    def _evict_stale(self, store_key: str) -> None:
        """Drop oldest entries once a per-record store exceeds the cap.

        Python dicts preserve insertion order, so the first keys are
        the oldest; real enclave code would do the same with an
        intrusive FIFO.
        """
        store = self.trusted[store_key]
        while len(store) > self.MAX_PENDING:
            oldest = next(iter(store))
            del store[oldest]

    # -- client side: query protection (§V-C) -------------------------------

    @ecall
    def build_protected_batch(self, query: str, k: int, relays: List[str],
                              true_user: Optional[str] = None,
                              trace_contexts: Optional[Dict[str, str]] = None
                              ) -> Tuple[List[Tuple[str, bytes]], str, str]:
        """Produce one sealed forward record per relay.

        ``relays`` must contain ``k + 1`` addresses with installed
        channels. One random relay carries the real query; each other
        relay carries a distinct fake drawn from the past-queries
        table. The queries themselves stay in enclave state, keyed by
        per-record tokens.

        ``trace_contexts`` (optional, observability) maps relay address
        to a traceparent string embedded in that relay's record. The
        context rides *inside* the sealed payload — never on the
        plaintext wire — and every record (real or fake) carries a
        same-shaped string, so sealed sizes stay indistinguishable
        (records are envelope-padded regardless).

        Returns ``(records, real_relay, real_token)``: ``records`` is
        ``[(relay_address, sealed_record), ...]`` in randomized dispatch
        order, and the other two name the record that carries the real
        query, so the caller can follow that leg and hand the token to
        :meth:`rebuild_real` if the leg is lost. The caller issued the
        real query itself, so this tells its host nothing new; relays
        and the engine still cannot tell the records apart.
        """
        if len(relays) != k + 1:
            raise ValueError(f"need exactly k+1={k + 1} relays, got {len(relays)}")
        channels: Dict[str, SecureChannel] = self.trusted["peer_channels"]
        missing = [relay for relay in relays if relay not in channels]
        if missing:
            raise KeyError(f"no attested channel with relays {missing}")

        table: PastQueryTable = self.trusted["table"]
        fakes = table.sample(k, self._rng, exclude=query)
        # A sparsely seeded table may not have k distinct fakes yet;
        # reuse trending-style duplicates rather than under-protect.
        while len(fakes) < k and fakes:
            fakes.append(self._rng.choice(fakes))
        if len(fakes) < k:
            fakes = [query] * 0  # empty table: degrade to k=0
        relays = list(relays)
        self._rng.shuffle(relays)
        real_relay = relays[0] if not fakes else self._rng.choice(relays)

        batch: List[Tuple[str, bytes]] = []
        pending: Dict[str, Dict[str, Any]] = self.trusted["pending"]
        fake_iter = iter(fakes)
        for relay in relays:
            token = f"t{next(self._token_counter):08d}"
            if relay == real_relay:
                text, is_fake = query, False
                real_token = token
            else:
                try:
                    text, is_fake = next(fake_iter), True
                except StopIteration:
                    continue  # table under-filled: fewer fakes than k
            fields: Dict[str, Any] = {
                "token": token,
                "query": text,
                "meta": {"true_user": true_user, "is_fake": is_fake},
            }
            if trace_contexts and relay in trace_contexts:
                fields["tp"] = trace_contexts[relay]
            pending[token] = {"real": not is_fake, "query": query}
            sealed = channels[relay].seal_bytes(_padded_record(fields),
                                                rng=self._rng)
            self.charge_crypto(len(sealed), operations=1)
            batch.append((relay, sealed))
        self._evict_stale("pending")
        return batch, real_relay, real_token

    @ecall
    def rebuild_real(self, token: str, new_relay: str,
                     traceparent: Optional[str] = None) -> Tuple[str, bytes]:
        """Re-issue the real query through *new_relay* after its original
        relay timed out (§VI-b blacklisting + retry)."""
        pending: Dict[str, Dict[str, Any]] = self.trusted["pending"]
        entry = pending.pop(token, None)
        if entry is None or not entry["real"]:
            raise KeyError("token is not a pending real query")
        channels = self.trusted["peer_channels"]
        if new_relay not in channels:
            raise KeyError(f"no attested channel with {new_relay}")
        new_token = f"t{next(self._token_counter):08d}"
        fields: Dict[str, Any] = {
            "token": new_token,
            "query": entry["query"],
            "meta": {"true_user": None, "is_fake": False},
        }
        if traceparent is not None:
            fields["tp"] = traceparent
        pending[new_token] = {"real": True, "query": entry["query"]}
        sealed = channels[new_relay].seal_bytes(_padded_record(fields),
                                                rng=self._rng)
        return new_token, sealed

    @ecall
    def open_relay_response(self, relay: str, sealed: bytes
                            ) -> Optional[Dict[str, Any]]:
        """Decrypt a relay's response; surface it only for the real query.

        Returns ``{"query", "status", "hits"}`` when the response
        answers the user's real query, ``None`` when it answered a fake
        (dropped inside the enclave, §IV step 8), fails to decrypt, or
        is a real answer that does not decode.

        Every response is opened and authenticated, but only the real
        answer is decoded: the token is read from the plaintext's last
        member, where the relay put it (:meth:`wrap_relay_response`).
        A real answer that does not decode keeps its pending entry, so
        the host can retry the leg with :meth:`rebuild_real`.
        """
        channels: Dict[str, SecureChannel] = self.trusted["peer_channels"]
        channel = channels.get(relay)
        if channel is None:
            return None
        try:
            plaintext = channel.open_bytes(sealed)
        except TlsError:
            return None
        self.charge_crypto(len(sealed), operations=1)
        token = wire.last_member(plaintext, "token")
        pending: Dict[str, Dict[str, Any]] = self.trusted["pending"]
        entry = pending.get(token)
        if entry is None:
            return None
        if not entry["real"]:
            del pending[token]
            return None  # fake-query response: dropped unread
        try:
            response = wire.decode(plaintext)
        except wire.DECODE_ERRORS:
            return None
        if not isinstance(response, dict):
            return None
        del pending[token]
        return {
            "query": entry["query"],
            "status": response.get("status", "ok"),
            "hits": response.get("hits", []),
        }

    # -- relay side: forwarding (§V-C) ---------------------------------------

    @ecall
    def unwrap_forward(self, src: str, sealed: bytes,
                       onward_span_id: Optional[int] = None
                       ) -> Optional[Tuple[int, bytes]]:
        """Relay step: decrypt a peer's record, store its query in the
        past-queries table, and re-seal it for the search engine.

        Returns ``(handle, sealed_for_engine)``; the untrusted host
        ships the sealed bytes to the engine and later exchanges the
        handle for the sealed response via :meth:`wrap_relay_response`.
        Returns ``None`` if the source has no attested channel, the
        record fails authentication, or it is not a dict with a str
        ``query`` and ``token`` (an attested peer is still outside
        input).

        When the record carries a trace context and *onward_span_id*
        is given (observability on), the context is re-parented onto
        that span id and embedded in the engine-bound record — hop-by-
        hop propagation, again enclave-to-enclave only. The incoming
        context is retained with the forward handle for
        :meth:`forward_trace_context`.
        """
        channels: Dict[str, SecureChannel] = self.trusted["peer_channels"]
        channel = channels.get(src)
        engine: Optional[SecureChannel] = self.trusted["engine_channel"]
        if channel is None or engine is None:
            return None
        try:
            record = channel.open(sealed)
        except TlsError:
            return None
        self.charge_crypto(len(sealed), operations=1)
        if not (isinstance(record, dict)
                and isinstance(record.get("query"), str)
                and isinstance(record.get("token"), str)):
            return None
        # §V-C: "Once a proxy receives a query forwarding request, it
        # adds this query in its local table of past queries". Real and
        # fake queries are treated identically — the relay cannot tell.
        table: PastQueryTable = self.trusted["table"]
        if table.add(record["query"]):
            self.trusted_alloc(self._bytes_per_entry)
        handle = next(self._token_counter)
        self.trusted["forwards"][handle] = {
            "src": src,
            "token": record["token"],
            "tp": record.get("tp"),
        }
        self._evict_stale("forwards")
        engine_record: Dict[str, Any] = {
            "query": record["query"], "meta": record.get("meta") or {}}
        if onward_span_id is not None:
            incoming = TraceContext.from_traceparent(record.get("tp"))
            if incoming is not None:
                engine_record["tp"] = (
                    incoming.child(onward_span_id).to_traceparent())
        sealed_for_engine = engine.seal(engine_record, rng=self._rng)
        self.charge_crypto(len(sealed_for_engine), operations=1)
        return handle, sealed_for_engine

    @ecall
    def forward_trace_context(self, handle: int) -> Optional[str]:
        """The traceparent that arrived inside forward *handle*'s record.

        Lets the untrusted host attach its relay spans to the right
        parent without ever seeing the record's query or token — the
        trace context is the only field that crosses this gate.
        """
        forward = self.trusted["forwards"].get(handle)
        if forward is None:
            return None
        return forward.get("tp")

    @ecall
    def wrap_relay_response(self, handle: int, sealed_engine_response: bytes
                            ) -> Optional[Tuple[str, bytes]]:
        """Relay step: decrypt the engine's answer and re-seal it for the
        original requester. Returns ``(requester_address, sealed)``.

        The relay forwards the page without reading it (§V-C): it opens
        the engine record to bytes, appends the requester's ``token`` as
        the page's last member and re-seals the bytes. For the engine's
        ``{"hits", "status"}`` page that is byte for byte the encoding of
        ``{"hits", "status", "token"}``, since ``token`` sorts last.
        Whether the page decodes is for the client enclave to find out
        (:meth:`open_relay_response`).
        """
        forward = self.trusted["forwards"].pop(handle, None)
        engine: Optional[SecureChannel] = self.trusted["engine_channel"]
        if forward is None or engine is None:
            return None
        try:
            page = engine.open_bytes(sealed_engine_response)
        except TlsError:
            return None
        self.charge_crypto(len(sealed_engine_response), operations=1)
        channels: Dict[str, SecureChannel] = self.trusted["peer_channels"]
        channel = channels.get(forward["src"])
        if channel is None:
            return None
        sealed = channel.seal_bytes(
            wire.append_member(page, "token", forward["token"]),
            rng=self._rng)
        self.charge_crypto(len(sealed), operations=1)
        return forward["src"], sealed
