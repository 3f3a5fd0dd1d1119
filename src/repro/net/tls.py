"""Authenticated secure channels over the simulated transport.

A one-round-trip handshake modelled on TLS 1.3's DH + credential flow:

1. Initiator sends its ephemeral DH public value plus a credential
   binding that value to its identity.
2. Responder verifies the credential, replies with its own DH public
   value and credential, and derives the session key.
3. Initiator verifies and derives the same key.

Both sides check that a hello is well formed before any crypto runs
(:func:`_well_formed_hello`): the responder silently drops a malformed
hello, the initiator fails the handshake with ``"malformed server
hello"``. A peer's bad input ends one handshake, never the simulation.

The *credential* is pluggable:

- :class:`SignatureAuthenticator` — classic PKI: an RSA signature over
  the handshake context by the node's long-term identity key (used by
  the search engine front-end and the non-SGX baselines).
- :class:`SgxAuthenticator` — the paper's bootstrap (§V-D): the DH
  public value is bound into an enclave report, quoted by the platform,
  and the peer accepts only after the simulated IAS validates the quote
  *and* the measurement matches a known-good CYCLOSA build. A genuine
  handshake therefore cannot be completed by a client that bypasses the
  enclave (§VI-a).

Once established, a :class:`SecureChannel` seals every application
payload with a per-direction AEAD key; sequence numbers provide replay
detection (the mitigation discussed in §VI-b). A record that
authenticates but does not decode raises :class:`TlsError` like a
forged one, so every caller that drops bad records drops it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol

from repro.crypto.aead import AeadError, AeadKey, open_ as aead_open, seal as aead_seal
from repro.crypto.dh import DhKeyPair, DhParams
from repro.crypto.hashes import hkdf, sha256
from repro.crypto.keys import IdentityKeyPair
from repro.crypto.rsa import RsaPublicKey
from repro.net import wire
from repro.net.transport import NetNode, RequestContext


class TlsError(Exception):
    """Handshake or record-layer failure."""


class Authenticator(Protocol):
    """Produces and checks handshake credentials."""

    def prove(self, context: bytes) -> dict:  # pragma: no cover - protocol
        ...

    def verify(self, credential: dict, context: bytes) -> bool:  # pragma: no cover
        ...


class SignatureAuthenticator:
    """PKI-style credential: sign the context with a long-term RSA key.

    *trust_anchor* decides whether a presented public key is acceptable
    (e.g. pinned engine key, or any key for opportunistic encryption).
    """

    def __init__(self, identity: IdentityKeyPair,
                 trust_anchor: Optional[Callable[[RsaPublicKey], bool]] = None) -> None:
        self._identity = identity
        self._trust_anchor = trust_anchor or (lambda public: True)

    def prove(self, context: bytes) -> dict:
        return {
            "scheme": "rsa-sig",
            "n": self._identity.public.n,
            "e": self._identity.public.e,
            "signature": self._identity.rsa.sign(context),
        }

    def verify(self, credential: dict, context: bytes) -> bool:
        if credential.get("scheme") != "rsa-sig":
            return False
        public = RsaPublicKey(n=credential["n"], e=credential["e"])
        if not self._trust_anchor(public):
            return False
        return public.verify(context, credential["signature"])


class SgxAuthenticator:
    """Attestation credential: an SGX quote over the handshake context.

    ``prove`` asks the local enclave for a report whose ``report_data``
    is the hash of the handshake context and has the platform quote it.
    ``verify`` submits the peer quote to the IAS and pins the
    measurement (§V-D).
    """

    def __init__(self, enclave, host, ias, policy) -> None:
        self._enclave = enclave
        self._host = host
        self._ias = ias
        self._policy = policy

    def prove(self, context: bytes) -> dict:
        report = self._enclave.create_report(sha256(b"repro.tls:", context))
        quote = self._host.quote_report(report)
        return {
            "scheme": "sgx-quote",
            "platform_id": quote.platform_id,
            "measurement": quote.measurement,
            "report_data": quote.report_data,
            "signature": quote.signature,
        }

    def verify(self, credential: dict, context: bytes) -> bool:
        from repro.sgx.attestation import AttestationError, Quote, attest_quote

        if credential.get("scheme") != "sgx-quote":
            return False
        if credential["report_data"] != sha256(b"repro.tls:", context):
            return False
        quote = Quote(
            platform_id=credential["platform_id"],
            measurement=credential["measurement"],
            report_data=credential["report_data"],
            signature=credential["signature"],
        )
        try:
            attest_quote(self._ias, self._policy, quote)
        except AttestationError:
            return False
        return True


@dataclass
class SecureChannel:
    """An established, authenticated, replay-protected channel.

    Records carry an explicit sequence number (authenticated as
    associated data) because the simulated network reorders messages;
    the receiver accepts each sequence number at most once — a replayed
    record (the proxy-side attack §VI-b discusses) is rejected.

    :meth:`seal_bytes` and :meth:`open_bytes` do the record layer on
    plaintext bytes: the 8-byte sequence header and the AEAD.
    :meth:`seal` and :meth:`open` wrap them in :func:`wire.encode` and
    :func:`wire.decode`, for callers that hold objects. A relay enclave
    uses the byte pair to pass an engine page on without parsing it.
    """

    peer: str
    send_key: AeadKey
    recv_key: AeadKey

    def __post_init__(self) -> None:
        self._send_seq = 0
        self._seen_seqs: set = set()

    def seal_bytes(self, plaintext: bytes, rng=None) -> bytes:
        """Encrypt one record's plaintext bytes under the next sequence
        number."""
        seq = self._send_seq
        self._send_seq += 1
        header = seq.to_bytes(8, "big")
        return header + aead_seal(self.send_key, plaintext,
                                  associated_data=header, rng=rng)

    def seal(self, payload: Any, rng=None) -> bytes:
        """Encrypt one application payload (any wire-encodable object)."""
        return self.seal_bytes(wire.encode(payload), rng=rng)

    def open_bytes(self, sealed: bytes) -> bytes:
        """Decrypt one record to its plaintext bytes; raises
        :class:`TlsError` on tampering or replay."""
        if not isinstance(sealed, (bytes, bytearray)):
            raise TlsError("record is not bytes")
        if len(sealed) < 8:
            raise TlsError("record too short")
        header, body = sealed[:8], sealed[8:]
        seq = int.from_bytes(header, "big")
        if seq in self._seen_seqs:
            raise TlsError("record replayed")
        try:
            plaintext = aead_open(self.recv_key, body,
                                  associated_data=header)
        except AeadError as exc:
            raise TlsError("record failed authentication") from exc
        self._seen_seqs.add(seq)
        return plaintext

    def open(self, sealed: bytes) -> Any:
        """Decrypt and decode one record; raises :class:`TlsError` on
        tampering, replay, or an authenticated plaintext that does not
        decode (a peer's bad record must not crash its receiver)."""
        plaintext = self.open_bytes(sealed)
        try:
            return wire.decode(plaintext)
        except wire.DECODE_ERRORS as exc:
            raise TlsError("record does not decode") from exc


def _directional_keys(shared: bytes, initiator: bool):
    key_i2r = AeadKey(hkdf(shared, b"repro.tls.i2r", 32))
    key_r2i = AeadKey(hkdf(shared, b"repro.tls.r2i", 32))
    if initiator:
        return key_i2r, key_r2i
    return key_r2i, key_i2r


class SecureChannelManager:
    """Per-node channel establishment and caching.

    Attach one to a :class:`~repro.net.transport.NetNode`; wire its
    :meth:`handle_handshake` into the node's request dispatch for the
    ``tls`` RPC kind. Channels are cached per peer; re-handshaking
    replaces the cached channel (simple rekeying).
    """

    def __init__(self, node: NetNode, authenticator: Authenticator,
                 rng, dh_params: Optional[DhParams] = None,
                 kind: str = "tls",
                 on_established: Optional[Callable[[SecureChannel], None]] = None) -> None:
        self._node = node
        self._authenticator = authenticator
        self._rng = rng
        self._dh_params = dh_params or DhParams.small_test_group()
        self._channels: Dict[str, SecureChannel] = {}
        self.kind = kind
        self._on_established = on_established
        # In-flight initiated handshakes, for resolving simultaneous
        # cross-handshakes (both peers initiating at once).
        self._inflight: Dict[str, dict] = {}

    def channel(self, peer: str) -> Optional[SecureChannel]:
        return self._channels.get(peer)

    def establish(self, peer: str,
                  on_ready: Callable[[SecureChannel], None],
                  on_fail: Optional[Callable[[str], None]] = None,
                  timeout: Optional[float] = None) -> None:
        """Open (or refresh) a channel to *peer*; 1 network round trip.

        Simultaneous cross-handshakes (both sides initiating at once)
        are resolved deterministically: the lexicographically smaller
        address keeps the initiator role; the other side's initiation
        is satisfied by its responder-created channel. That initiation
        still takes its reply: if the peer answers it after all (its own
        handshake finished before this hello arrived, so it re-keyed as
        responder), the channel derived from the reply replaces the
        responder-created one, and *on_ready* is not called again.
        """
        ephemeral = DhKeyPair.generate(self._dh_params, rng=self._rng)
        context = _handshake_context(
            self._node.address, peer, ephemeral.public)
        hello = {
            "dh_public": ephemeral.public,
            "credential": self._authenticator.prove(context),
        }
        # "ready": on_ready has run (the responder path may do that
        # first); "done": the reply was taken or the handshake failed.
        entry = {"on_ready": on_ready, "ready": False, "done": False}
        self._inflight[peer] = entry

        def on_reply(response: dict) -> None:
            if entry["done"]:
                return
            if not _well_formed_hello(response, self._dh_params):
                _fail("malformed server hello")
                return
            peer_context = _handshake_context(
                peer, self._node.address, response["dh_public"])
            if not self._authenticator.verify(
                    response["credential"], peer_context):
                _fail("peer credential rejected")
                return
            entry["done"] = True
            waiting = not entry["ready"]
            if waiting:
                self._inflight.pop(peer, None)
            shared = ephemeral.shared_secret(response["dh_public"])
            send_key, recv_key = _directional_keys(shared, initiator=True)
            channel = SecureChannel(peer=peer, send_key=send_key,
                                    recv_key=recv_key)
            self._channels[peer] = channel
            if self._on_established is not None:
                self._on_established(channel)
            if waiting:
                on_ready(channel)

        def _fail(reason: str) -> None:
            if entry["done"]:
                return
            entry["done"] = True
            if entry["ready"]:
                return  # served by the responder-created channel
            self._inflight.pop(peer, None)
            if on_fail is not None:
                on_fail(reason)

        self._node.request(
            peer, hello, on_reply, timeout=timeout,
            on_timeout=lambda: _fail("handshake timeout"), kind=self.kind)

    def handle_handshake(self, ctx: RequestContext) -> bool:
        """Responder side; returns True if the request was a handshake."""
        if ctx.request.kind != f"{self.kind}.req":
            return False
        hello = ctx.request.payload
        if not _well_formed_hello(hello, self._dh_params):
            return True  # dropped, like an unauthenticated initiator
        peer = ctx.request.src
        entry = self._inflight.get(peer)
        if entry is not None and not entry["done"] \
                and self._node.address < peer:
            # Cross-handshake: we are the elected initiator — ignore the
            # peer's hello; our own handshake will serve both sides.
            return True
        context = _handshake_context(
            peer, self._node.address, hello["dh_public"])
        if not self._authenticator.verify(hello["credential"], context):
            # Silent drop: an unauthenticated initiator learns nothing.
            return True
        ephemeral = DhKeyPair.generate(self._dh_params, rng=self._rng)
        shared = ephemeral.shared_secret(hello["dh_public"])
        send_key, recv_key = _directional_keys(shared, initiator=False)
        channel = SecureChannel(peer=peer, send_key=send_key,
                                recv_key=recv_key)
        self._channels[peer] = channel
        my_context = _handshake_context(
            self._node.address, peer, ephemeral.public)
        ctx.respond({
            "dh_public": ephemeral.public,
            "credential": self._authenticator.prove(my_context),
        })
        if self._on_established is not None:
            self._on_established(channel)
        if entry is not None and not entry["done"]:
            # Our own initiation to this peer is now redundant: satisfy
            # its caller with the responder-created channel. It stays
            # open for a reply (see :meth:`establish`).
            entry["ready"] = True
            self._inflight.pop(peer, None)
            entry["on_ready"](channel)
        return True


def _is_bytes(value: Any) -> bool:
    return type(value) is bytes


def _natural(value: Any) -> bool:
    return type(value) is int and value >= 0


def _uint64(value: Any) -> bool:
    return _natural(value) and value < 1 << 64


# The fields each credential scheme needs, each with the check its
# verifier relies on (``e`` and ``platform_id`` become 8-byte strings).
_CREDENTIAL_FIELDS: Dict[str, Dict[str, Callable[[Any], bool]]] = {
    "rsa-sig": {"n": _natural, "e": _uint64, "signature": _is_bytes},
    "sgx-quote": {"platform_id": _uint64, "measurement": _is_bytes,
                  "report_data": _is_bytes, "signature": _is_bytes},
}


def _well_formed_hello(hello: Any, dh_params: DhParams) -> bool:
    """Whether *hello* is a dict with an int ``dh_public`` in [2, p-2]
    and a credential carrying every field its scheme needs."""
    if not isinstance(hello, dict):
        return False
    dh_public = hello.get("dh_public")
    if type(dh_public) is not int or not 2 <= dh_public <= dh_params.p - 2:
        return False
    credential = hello.get("credential")
    if not isinstance(credential, dict):
        return False
    scheme = credential.get("scheme")
    if not isinstance(scheme, str) or scheme not in _CREDENTIAL_FIELDS:
        return False
    return all(valid(credential.get(name))
               for name, valid in _CREDENTIAL_FIELDS[scheme].items())


def _handshake_context(sender: str, receiver: str, dh_public: int) -> bytes:
    return b"|".join([
        b"repro.tls.hs.v1",
        sender.encode("utf-8"),
        receiver.encode("utf-8"),
        dh_public.to_bytes((dh_public.bit_length() + 7) // 8 or 1, "big"),
    ])
