"""X-Search: SGX proxy with past-query fakes (§II-A2, Fig 2d).

A single SGX-protected proxy receives encrypted client queries, keeps a
table of past queries inside its enclave, aggregates each real query
with ``k`` fakes drawn from that table, queries the engine, filters the
merged response, and returns it. Compared to PEAS: fakes are verbatim
real past queries (better indistinguishability), but it remains a
centralized choke point with one engine-facing identity — the Fig 8c/8d
scalability comparisons and the Fig 6 accuracy loss both stem from the
group aggregation at the proxy.

The network version (:class:`XSearchProxyNode` + :class:`XSearchClientNode`)
runs the proxy logic inside a simulated enclave for the latency and
throughput experiments.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

from repro.baselines.base import (
    AttackSurface,
    EngineObservation,
    PrivateSearchSystem,
    filter_by_query_terms,
    hits_as_dicts,
    or_aggregate,
)
from repro.core.fake_queries import PastQueryTable
from repro.net.transport import Network, NetNode, RequestContext
from repro.net.tls import (
    SecureChannelManager,
    SgxAuthenticator,
    SignatureAuthenticator,
    TlsError,
)
from repro.searchengine.engine import SearchEngine
from repro.sgx.enclave import Enclave, EnclaveHost, ecall


class XSearch(PrivateSearchSystem):
    """Analytic X-Search: group obfuscation at a central SGX proxy."""

    name = "X-Search"
    attack_surface = AttackSurface.GROUP_ANONYMOUS
    properties = {
        "unlinkability": True,
        "indistinguishability": True,
        "accuracy": False,
        "scalability": False,
    }

    PROXY_IDENTITY = "xsearch-proxy"

    def __init__(self, k: int = 3, table_capacity: int = 5000,
                 seed: int = 0) -> None:
        super().__init__()
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self._rng = random.Random(seed)
        self.table = PastQueryTable(capacity=table_capacity)

    def prime(self, past_queries: List[str]) -> None:
        """Pre-fill the proxy's past-query table."""
        self.table.extend(past_queries)

    def protect(self, user_id: str, query: str) -> List[EngineObservation]:
        fakes = self.table.sample(self.k, self._rng, exclude=query)
        self.table.add(query)
        text, real_index = or_aggregate(query, fakes, self._rng)
        return [EngineObservation(
            identity=self.PROXY_IDENTITY, text=text, true_user=user_id,
            real_index=real_index, group_id=self.next_group_id())]

    def results_for(self, engine: SearchEngine, query: str,
                    observations: List[EngineObservation]) -> List[str]:
        """The *proxy* filters the merged response before returning it
        (X-Search filters proxy-side, §II-A3)."""
        hits = hits_as_dicts(engine, observations[0].text)
        return filter_by_query_terms(query, hits)


# ---------------------------------------------------------------------------
# Network version (Fig 8a; the enclave alone drives Fig 8c)
# ---------------------------------------------------------------------------


class XSearchEnclave(Enclave):
    """The proxy's trusted code: past-query table + obfuscation."""

    ENCLAVE_VERSION = "1.0"
    BASE_FOOTPRINT_BYTES = 2_000_000

    def __init__(self, host, enclave_id, rng,
                 table_capacity: int = 5000, k: int = 3) -> None:
        super().__init__(host, enclave_id, rng)
        self._rng = rng
        self.k = k
        self._depth += 1
        try:
            self.trusted["table"] = PastQueryTable(capacity=table_capacity)
            self.trusted["client_channels"] = {}
        finally:
            self._depth -= 1

    @ecall
    def install_client_channel(self, peer: str, channel) -> None:
        self.trusted["client_channels"][peer] = channel

    @ecall
    def obfuscate(self, src: str, sealed: bytes):
        """Decrypt a client query, build the OR group. Returns the query,
        its meta, the group and the real sub-query's index — the group
        leaves the enclave only as the engine request — or ``None`` for
        a record that does not open or is malformed (clients are outside
        input)."""
        channel = self.trusted["client_channels"].get(src)
        if channel is None:
            return None
        try:
            record = channel.open(sealed)
        except TlsError:
            return None
        if not (isinstance(record, dict)
                and isinstance(record.get("query"), str)
                and isinstance(record.get("meta") or {}, dict)):
            return None  # malformed client record: drop
        self.charge_crypto(len(sealed), operations=1)
        table: PastQueryTable = self.trusted["table"]
        query = record["query"]
        fakes = table.sample(self.k, self._rng, exclude=query)
        table.add(query)
        group_text, real_index = or_aggregate(query, fakes, self._rng)
        # Building and hashing the OR group costs one pass over it.
        self.charge_crypto(len(group_text), operations=1)
        return {
            "query": query,
            "meta": record.get("meta") or {},
            "group": group_text,
            "real_index": real_index,
        }

    @ecall
    def filter_and_wrap(self, src: str, query: str, hits: List[dict]):
        """Proxy-side filtering of the merged response, then re-seal for
        the client."""
        channel = self.trusted["client_channels"].get(src)
        if channel is None:
            return None
        urls = filter_by_query_terms(query, hits)
        kept = [hit for hit in hits if hit["url"] in set(urls)]
        sealed = channel.seal({"status": "ok", "hits": kept}, rng=self._rng)
        # Filtering scans the merged result page; the response is the
        # largest object the proxy seals — both make X-Search's service
        # time ~40 % above CYCLOSA's relay path (Fig 8c).
        self.charge_crypto(len(sealed) + 150 * max(1, len(hits)),
                           operations=2)
        return sealed


class XSearchProxyNode(NetNode):
    """The centralized X-Search proxy as a network service."""

    def __init__(self, network: Network, rng, engine_address: str,
                 ias, policy, address: str = "xsearch-proxy",
                 k: int = 3) -> None:
        super().__init__(network, address)
        self.rng = rng
        self.engine_address = engine_address
        self.host = EnclaveHost(rng)
        self.enclave: XSearchEnclave = self.host.create_enclave(
            XSearchEnclave, k=k)
        ias.provision_host(self.host)
        # The proxy proves with an SGX quote; clients have no enclave,
        # so their inbound credential is a plain signature.
        authenticator = _AsymmetricAuthenticator(
            prover=SgxAuthenticator(self.enclave, self.host, ias, policy),
            accept_schemes=("rsa-sig",))
        self.tls = SecureChannelManager(
            self, authenticator, rng, kind="xtls",
            on_established=lambda ch: self.enclave.install_client_channel(
                ch.peer, ch))
        self.queries_proxied = 0

    def prime(self, past_queries: List[str]) -> None:
        table = self.enclave._trusted["table"]  # test/bootstrap shortcut
        table.extend(past_queries)

    def handle_request(self, ctx: RequestContext) -> None:
        if self.tls.handle_handshake(ctx):
            return
        if ctx.request.kind != "xsearch.req":
            return
        payload = ctx.request.payload
        if not isinstance(payload, (bytes, bytearray)):
            return
        obfuscated = self.enclave.obfuscate(ctx.request.src, bytes(payload))
        if obfuscated is None:
            return
        self.queries_proxied += 1
        cost = self.host.meter.take()
        meta = dict(obfuscated["meta"])
        meta["group_id"] = self.queries_proxied
        meta["real_index"] = obfuscated["real_index"]

        def forward() -> None:
            self.request(
                self.engine_address,
                {"query": obfuscated["group"], "meta": meta},
                on_reply=lambda response: self._on_engine_reply(
                    ctx, obfuscated["query"], response),
                timeout=120.0, kind="search")

        self.network.simulator.post(cost, forward)

    def _on_engine_reply(self, ctx: RequestContext, query: str,
                         response: Any) -> None:
        hits = response.get("hits", []) if isinstance(response, dict) else []
        sealed = self.enclave.filter_and_wrap(ctx.request.src, query, hits)
        if sealed is None:
            return
        cost = self.host.meter.take()
        self.network.simulator.post(
            cost, lambda: ctx.respond(sealed, size_bytes=len(sealed)))


class XSearchClientNode(NetNode):
    """A user of the X-Search proxy."""

    def __init__(self, network: Network, address: str, rng,
                 proxy: XSearchProxyNode, ias, policy) -> None:
        super().__init__(network, address)
        from repro.crypto.keys import IdentityKeyPair

        self.rng = rng
        self.proxy = proxy
        # Clients prove with a plain signature and insist the proxy
        # presents a valid SGX quote for a known measurement.
        identity = IdentityKeyPair.generate(bits=512, rng=rng)
        authenticator = _AsymmetricAuthenticator(
            prover=SignatureAuthenticator(identity),
            accept_schemes=("sgx-quote",),
            sgx_verifier=SgxAuthenticator(None, None, ias, policy))
        self.tls = SecureChannelManager(self, authenticator, rng, kind="xtls")

    def connect(self, on_ready: Callable[[], None]) -> None:
        self.tls.establish(self.proxy.address,
                           on_ready=lambda ch: on_ready())

    def search(self, query: str,
               on_result: Callable[[Dict[str, Any]], None]) -> None:
        channel = self.tls.channel(self.proxy.address)
        if channel is None:
            self.connect(lambda: self.search(query, on_result))
            return
        issued_at = self.network.simulator.now
        sealed = channel.seal(
            {"query": query, "meta": {"true_user": self.address}},
            rng=self.rng)

        def on_reply(response: Any) -> None:
            if not isinstance(response, (bytes, bytearray)):
                return
            try:
                record = channel.open(bytes(response))
            except TlsError:
                return  # not sealed by the proxy's enclave: drop
            on_result({
                "query": query,
                "status": record.get("status", "ok"),
                "hits": record.get("hits", []),
                "latency": self.network.simulator.now - issued_at,
                "k": self.proxy.enclave.k,
            })

        self.request(self.proxy.address, sealed, on_reply,
                     timeout=120.0, kind="xsearch", size_bytes=len(sealed))


class _AsymmetricAuthenticator:
    """One-sided attestation for the X-Search handshake.

    The proxy proves with an SGX quote but accepts signature clients;
    clients prove with a signature but demand a quote from the proxy.
    """

    def __init__(self, prover, accept_schemes, sgx_verifier=None) -> None:
        self._prover = prover
        self._accept = tuple(accept_schemes)
        self._sgx_verifier = sgx_verifier

    def prove(self, context: bytes) -> dict:
        return self._prover.prove(context)

    def verify(self, credential: dict, context: bytes) -> bool:
        scheme = credential.get("scheme")
        if scheme not in self._accept:
            return False
        if scheme == "sgx-quote":
            return self._sgx_verifier.verify(credential, context)
        # Plain signatures: accept any well-formed client key (the
        # proxy serves the public).
        from repro.crypto.rsa import RsaPublicKey

        public = RsaPublicKey(n=credential["n"], e=credential["e"])
        return public.verify(context, credential["signature"])
