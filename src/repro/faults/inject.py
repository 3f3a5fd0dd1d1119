"""Interceptors that realise a :class:`~repro.faults.plan.FaultPlan`.

Link faults install as wrappers around one
:class:`~repro.net.transport.Network` instance's ``send`` / ``_deliver``
methods — protocol code is untouched and unaware. Service faults wrap
the deployment's IAS ``verify`` and the engine front-end's rate
limiter. :func:`install` applies a whole plan to a deployment and
returns an :class:`InstalledPlan` that counts every injection and can
restore everything.

Where each fault acts:

- **Drop** and **silence** act at *delivery* time, not send time: the
  sender's transport bookkeeping (pending entry, cancellable timeout —
  see :meth:`repro.net.transport.NetNode.request`) behaves exactly as
  for a response that never comes, which is the §VI-b scenario under
  test. ``Network.stats.dropped`` and the obs drop counter stay
  truthful.
- **Delay** reschedules delivery once per message (faults still
  compose: a delayed message can be corrupted, or dropped by a
  separate drop fault when it re-enters delivery).
- **Duplicate** schedules a verbatim second delivery; the receiver's
  correlation table / replay protection must cope.
- **Corrupt** flips one byte of a ``bytes`` payload at delivery; AEAD
  authentication fails downstream and the record is treated as
  tampered.
- **CrashAfterReceive** silences a node the moment it has received its
  n-th matching message: every message it sends from then on is
  dropped at delivery (a crashed host cannot transmit).

Fault randomness comes from ``random.Random(plan.seed)`` — separate
from the deployment RNG, so the same deployment seed with and without
a plan differs only where faults actually fired.

When :mod:`repro.obs` is enabled, every injection increments
``cyclosa_faults_injected_total{fault=...}`` and emits a zero-width
``net.fault`` span carrying the affected link and wire kind, so fault
events line up with the per-leg ``path`` spans in assembled traces.
"""

from __future__ import annotations

import random
from dataclasses import replace as _replace
from typing import Any, Callable, Dict, List, Optional

from repro.faults.plan import (CrashAfterReceive, Corrupt, Delay,
                               DenyAttestation, Drop, Duplicate, FaultPlan,
                               RateLimitStorm)
from repro.net.transport import Message, Network
from repro.obs import OBS


class FaultInjectionError(Exception):
    """Installation misuse (double install, missing deployment parts)."""


class FaultInjector:
    """Link-fault interceptor over one :class:`Network` instance."""

    def __init__(self, network: Network, plan: FaultPlan) -> None:
        self.network = network
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: Injections per fault name (``drop``, ``delay``, ...).
        self.counts: Dict[str, int] = {}
        link = plan.link_faults()
        self._drops: List[Drop] = [f for f in link if isinstance(f, Drop)]
        self._delays: List[Delay] = [f for f in link if isinstance(f, Delay)]
        self._dups: List[Duplicate] = [
            f for f in link if isinstance(f, Duplicate)]
        self._corrupts: List[Corrupt] = [
            f for f in link if isinstance(f, Corrupt)]
        self._crashes: Dict[str, CrashAfterReceive] = {
            f.node: f for f in link if isinstance(f, CrashAfterReceive)}
        self._crash_received: Dict[str, int] = {}
        #: Nodes whose hosts have crashed: their sends go nowhere.
        self.silenced: set = set()
        #: msg_ids already delayed once (delay applies at most once).
        self._delayed_ids: set = set()
        self._orig_send: Optional[Callable] = None
        self._orig_deliver: Optional[Callable] = None

    # -- lifecycle -----------------------------------------------------

    def install(self) -> "FaultInjector":
        if self._orig_send is not None:
            raise FaultInjectionError("injector already installed")
        self._orig_send = self.network.send
        self._orig_deliver = self.network._deliver
        self.network.send = self._send  # type: ignore[method-assign]
        self.network._deliver = self._deliver  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        if self._orig_send is None:
            return
        self.network.send = self._orig_send  # type: ignore[method-assign]
        self.network._deliver = self._orig_deliver  # type: ignore[method-assign]
        self._orig_send = None
        self._orig_deliver = None

    # -- accounting ----------------------------------------------------

    def note(self, fault_name: str, src: str, dst: str, kind: str) -> None:
        """Count one injection; mirror it into obs when enabled."""
        self.counts[fault_name] = self.counts.get(fault_name, 0) + 1
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_faults_injected_total",
                "faults injected by repro.faults, by kind",
                fault=fault_name).inc()
            span = OBS.tracer.start_span("net.fault", attributes={
                "fault": fault_name, "src": src, "dst": dst, "kind": kind})
            OBS.tracer.end_span(span)

    def _count_wire_loss(self) -> None:
        """Mirror :class:`Network`'s own drop accounting."""
        self.network.stats.dropped += 1
        if OBS.enabled:
            OBS.registry.counter(
                "cyclosa_net_dropped_total",
                "messages lost (loss, churn, dead senders)").inc()

    # -- interceptors --------------------------------------------------

    def _send(self, src: str, dst: str, kind: str, payload: Any,
              size_bytes: Optional[int] = None) -> Optional[Message]:
        message = self._orig_send(src, dst, kind, payload, size_bytes)
        if message is None:
            return None
        now = self.network.simulator.now
        for fault in self._dups:
            if (fault.active(now) and fault.match.matches(src, dst, kind)
                    and self.rng.random() < fault.probability):
                self.note("duplicate", src, dst, kind)
                # The copy is delivered verbatim, bypassing further
                # link faults: one injected duplicate, not a cascade.
                self.network.simulator.post(
                    fault.extra_delay,
                    lambda m=message: self._orig_deliver(m))
                break
        return message

    def _deliver(self, message: Message) -> None:
        now = self.network.simulator.now
        src, dst, kind = message.src, message.dst, message.kind
        if src in self.silenced:
            self.note("silence", src, dst, kind)
            self._count_wire_loss()
            return
        for fault in self._drops:
            if (fault.active(now) and fault.match.matches(src, dst, kind)
                    and self.rng.random() < fault.probability):
                self.note("drop", src, dst, kind)
                self._count_wire_loss()
                return
        if message.msg_id in self._delayed_ids:
            self._delayed_ids.discard(message.msg_id)
        else:
            for fault in self._delays:
                if (fault.active(now) and fault.match.matches(src, dst, kind)
                        and self.rng.random() < fault.probability):
                    extra = fault.extra
                    if fault.jitter > 0:
                        extra += fault.jitter * self.rng.random()
                    self.note("delay", src, dst, kind)
                    self._delayed_ids.add(message.msg_id)
                    self.network.simulator.post(
                        extra, lambda m=message: self._deliver(m))
                    return
        for fault in self._corrupts:
            if (isinstance(message.payload, (bytes, bytearray))
                    and len(message.payload) > 0
                    and fault.active(now)
                    and fault.match.matches(src, dst, kind)
                    and self.rng.random() < fault.probability):
                corrupted = bytearray(message.payload)
                position = self.rng.randrange(len(corrupted))
                corrupted[position] ^= 0xFF
                message = _replace(message, payload=bytes(corrupted))
                self.note("corrupt", src, dst, kind)
                break
        crash = self._crashes.get(dst)
        if (crash is not None and dst not in self.silenced
                and crash.trigger.matches(src, dst, kind)):
            count = self._crash_received.get(dst, 0) + 1
            self._crash_received[dst] = count
            if count >= crash.after:
                # The host consumes this message, then dies: silence
                # takes effect before any reply it schedules can leave.
                self.silenced.add(dst)
                self.note("crash", src, dst, kind)
        self._orig_deliver(message)


class _StormRateLimiter:
    """Wraps the engine's rate limiter; forces captchas during storms.

    Outside a storm window it delegates to the wrapped limiter (or
    admits everything when the deployment had none configured).
    """

    def __init__(self, inner, storms: List[RateLimitStorm],
                 injector: FaultInjector, engine_address: str) -> None:
        from repro.searchengine.ratelimit import RateLimitVerdict

        self._verdicts = RateLimitVerdict
        self.inner = inner
        self.storms = storms
        self.injector = injector
        self.engine_address = engine_address

    def check(self, identity: str, now: float):
        for storm in self.storms:
            if storm.active(now):
                self.injector.note("ratelimit-storm", identity,
                                   self.engine_address, "search")
                return self._verdicts.CAPTCHA
        if self.inner is None:
            return self._verdicts.ADMITTED
        return self.inner.check(identity, now)

    def __getattr__(self, name):
        # admitted()/rejected() pass through to the real
        # limiter when one exists.
        if self.inner is None:
            raise AttributeError(name)
        return getattr(self.inner, name)


class InstalledPlan:
    """One plan, live over one deployment. ``uninstall()`` restores
    every wrapped method/attribute."""

    def __init__(self, plan: FaultPlan, injector: FaultInjector,
                 restorers: List[Callable[[], None]]) -> None:
        self.plan = plan
        self.injector = injector
        self._restorers = restorers

    @property
    def counts(self) -> Dict[str, int]:
        """Injections per fault name (sorted for stable reports)."""
        return dict(sorted(self.injector.counts.items()))

    def uninstall(self) -> None:
        for restore in self._restorers:
            restore()
        self._restorers = []
        self.injector.uninstall()


def install(plan: FaultPlan, deployment) -> InstalledPlan:
    """Install every fault of *plan* over *deployment*.

    *deployment* is duck-typed (a
    :class:`~repro.core.client.CyclosaNetwork` or anything exposing
    ``network``, ``simulator``, ``nodes``, ``services.ias`` and
    ``engine_node``); only the parts a fault family needs must exist.
    """
    injector = FaultInjector(deployment.network, plan).install()
    restorers: List[Callable[[], None]] = []

    denials = [f for f in plan.service_faults()
               if isinstance(f, DenyAttestation)]
    if denials:
        ias = deployment.services.ias
        platform_of = {node.address: node.host.platform_id
                       for node in deployment.nodes}
        entries = []
        for fault in denials:
            unknown = [n for n in fault.nodes if n not in platform_of]
            if unknown:
                raise FaultInjectionError(
                    f"DenyAttestation names unknown nodes: {unknown}")
            entries.append(
                (fault, frozenset(platform_of[n] for n in fault.nodes)))
        orig_verify = ias.verify

        def verify(quote):
            from repro.sgx.attestation import (QuoteStatus,
                                               VerificationReport)

            now = deployment.simulator.now
            for fault, platforms in entries:
                if fault.active(now) and quote.platform_id in platforms:
                    injector.note("attest-deny", f"p{quote.platform_id}",
                                  "ias", "attestation")
                    return VerificationReport(
                        status=QuoteStatus.GROUP_REVOKED,
                        platform_id=quote.platform_id,
                        measurement=quote.measurement)
            return orig_verify(quote)

        ias.verify = verify
        restorers.append(lambda: setattr(ias, "verify", orig_verify))

    storms = [f for f in plan.service_faults()
              if isinstance(f, RateLimitStorm)]
    if storms:
        # A storm hits the whole engine tier: wrap every replica's
        # limiter (older single-engine deployments expose just
        # ``engine_node``).
        engine_nodes = (getattr(deployment, "engine_nodes", None)
                        or [deployment.engine_node])
        for engine_node in engine_nodes:
            orig_limiter = engine_node.rate_limiter
            engine_node.rate_limiter = _StormRateLimiter(
                orig_limiter, storms, injector, engine_node.address)
            restorers.append(
                lambda node=engine_node, limiter=orig_limiter:
                setattr(node, "rate_limiter", limiter))

    return InstalledPlan(plan, injector, restorers)
