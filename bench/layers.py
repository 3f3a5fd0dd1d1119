"""Per-layer time split for the traced benchmark run.

The tracer wraps each layer's public entry points from the outside:
nothing under ``src/`` knows it exists. A wrapper replaces the original
object everywhere it is bound — the class attribute for methods, every
``repro.*`` module namespace for functions — so aliases such as
``repro.net.tls.aead_seal`` are caught as well.

Each call's time on :func:`bench.speed.now` (the thread's CPU time, as
every benchmark timing), minus the time spent in nested wrapped calls,
is its *self time* and is charged to the call's layer. Time that falls
under no boundary (the benchmark's own loop, and bench code between
calls) is *unattributed*; it is timed on its own, as the gaps between
outermost wrapped calls. What neither side sees is the tracer's own
bookkeeping as an outermost call returns. :meth:`Phase.check` fails the
run when that share of the phase's total exceeds 1 %.

Two attribution rules (documented in README.md):

- ``NetNode.on_message`` is charged to the receiving node's layer:
  ``CyclosaNode`` → core, ``SearchEngineNode`` → searchengine, a plain
  ``NetNode`` → net.
- Everything inside ``Simulator.run``/``step`` that no other boundary
  covers — private callbacks such as gossip rounds and retry timers —
  is ``net`` self time. In-program spans are a later change.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.speed import now

LAYERS = ("text", "core", "sgx", "crypto", "net", "gossip", "searchengine",
          "obs")

#: Self times plus unattributed time must match the phase total this
#: closely (a share of the total).
SUM_TOLERANCE = 0.01

# (owner, attribute, layer, tally). *owner* is a class or a module;
# *layer* is a layer name or a function of the call's positional
# arguments; *tally* maps (args, result) to an (extra counter, amount)
# pair or None.
Boundary = Tuple[Any, str, Any, Optional[Callable[[tuple, Any], Any]]]


def _payload_bytes(key: str) -> Callable[[tuple, Any], Tuple[str, int]]:
    # seal(key, plaintext, ...) and open_(key, sealed, ...): the bytes
    # the keystream and MAC run over.
    return lambda args, result: (key, len(args[1]) if len(args) > 1 else 0)


def _served(args: tuple, result: Any) -> Optional[Tuple[str, int]]:
    return ("gossip_served", 1) if result else None


def boundaries() -> List[Boundary]:
    """Every wrapped entry point, by layer."""
    # import_module, not ``import a.b as b``: ``repro.text`` re-exports
    # a function named ``tokenize`` that shadows the submodule.
    aead, hashes, wire, corpus, sharding, smoothing, tokenize, vectorize = (
        importlib.import_module(f"repro.{name}") for name in (
            "crypto.aead", "crypto.hashes", "net.wire", "searchengine.corpus",
            "searchengine.sharding", "text.smoothing", "text.tokenize",
            "text.vectorize"))
    from repro.core.enclave import CyclosaEnclave
    from repro.core.node import CyclosaNode
    from repro.core.sensitivity import SensitivityAnalysis
    from repro.crypto.dh import DhKeyPair
    from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
    from repro.gossip.peer_sampling import PeerSamplingService
    from repro.net.simulator import Simulator
    from repro.net.tls import SecureChannel, SecureChannelManager
    from repro.net.transport import NetNode, Network
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.searchengine.cache import ResultCache
    from repro.searchengine.engine import SearchEngine
    from repro.searchengine.node import SearchEngineNode
    from repro.searchengine.ratelimit import RateLimiter
    from repro.sgx.attestation import IntelAttestationService
    from repro.sgx.enclave import EnclaveHost

    def receiver_layer(args: tuple) -> str:
        if isinstance(args[0], CyclosaNode):
            return "core"
        if isinstance(args[0], SearchEngineNode):
            return "searchengine"
        return "net"

    ecalls = sorted(name for name, value in vars(CyclosaEnclave).items()
                    if getattr(value, "_repro_sgx_ecall", False))
    table: List[Boundary] = [
        (tokenize, "tokenize", "text", None),
        (tokenize, "stemmed_terms", "text", None),
        (vectorize, "query_vector", "text", None),
        (smoothing, "smoothed_similarity", "text", None),
        (CyclosaNode, "search", "core", None),
        (CyclosaNode, "handle_request", "core", None),
        (SensitivityAnalysis, "assess", "core", None),
        (SensitivityAnalysis, "remember", "core", None),
        *[(CyclosaEnclave, name, "sgx", None) for name in ecalls],
        (IntelAttestationService, "verify", "sgx", None),
        (EnclaveHost, "create_enclave", "sgx", None),
        (EnclaveHost, "quote_report", "sgx", None),
        (aead, "seal", "crypto", _payload_bytes("aead_bytes")),
        (aead, "open_", "crypto", _payload_bytes("aead_bytes")),
        (RsaKeyPair, "generate", "crypto", None),
        (RsaKeyPair, "sign", "crypto", None),
        (RsaKeyPair, "decrypt", "crypto", None),
        (RsaPublicKey, "verify", "crypto", None),
        (RsaPublicKey, "encrypt", "crypto", None),
        (DhKeyPair, "generate", "crypto", None),
        (DhKeyPair, "shared_secret", "crypto", None),
        (hashes, "hkdf", "crypto", None),
        (Simulator, "run", "net", None),
        (Simulator, "step", "net", None),
        (Network, "send", "net", None),
        (NetNode, "on_message", receiver_layer, None),
        (wire, "encode", "net", None),
        (wire, "decode", "net", None),
        (SecureChannel, "seal", "net", None),
        (SecureChannel, "open", "net", None),
        (SecureChannelManager, "establish", "net", None),
        (SecureChannelManager, "handle_handshake", "net", None),
        (PeerSamplingService, "handle_request", "gossip", _served),
        (PeerSamplingService, "random_peers", "gossip", None),
        # Index and corpus construction are the engine's set-up work.
        (corpus, "build_corpus", "searchengine", None),
        (sharding, "build_shard_engines", "searchengine", None),
        (SearchEngine, "__init__", "searchengine", None),
        (SearchEngine, "search", "searchengine", None),
        (SearchEngine, "search_batch", "searchengine", None),
        (SearchEngine, "rank_terms", "searchengine", None),
        (ResultCache, "get", "searchengine", None),
        (ResultCache, "put", "searchengine", None),
        (RateLimiter, "check", "searchengine", None),
        (Tracer, "start_span", "obs", None),
        (Tracer, "end_span", "obs", None),
        (MetricsRegistry, "counter", "obs", None),
        (MetricsRegistry, "histogram", "obs", None),
        (MetricsRegistry, "collect", "obs", None),
    ]
    return table


def _repro_modules() -> List[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def entry_name(owner: Any, attribute: str) -> str:
    """``Class.method`` or ``module.function`` (last dotted component)."""
    if isinstance(owner, type):
        return f"{owner.__name__}.{attribute}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"


@dataclass
class Phase:
    """The split of one traced phase (set-up or measured)."""

    total_s: float = 0.0
    #: Time between outermost wrapped calls.
    unattributed_s: float = 0.0
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    #: Calls per entry point (``Class.method``), for the count metrics.
    entries: Dict[str, int] = field(default_factory=dict)
    tallies: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def check(self) -> None:
        """Raise if self plus unattributed time misses the phase total.

        The two are timed separately, so the miss is the time the tracer
        itself spends as outermost calls return.
        """
        explained = self.attributed_s + self.unattributed_s
        if abs(explained - self.total_s) > SUM_TOLERANCE * self.total_s:
            raise RuntimeError(
                f"layer self times ({self.attributed_s:.4f} s) plus "
                f"unattributed time ({self.unattributed_s:.4f} s) miss the "
                f"traced total {self.total_s:.4f} s by more than "
                f"{SUM_TOLERANCE:.0%}")


class LayerTracer:
    """Installs the boundary wrappers and accumulates per-layer time.

    Use :meth:`install` / :meth:`uninstall` around the traced run and
    :meth:`phase` around each phase; a phase must start and end outside
    every wrapped call.
    """

    def __init__(self) -> None:
        self._self_s = {layer: 0.0 for layer in LAYERS}
        self._calls = {layer: 0 for layer in LAYERS}
        self._entries: Dict[str, int] = {}
        self._tallies: Dict[str, float] = {}
        # One [child seconds] cell per open wrapped call.
        self._stack: List[List[float]] = []
        # Seconds between outermost calls, and when the last one returned.
        self._outside = [0.0]
        self._returned_at = [0.0]
        self._restore: List[Tuple[Any, str, Any]] = []
        # id(wrapper) -> (wrapper, original), for the uninstall sweep.
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn: Callable, entry: str, layer: Any,
              tally: Optional[Callable]) -> Callable:
        clock = now
        stack = self._stack
        self_s = self._self_s
        calls = self._calls
        entries = self._entries
        tallies = self._tallies
        outside = self._outside
        returned_at = self._returned_at
        entries.setdefault(entry, 0)
        fixed_layer = None if callable(layer) else layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            start = clock()
            if not stack:
                outside[0] += start - returned_at[0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                owner = fixed_layer or layer(args)
                self_s[owner] += elapsed - frame[0]
                calls[owner] += 1
                entries[entry] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    returned_at[0] = clock()
            if tally is not None:
                counted = tally(args, result)
                if counted is not None:
                    key, amount = counted
                    tallies[key] = tallies.get(key, 0.0) + amount
            return result

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("layer tracer already installed")
        table = boundaries()  # imports every module it names first
        modules = _repro_modules()
        for owner, attribute, layer, tally in table:
            entry = entry_name(owner, attribute)
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    replacement = classmethod(
                        self._wrap(raw.__func__, entry, layer, tally))
                else:
                    replacement = self._wrap(raw, entry, layer, tally)
                self._restore.append((owner, attribute, raw))
                setattr(owner, attribute, replacement)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, entry, layer, tally)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []
        # A repro module first imported while the wrappers were live
        # bound a wrapper; put the original back there too.
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attribute, pair[1])
        self._wrappers.clear()

    # -- phases --------------------------------------------------------

    def _reset(self) -> None:
        for layer in LAYERS:
            self._self_s[layer] = 0.0
            self._calls[layer] = 0
        for entry in self._entries:
            self._entries[entry] = 0
        self._tallies.clear()
        self._outside[0] = 0.0

    def phase(self) -> "_PhaseTimer":
        """``with tracer.phase() as phase:`` — reset, run, then read."""
        return _PhaseTimer(self)


class _PhaseTimer:
    def __init__(self, tracer: LayerTracer) -> None:
        self._tracer = tracer
        self.result = Phase()
        self._start = 0.0

    def __enter__(self) -> Phase:
        if self._tracer._stack:
            raise RuntimeError("a phase must start outside wrapped calls")
        self._tracer._reset()
        self._start = now()
        self._tracer._returned_at[0] = self._start
        return self.result

    def __exit__(self, *exc_info) -> None:
        end = now()
        tracer = self._tracer
        phase = self.result
        phase.total_s = end - self._start
        phase.unattributed_s = (tracer._outside[0]
                                + end - tracer._returned_at[0])
        phase.self_s = dict(tracer._self_s)
        phase.calls = dict(tracer._calls)
        phase.entries = dict(tracer._entries)
        phase.tallies = dict(tracer._tallies)
