"""Deterministic discrete-event network simulation.

Every latency and throughput figure in the paper was measured on a
physical testbed; this package replaces that testbed with a seeded
discrete-event simulator so the same figures become exactly
reproducible. Simulated time is the *only* clock in the repository —
`time.time()` never appears in measured paths.

- :mod:`repro.net.simulator` — the event loop (binary-heap scheduler,
  deterministic FIFO tie-breaking).
- :mod:`repro.net.latency`   — pluggable link/server latency models
  (constant, log-normal WAN, heavy-tailed TOR-like).
- :mod:`repro.net.transport` — addressable nodes, messages with byte
  sizes, per-node and per-link latency overrides, and an RPC helper
  with timeouts. Message loss is injected by :mod:`repro.faults`.
- :mod:`repro.net.tls`       — authenticated secure channels (DH +
  identity signatures, optionally gated on SGX remote attestation)
  carrying AEAD-sealed application payloads.
- :mod:`repro.net.trace`     — the *adversary's* wiretap
  (:class:`MessageTrace`): what a network observer sees, for traffic
  analysis. Performance telemetry is a different concern and lives in
  :mod:`repro.obs` — transport send/receive paths emit ``net.send`` /
  ``net.recv`` spans and byte counters there when observability is
  enabled.
"""

from repro.net.latency import (
    ConstantLatency,
    HeavyTailLatency,
    LatencyModel,
    LogNormalLatency,
)
from repro.net.simulator import Simulator
from repro.net.trace import MessageTrace, TracedMessage
from repro.net.transport import Message, NetworkError, Network, NetNode
from repro.net.tls import SecureChannel, SecureChannelManager, TlsError

__all__ = [
    "ConstantLatency",
    "HeavyTailLatency",
    "LatencyModel",
    "LogNormalLatency",
    "Simulator",
    "MessageTrace",
    "TracedMessage",
    "Message",
    "NetworkError",
    "Network",
    "NetNode",
    "SecureChannel",
    "SecureChannelManager",
    "TlsError",
]
