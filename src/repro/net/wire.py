"""Canonical wire encoding for application payloads.

Protocols in this repository encrypt *bytes*; their payloads are small
JSON-able structures (queries, result lists, handshake fields) that may
embed raw byte strings (keys, quotes, nonces). This module provides a
deterministic, reversible encoding: JSON with sorted keys, where bytes
are tagged as ``{"__bytes__": "<hex>"}``.

Determinism matters twice: encrypted sizes must be stable for the
traffic-analysis experiments, and hashes over encoded structures (e.g.
attestation report data) must be reproducible.

Both directions run in the :mod:`json` module's C scanner and encoder:
the encoder's ``default`` hook tags bytes and bytearray as it meets
them, and the decoder's ``object_hook`` turns every object whose sole
key is the tag back into bytes. Tuples encode as lists.
"""

from __future__ import annotations

import json
from typing import Any

_BYTES_TAG = "__bytes__"


def _tag_bytes(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: value.hex()}
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _untag_bytes(obj: dict) -> Any:
    if len(obj) == 1 and _BYTES_TAG in obj:
        return bytes.fromhex(obj[_BYTES_TAG])
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_tag_bytes)
_DECODER = json.JSONDecoder(object_hook=_untag_bytes)


def encode(obj: Any) -> bytes:
    """Serialise *obj* to canonical bytes."""
    return _ENCODER.encode(obj).encode("utf-8")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`."""
    return _DECODER.decode(data.decode("utf-8"))
