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

The encoding of an object is canonical: members in sorted key order, no
whitespace, and every ``"`` inside a string written ``\\"`` (non-ASCII
as ``\\uXXXX``). That lets :func:`append_member` and :func:`last_member`
add and read an object's last member without parsing the rest, which is
how a relay forwards an engine page it never reads, and lets
:func:`splice_rows` build an encoding from encodings made earlier, which
is how an engine replica answers a sibling from cached partials.
"""

from __future__ import annotations

import json
from json.decoder import scanstring
from typing import Any, Iterable, Optional

_BYTES_TAG = "__bytes__"

#: What :func:`decode` raises on bytes that are not an encoding: invalid
#: UTF-8 or JSON (``ValueError``), a bytes tag that does not hold a hex
#: string (``ValueError`` or ``TypeError``), or arrays and objects nested
#: deeper than the interpreter's recursion limit (``RecursionError``).
DECODE_ERRORS = (TypeError, ValueError, RecursionError)


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
    """Inverse of :func:`encode`; raises one of :data:`DECODE_ERRORS`
    on bytes that are not an encoding."""
    return _DECODER.decode(data.decode("utf-8"))


def append_member(data: bytes, key: str, value: Any) -> bytes:
    """``encode({**obj, key: value})`` from ``data = encode(obj)``,
    without decoding *data*, for a dict *obj* whose keys all sort
    before *key*.

    Exact because an object's members are written in sorted key order
    with no whitespace: a key that sorts after every key present is the
    last member, written just before the closing brace. The caller
    vouches for *data* and the key order; only its last byte is
    replaced.
    """
    member = f"{_ENCODER.encode(key)}:{_ENCODER.encode(value)}".encode()
    if data == b"{}":
        return b"{" + member + b"}"
    return b"".join((data[:-1], b",", member, b"}"))


def splice_rows(key: str, rows: Iterable[Iterable[bytes]]) -> bytes:
    """``encode({key: [[v, ...], ...]})`` from *rows* of ``encode(v)``,
    without re-encoding any ``v``.

    Exact because a canonical encoding does not depend on where a value
    sits: a list is written as ``[``, its items' encodings joined by
    ``,`` and ``]``, and a one-member object as ``{``, its key's
    encoding, ``:``, its value's encoding and ``}``, with no whitespace
    anywhere. The caller vouches that every fragment is an encoding.
    """
    return b"".join((
        b"{", _ENCODER.encode(key).encode("utf-8"), b":[",
        b",".join(b"[" + b",".join(row) + b"]" for row in rows), b"]}"))


def last_member(data: bytes, key: str) -> Optional[str]:
    """The str value of the last member of the object encoded in *data*
    if that member's key is *key* (a key that starts with a letter);
    ``None`` otherwise.

    Reads only the tail of *data*. Exact on any encoding of an object:
    ``"`` is escaped inside every string, so a ``"key":"`` after ``,``
    or ``{`` can only open *key*'s member with a string value, and no
    string can hold one. If the last member is *key*'s, its ``"key":"``
    is therefore the last in *data*, and the member found is the last
    one exactly when its string value closes just before the final
    brace.
    """
    head = _ENCODER.encode(key).encode("utf-8") + b':"'
    start = data.rfind(head)
    if start < 1 or data[start - 1] not in b",{" or data[-1:] != b"}":
        return None
    # The value string, both quotes included; the final brace excluded.
    quoted = data[start + len(head) - 1:-1]
    try:
        value, end = scanstring(quoted.decode("ascii"), 1)
    except ValueError:
        return None
    return value if end == len(quoted) else None
