"""Tests for repro.net.wire."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.net import wire


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.text(max_size=30), st.binary(max_size=30))

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=15)


class TestEncodeDecode:
    def test_scalar_roundtrip(self):
        for value in (None, True, 42, "text", 3.5):
            assert wire.decode(wire.encode(value)) == value

    def test_bytes_roundtrip(self):
        assert wire.decode(wire.encode(b"\x00\xff raw")) == b"\x00\xff raw"

    def test_nested_structure_roundtrip(self):
        value = {"key": [1, b"\x01\x02", {"inner": "x"}], "n": None}
        assert wire.decode(wire.encode(value)) == value

    def test_deterministic_key_order(self):
        assert wire.encode({"b": 1, "a": 2}) == wire.encode({"a": 2, "b": 1})

    def test_encoding_is_compact(self):
        assert b" " not in wire.encode({"a": [1, 2, 3]})

    def test_tuples_become_lists(self):
        assert wire.decode(wire.encode((1, 2))) == [1, 2]

    @given(json_values)
    def test_property_roundtrip(self, value):
        decoded = wire.decode(wire.encode(value))

        def normalise(item):
            if isinstance(item, tuple):
                return [normalise(x) for x in item]
            if isinstance(item, list):
                return [normalise(x) for x in item]
            if isinstance(item, dict):
                return {k: normalise(v) for k, v in item.items()}
            return item

        assert decoded == normalise(value)

    @given(json_values)
    def test_property_deterministic(self, value):
        assert wire.encode(value) == wire.encode(value)


# The recursive walkers the codec used before it moved into the json
# module's C encoder and decoder, kept as the reference.
def _reference_encode_value(value):
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {key: _reference_encode_value(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_encode_value(item) for item in value]
    return value


def _reference_decode_value(value):
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {key: _reference_decode_value(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_reference_decode_value(item) for item in value]
    return value


def _reference_encode(obj):
    return json.dumps(_reference_encode_value(obj), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _reference_decode(data):
    return _reference_decode_value(json.loads(data.decode("utf-8")))


_RAISED = object()


def _outcome(function, argument):
    # Valid input must give equal values; on malformed input both sides
    # must raise. The error types differ in one case: the codec decodes
    # a tag nested in a tag inside-out, so a bad inner hex string raises
    # ValueError where the reference, outermost first, raises TypeError.
    try:
        return function(argument)
    except (TypeError, ValueError):
        return _RAISED


wire_scalars = st.one_of(
    json_scalars, st.binary(max_size=30).map(bytearray),
    st.floats(allow_nan=False))

wire_values = st.recursive(
    wire_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.builds(lambda blob: {"__bytes__": blob}, children)),
    max_leaves=15)

# Decoder input that may misuse the tag: a tag key next to other keys,
# a non-hex or non-string tag value, a tag nested inside a tag.
tag_trees = st.recursive(
    st.one_of(st.none(), st.integers(), st.text(max_size=6),
              st.sampled_from(["", "00ff", "abc", "zz", "0A0b"])),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["__bytes__", "a", "b"]), children,
                        max_size=3)),
    max_leaves=10)


class TestReferenceCodec:
    @given(wire_values)
    def test_encode_matches_reference(self, value):
        assert _outcome(wire.encode, value) == _outcome(
            _reference_encode, value)

    @given(wire_values)
    def test_decode_matches_reference(self, value):
        data = _reference_encode(value)
        assert _outcome(wire.decode, data) == _outcome(
            _reference_decode, data)

    @given(tag_trees)
    def test_decode_matches_reference_on_tag_misuse(self, tree):
        data = json.dumps(tree).encode("utf-8")
        assert _outcome(wire.decode, data) == _outcome(
            _reference_decode, data)

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), {"a": [frozenset()]}, {b"key": 1}])
    def test_unsupported_type_raises_like_reference(self, value):
        with pytest.raises(TypeError):
            _reference_encode(value)
        with pytest.raises(TypeError):
            wire.encode(value)

    def test_known_answer(self):
        # Recorded from the recursive codec; a change to the format
        # changes this digest.
        payload = {
            "z": [1, b"\x00\xff",
                  {"k": (b"ab", bytearray(b"cd"), None, True, 2.5, "té")}],
            "a": {"nested": {"bytes": b"x" * 40, "list": [[b""], []]}},
            "n": -3,
        }
        assert hashlib.sha256(wire.encode(payload)).hexdigest() == (
            "6f4bc083aec5a26a32c87db4f385655b63c828c5888944c1bc0608ee41470d6d")


# Engine pages as the relay passes them on: 0-20 hits whose titles mix
# ASCII terms, non-ASCII text and strings that look like a token member.
page_titles = st.lists(st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10),
    st.text(max_size=10),
    st.sampled_from(['"token":"t1"', ',"token":"', "\\", '"}', "santé"])),
    max_size=6)

page_hits = st.fixed_dictionaries({
    "doc_id": st.integers(min_value=0, max_value=10**6),
    "url": st.text(max_size=30),
    "score": st.floats(allow_nan=False, allow_infinity=False),
    "title": page_titles,
})

pages = st.fixed_dictionaries({
    "hits": st.lists(page_hits, max_size=20),
    "status": st.sampled_from(["ok", "captcha"]),
})

tokens = st.one_of(st.from_regex(r"t[0-9]{8}", fullmatch=True),
                   st.text(max_size=12))

non_strings = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.lists(st.text(max_size=4), max_size=3),
    st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2))


# Shard partials as a sibling sends them: hit lists whose urls and
# titles may hold a quote, a backslash or non-ASCII text.
quoted_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", 'say"hi"', "back\\slash", "sant\u00e9",
                     "\u4e2d\u6587", '\\"']))

shard_hits = st.fixed_dictionaries({
    "d": st.integers(min_value=0, max_value=10**6),
    "u": quoted_text,
    "s": st.floats(allow_nan=False, allow_infinity=False),
    "t": st.lists(quoted_text, max_size=6),
})


class TestSpliceRows:
    """``splice_rows`` builds an object's encoding from the encodings
    of the values in its rows, byte for byte."""

    @given(st.text(max_size=6),
           st.lists(st.lists(st.lists(shard_hits, max_size=4), max_size=3),
                    max_size=3))
    def test_splice_equals_the_encoding(self, key, partials):
        rows = [[wire.encode(hits) for hits in per_query]
                for per_query in partials]
        assert wire.splice_rows(key, rows) == wire.encode({key: partials})


class TestDecodeErrors:
    @pytest.mark.parametrize("data", [
        b"[" * 100000 + b"]" * 100000,
        b'{"a":' * 100000 + b"1" + b"}" * 100000,
    ], ids=["arrays", "objects"])
    def test_deep_nesting_raises_a_decode_error(self, data):
        with pytest.raises(wire.DECODE_ERRORS):
            wire.decode(data)


class TestLastMember:
    """``append_member`` and ``last_member`` add and read an object's
    last member without parsing the rest of it."""

    @given(pages, tokens)
    def test_append_equals_encoding_with_the_member(self, page, token):
        appended = wire.append_member(wire.encode(page), "token", token)
        assert appended == wire.encode({**page, "token": token})
        assert wire.last_member(appended, "token") == token

    def test_append_to_the_empty_object(self):
        assert wire.append_member(b"{}", "token", "t1") == (
            wire.encode({"token": "t1"}))

    @given(pages)
    def test_another_last_key_reads_none(self, page):
        assert wire.last_member(wire.encode(page), "token") is None

    @given(pages, tokens, st.text(min_size=1, max_size=6))
    def test_a_later_key_reads_none(self, page, token, value):
        data = wire.encode({**page, "token": token, "zz": value})
        assert wire.last_member(data, "token") is None

    @given(pages, non_strings)
    def test_a_non_string_value_reads_none(self, page, value):
        data = wire.encode({**page, "token": value})
        assert wire.last_member(data, "token") is None

    @given(pages, tokens)
    def test_a_nested_member_reads_none(self, page, token):
        data = wire.encode({**page, "wrap": {"token": token}})
        assert wire.last_member(data, "token") is None

    @pytest.mark.parametrize("data", [
        b"", b"}", b"not json", b'"token":"t1"}', b'{"token":"t1',
        b'{"token":"t1"]}', b'{"token":"\xff"}'])
    def test_bytes_that_are_no_object_read_none(self, data):
        assert wire.last_member(data, "token") is None

    def test_a_key_that_ends_in_the_key_reads_none(self):
        data = wire.encode({"status": "ok", 'x"token': "t1"})
        assert b'"token":"t1"}' in data
        assert wire.last_member(data, "token") is None
