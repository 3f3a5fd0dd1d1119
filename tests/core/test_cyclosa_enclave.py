"""Tests for the CYCLOSA enclave's trusted logic."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.enclave import (RECORD_ENVELOPE_BYTES, CyclosaEnclave,
                                _padded_record)
from repro.net import wire
from repro.net.tls import SecureChannel, _directional_keys
from repro.sgx.enclave import EnclaveHost
from repro.sgx.errors import EnclaveIsolationError


def paired_channels(secret: bytes, peer_a: str, peer_b: str):
    send_a, recv_a = _directional_keys(secret, initiator=True)
    send_b, recv_b = _directional_keys(secret, initiator=False)
    return (SecureChannel(peer=peer_b, send_key=send_a, recv_key=recv_a),
            SecureChannel(peer=peer_a, send_key=send_b, recv_key=recv_b))


def record_calls(monkeypatch, module, name, calls):
    """Append the arguments of every call of ``module.name`` to
    *calls*."""
    original = getattr(module, name)

    def recorded(*args):
        calls.append((name, args))
        return original(*args)

    monkeypatch.setattr(module, name, recorded)


@pytest.fixture
def rng():
    return random.Random(9)


@pytest.fixture
def host(rng):
    return EnclaveHost(rng)


@pytest.fixture
def enclave(host):
    return host.create_enclave(CyclosaEnclave, table_capacity=100)


@pytest.fixture
def wired(enclave, rng):
    """Enclave with a client peer channel and an engine channel."""
    client_end, relay_end = paired_channels(b"p" * 32, "client", "relay")
    engine_out, engine_end = paired_channels(b"e" * 32, "relay", "engine")
    enclave.install_peer_channel("client", relay_end)
    enclave.install_engine_channel(engine_out)
    return enclave, client_end, engine_end


class TestChannels:
    def test_install_and_query(self, enclave, rng):
        a, b = paired_channels(b"x" * 32, "n1", "n2")
        assert not enclave.has_peer_channel("n2")
        enclave.install_peer_channel("n2", a)
        assert enclave.has_peer_channel("n2")
        enclave.drop_peer_channel("n2")
        assert not enclave.has_peer_channel("n2")

    def test_trusted_state_isolated(self, enclave):
        with pytest.raises(EnclaveIsolationError):
            _ = enclave.trusted


class TestTable:
    def test_seed_table(self, enclave):
        grew = enclave.seed_table(["q1", "q2", "q2"])
        assert grew == 2
        assert enclave.table_size() == 2

    def test_seeding_charges_epc(self, enclave, host):
        before = host.epc.committed_pages
        enclave.seed_table([f"query number {i}" for i in range(300)])
        assert host.epc.committed_pages > before


class TestProtection:
    def _install_relays(self, enclave, names):
        ends = {}
        for name in names:
            local, remote = paired_channels(
                name.encode().ljust(32, b"_"), "me", name)
            enclave.install_peer_channel(name, local)
            ends[name] = remote
        return ends

    def test_batch_covers_relays_once(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(10)])
        ends = self._install_relays(enclave, ["r1", "r2", "r3"])
        batch, _, _ = enclave.build_protected_batch("real query", 2,
                                                    ["r1", "r2", "r3"])
        assert sorted(relay for relay, _ in batch) == ["r1", "r2", "r3"]

    def test_exactly_one_real_query(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(10)])
        ends = self._install_relays(enclave, ["r1", "r2", "r3"])
        batch, real_relay, real_token = enclave.build_protected_batch(
            "real query", 2, ["r1", "r2", "r3"])
        texts = []
        for relay, sealed in batch:
            record = ends[relay].open(sealed)
            texts.append((record["query"], record["meta"]["is_fake"]))
            # The batch names the real record: its relay and its token.
            assert (relay == real_relay) == (not record["meta"]["is_fake"])
            assert (record["token"] == real_token) == (relay == real_relay)
        real = [q for q, fake in texts if not fake]
        assert real == ["real query"]
        fakes = [q for q, fake in texts if fake]
        assert len(fakes) == 2
        assert all(q != "real query" for q in fakes)

    def test_wrong_relay_count_rejected(self, enclave):
        self._install_relays(enclave, ["r1"])
        with pytest.raises(ValueError):
            enclave.build_protected_batch("q", 2, ["r1"])

    def test_missing_channel_rejected(self, enclave):
        with pytest.raises(KeyError):
            enclave.build_protected_batch("q", 0, ["stranger"])

    def test_empty_table_degrades_to_zero_fakes(self, enclave):
        self._install_relays(enclave, ["r1", "r2", "r3"])
        batch, real_relay, _ = enclave.build_protected_batch(
            "q", 2, ["r1", "r2", "r3"])
        assert [relay for relay, _ in batch] == [real_relay]  # real only

    def test_pending_token_tracking(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(10)])
        ends = self._install_relays(enclave, ["r1", "r2"])
        batch, real_relay, real_token = enclave.build_protected_batch(
            "real", 1, ["r1", "r2"])
        assert real_relay in ("r1", "r2")
        tokens = {relay: ends[relay].open(sealed)["token"]
                  for relay, sealed in batch}
        assert tokens[real_relay] == real_token
        assert len(set(tokens.values())) == 2  # one token per record

    def test_rebuild_real_moves_relay(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(10)])
        ends = self._install_relays(enclave, ["r1", "r2", "r3"])
        _, _, token = enclave.build_protected_batch("real", 1, ["r1", "r2"])
        new_token, sealed = enclave.rebuild_real(token, "r3")
        assert new_token != token
        record = ends["r3"].open(sealed)
        assert record["query"] == "real"
        assert record["token"] == new_token
        with pytest.raises(KeyError):  # the old token is spent
            enclave.rebuild_real(token, "r1")

    def test_same_relay_batches_keep_their_own_tokens(self, enclave):
        """Two in-flight searches whose real records share a relay each
        get their own token back, and a retry of the first re-seals the
        first search's query, not the newer one's."""
        ends = self._install_relays(enclave, ["r1", "r2"])
        _, relay_a, token_a = enclave.build_protected_batch(
            "first search", 0, ["r1"])
        _, relay_b, token_b = enclave.build_protected_batch(
            "second search", 0, ["r1"])
        assert relay_a == relay_b == "r1"
        assert token_a != token_b
        _, sealed = enclave.rebuild_real(token_a, "r2")
        assert ends["r2"].open(sealed)["query"] == "first search"

    def test_rebuild_unknown_token_rejected(self, enclave):
        self._install_relays(enclave, ["r1"])
        with pytest.raises(KeyError):
            enclave.rebuild_real("ghost-token", "r1")


class TestRelayPath:
    def test_unwrap_stores_query_and_seals_for_engine(self, wired):
        enclave, client_end, engine_end = wired
        sealed = client_end.seal({"token": "t1", "query": "forwarded query",
                                  "meta": {"true_user": "u1"}})
        result = enclave.unwrap_forward("client", sealed)
        assert result is not None
        handle, for_engine = result
        assert enclave.table_size() == 1  # stored as future fake
        record = engine_end.open(for_engine)
        assert record["query"] == "forwarded query"
        assert record["meta"]["true_user"] == "u1"

    def test_unwrap_from_unknown_peer_dropped(self, wired):
        enclave, client_end, _ = wired
        sealed = client_end.seal({"token": "t", "query": "q", "meta": {}})
        assert enclave.unwrap_forward("stranger", sealed) is None

    def test_unwrap_garbage_dropped(self, wired):
        enclave, _, _ = wired
        assert enclave.unwrap_forward("client", b"garbage") is None
        assert enclave.table_size() == 0

    def test_wrap_relay_response_roundtrip(self, wired):
        enclave, client_end, engine_end = wired
        sealed = client_end.seal({"token": "t42", "query": "q", "meta": {}})
        handle, _ = enclave.unwrap_forward("client", sealed)
        engine_reply = engine_end.seal(
            {"status": "ok", "hits": [{"url": "u1", "doc_id": 1,
                                       "score": 0.5}]})
        out = enclave.wrap_relay_response(handle, engine_reply)
        assert out is not None
        src, sealed_response = out
        assert src == "client"
        response = client_end.open(sealed_response)
        assert response["token"] == "t42"
        assert response["hits"][0]["url"] == "u1"

    def test_unwrap_record_that_does_not_decode_dropped(self, wired):
        enclave, client_end, _ = wired
        sealed = client_end.seal_bytes(b"not json")
        assert enclave.unwrap_forward("client", sealed) is None
        assert enclave.table_size() == 0

    @pytest.mark.parametrize("record", [
        "q", ["q"], {"query": "q", "meta": {}}, {"token": "t", "meta": {}},
        {"token": 5, "query": "q"}, {"token": "t", "query": ["q"]},
    ])
    def test_unwrap_malformed_record_dropped(self, wired, record):
        enclave, client_end, _ = wired
        sealed = client_end.seal(record)
        assert enclave.unwrap_forward("client", sealed) is None
        assert enclave.table_size() == 0

    def test_wrap_relay_response_neither_encodes_nor_decodes(
            self, wired, monkeypatch):
        """The relay passes the engine's page on as bytes."""
        enclave, client_end, engine_end = wired
        sealed = client_end.seal({"token": "t42", "query": "q", "meta": {}})
        handle, _ = enclave.unwrap_forward("client", sealed)
        reply = engine_end.seal({"status": "ok", "hits": [
            {"doc_id": 1, "url": "u1", "score": 0.5, "title": ["flu"]}]})
        calls = []
        record_calls(monkeypatch, wire, "encode", calls)
        record_calls(monkeypatch, wire, "decode", calls)
        assert enclave.wrap_relay_response(handle, reply) is not None
        assert calls == []

    @pytest.mark.parametrize("page", [
        {"status": "ok", "hits": [
            {"doc_id": 7, "url": "https://web.example/7", "score": 2.5,
             "title": ["santé", "grippe"]},
            {"doc_id": 3, "url": "https://web.example/3",
             "score": 0.1 + 0.2, "title": ['"token":"t9"', "\\"]}]},
        {"status": "captcha", "hits": []},
    ], ids=["ok", "captcha"])
    def test_sealed_answer_equals_sealing_the_decoded_page(self, wired, rng,
                                                          page):
        """Byte identity with the construction the relay used when it
        decoded the page: seal ``{"token", "status", "hits"}`` under the
        same sequence number and RNG state."""
        enclave, client_end, engine_end = wired
        sealed = client_end.seal({"token": "t42", "query": "q", "meta": {}})
        handle, _ = enclave.unwrap_forward("client", sealed)
        reply = engine_end.seal(page)
        state = rng.getstate()
        _, answer = enclave.wrap_relay_response(handle, reply)
        _, twin = paired_channels(b"p" * 32, "client", "relay")
        rng.setstate(state)
        reference = twin.seal({"token": "t42", "status": page["status"],
                               "hits": page["hits"]}, rng=rng)
        assert answer == reference

    def test_wrap_with_unknown_handle_dropped(self, wired):
        enclave, _, engine_end = wired
        reply = engine_end.seal({"status": "ok", "hits": []})
        assert enclave.wrap_relay_response(999, reply) is None

    def test_handle_single_use(self, wired):
        enclave, client_end, engine_end = wired
        sealed = client_end.seal({"token": "t", "query": "q", "meta": {}})
        handle, _ = enclave.unwrap_forward("client", sealed)
        reply = engine_end.seal({"status": "ok", "hits": []})
        assert enclave.wrap_relay_response(handle, reply) is not None
        reply2 = engine_end.seal({"status": "ok", "hits": []})
        assert enclave.wrap_relay_response(handle, reply2) is None


class TestResponseFiltering:
    def test_real_response_surfaces(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(5)])
        local, remote = paired_channels(b"r" * 32, "me", "r1")
        enclave.install_peer_channel("r1", local)
        _, _, token = enclave.build_protected_batch("real query", 0, ["r1"])
        response = remote.seal({"token": token, "status": "ok",
                                "hits": [{"url": "u"}]})
        result = enclave.open_relay_response("r1", response)
        assert result is not None
        assert result["query"] == "real query"

    def test_fake_response_dropped_silently(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(5)])
        ends = {}
        for name in ("r1", "r2"):
            local, remote = paired_channels(
                name.encode().ljust(32, b"x"), "me", name)
            enclave.install_peer_channel(name, local)
            ends[name] = remote
        batch, real_relay, _ = enclave.build_protected_batch(
            "real", 1, ["r1", "r2"])
        fake_relay = "r2" if real_relay == "r1" else "r1"
        # Dig out the fake's token by decrypting its record.
        fake_sealed = next(s for r, s in batch if r == fake_relay)
        fake_token = ends[fake_relay].open(fake_sealed)["token"]
        response = ends[fake_relay].seal(
            {"token": fake_token, "status": "ok", "hits": [{"url": "x"}]})
        assert enclave.open_relay_response(fake_relay, response) is None

    def test_real_answer_that_does_not_decode_keeps_its_leg(self, enclave):
        """An unusable real answer is retried, not lost: its pending
        entry stays for :meth:`rebuild_real`."""
        local, remote = paired_channels(b"r" * 32, "me", "r1")
        enclave.install_peer_channel("r1", local)
        enclave.install_peer_channel("r2", paired_channels(
            b"s" * 32, "me", "r2")[0])
        _, _, token = enclave.build_protected_batch("real query", 0, ["r1"])
        for page in (b"not json", b'{"hits":[', b"[1,2]"):
            answer = remote.seal_bytes(
                wire.append_member(page, "token", token))
            assert enclave.open_relay_response("r1", answer) is None
        new_token, _ = enclave.rebuild_real(token, "r2")
        assert new_token != token

    def test_fake_answer_is_dropped_unread(self, enclave, monkeypatch):
        enclave.seed_table([f"fake {i}" for i in range(5)])
        ends = {}
        for name in ("r1", "r2"):
            local, remote = paired_channels(
                name.encode().ljust(32, b"x"), "me", name)
            enclave.install_peer_channel(name, local)
            ends[name] = remote
        batch, real_relay, _ = enclave.build_protected_batch(
            "real", 1, ["r1", "r2"])
        fake_relay = "r2" if real_relay == "r1" else "r1"
        fake_token = ends[fake_relay].open(
            next(s for r, s in batch if r == fake_relay))["token"]
        answer = ends[fake_relay].seal_bytes(
            wire.append_member(b"not json", "token", fake_token))
        decoded = []
        record_calls(monkeypatch, wire, "decode", decoded)
        assert enclave.open_relay_response(fake_relay, answer) is None
        assert decoded == []

    def test_unknown_token_dropped(self, enclave):
        local, remote = paired_channels(b"r" * 32, "me", "r1")
        enclave.install_peer_channel("r1", local)
        response = remote.seal({"token": "bogus", "status": "ok", "hits": []})
        assert enclave.open_relay_response("r1", response) is None

    def test_response_from_unknown_relay_dropped(self, enclave):
        assert enclave.open_relay_response("ghost", b"bytes") is None


def _two_encode_padding(record):
    """The padding as first built: encode to measure, then encode the
    padded record again."""
    base = len(wire.encode({**record, "pad": ""}))
    target = ((base // RECORD_ENVELOPE_BYTES) + 1) * RECORD_ENVELOPE_BYTES
    return wire.encode({**record, "pad": "0" * (target - base)})


class TestPaddedRecord:
    @given(token=st.from_regex(r"t[0-9]{8}", fullmatch=True),
           query=st.text(max_size=300),
           user=st.one_of(st.none(), st.text(max_size=20)),
           is_fake=st.booleans(),
           traceparent=st.one_of(st.none(), st.text(max_size=60)))
    def test_one_encode_equals_two(self, token, query, user, is_fake,
                                   traceparent):
        record = {"token": token, "query": query,
                  "meta": {"true_user": user, "is_fake": is_fake}}
        if traceparent is not None:
            record["tp"] = traceparent
        padded = _padded_record(record)
        assert padded == _two_encode_padding(record)
        assert len(padded) % RECORD_ENVELOPE_BYTES == 0

    def test_query_that_spells_an_empty_pad(self):
        record = {"token": "t00000001", "query": '"pad":""',
                  "meta": {"true_user": '"pad":""', "is_fake": False}}
        assert _padded_record(record) == _two_encode_padding(record)
