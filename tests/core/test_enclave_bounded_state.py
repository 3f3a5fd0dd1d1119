"""Bounded per-record enclave state (no unbounded pending growth)."""

import random

import pytest

from repro.core.enclave import CyclosaEnclave
from repro.net.tls import SecureChannel, _directional_keys
from repro.sgx.enclave import EnclaveHost


def paired(secret, a, b):
    send_a, recv_a = _directional_keys(secret, initiator=True)
    send_b, recv_b = _directional_keys(secret, initiator=False)
    return (SecureChannel(peer=b, send_key=send_a, recv_key=recv_a),
            SecureChannel(peer=a, send_key=send_b, recv_key=recv_b))


class SmallPendingEnclave(CyclosaEnclave):
    MAX_PENDING = 10


@pytest.fixture
def enclave():
    host = EnclaveHost(random.Random(77))
    enclave = host.create_enclave(SmallPendingEnclave, table_capacity=500)
    local, _remote = paired(b"p" * 32, "me", "r1")
    enclave.install_peer_channel("r1", local)
    engine_out, _engine_end = paired(b"e" * 32, "me", "engine")
    enclave.install_engine_channel(engine_out)
    return enclave


class TestBoundedPending:
    def test_pending_is_capped(self, enclave):
        enclave.seed_table([f"fake {i}" for i in range(20)])
        for index in range(50):
            enclave.build_protected_batch(f"query {index}", 0, ["r1"])
        enclave._depth += 1
        try:
            assert len(enclave.trusted["pending"]) <= 10
        finally:
            enclave._depth -= 1

    def test_newest_entries_survive_eviction(self, enclave):
        for index in range(30):
            _, _, token = enclave.build_protected_batch(
                f"query {index}", 0, ["r1"])
        # The most recent real query's token must still be routable.
        enclave.rebuild_real(token, "r1")

    def test_forwards_are_capped(self, enclave):
        remote_local, remote = paired(b"q" * 32, "me", "r1")
        # Re-install so we hold the client end for sealing requests.
        enclave.install_peer_channel("r1", remote_local)
        for index in range(40):
            sealed = remote.seal({"token": f"t{index}",
                                  "query": f"fwd {index}", "meta": {}})
            assert enclave.unwrap_forward("r1", sealed) is not None
        enclave._depth += 1
        try:
            assert len(enclave.trusted["forwards"]) <= 10
        finally:
            enclave._depth -= 1

    def test_evicted_response_silently_dropped(self, enclave):
        # Build one real query, then flood pending until it is evicted.
        _, _, token = enclave.build_protected_batch("the original", 0, ["r1"])
        for index in range(20):
            _, _, newest = enclave.build_protected_batch(
                f"flood {index}", 0, ["r1"])
        # The original's token is gone; a late response is ignored,
        # while the newest search's response still surfaces.
        _local, remote = paired(b"p" * 32, "me", "r1")
        late = remote.seal({"token": token, "status": "ok", "hits": []})
        assert enclave.open_relay_response("r1", late) is None
        fresh = remote.seal({"token": newest, "status": "ok", "hits": []})
        assert enclave.open_relay_response("r1", fresh)["query"] == "flood 19"
        with pytest.raises(KeyError):
            enclave.rebuild_real(token, "r1")
