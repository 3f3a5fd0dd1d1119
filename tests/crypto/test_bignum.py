"""Tests for repro.crypto.bignum: OpenSSL's BN_mod_exp against ``pow``."""

import importlib.util
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.bignum as bignum
from repro.crypto.bignum import powmod


@st.composite
def _operands(draw):
    bits = draw(st.integers(min_value=1, max_value=2048))
    modulus = draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
    base = draw(st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=(1 << bits) - 1),
        # base >= modulus: reduced before the call
        st.integers(min_value=modulus, max_value=modulus << 8),
    ))
    exponent = draw(st.one_of(
        st.just(0), st.integers(min_value=0, max_value=(1 << bits) - 1)))
    return base, exponent, modulus


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(_operands())
    def test_matches_pow(self, operands):
        assert powmod(*operands) == pow(*operands)

    @pytest.mark.parametrize("base, exponent, modulus", [
        (5, 0, 7),            # exponent 0
        (0, 0, 7),
        (0, 9, 7),            # base 0
        (12345, 3, 7),        # base >= modulus
        (7, 5, 7),            # base == modulus
        (3, 5, 1),            # modulus 1
        (0, 0, 1),
        (3, 10, 1 << 64),     # even moduli
        (12345, 678, 1000),
        (2**521 - 3, 2**255 + 1, 2**512),
        (3, (1 << 127) - 5, (1 << 127) - 1),  # the small DH test group
    ])
    def test_edge_cases(self, base, exponent, modulus):
        assert powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("args", [
        (-1, 3, 7), (3, -1, 7), (3, 3, 0), (3, 3, -7),
    ])
    def test_negative_input_raises(self, args):
        with pytest.raises(ValueError):
            powmod(*args)

    @pytest.mark.parametrize("args", [
        (3.0, 3, 7), (3, "3", 7), (3, 3, None), (b"\x03", 3, 7),
    ])
    def test_non_int_input_raises(self, args):
        with pytest.raises(TypeError):
            powmod(*args)


def test_threads_agree_with_pow():
    """BN_mod_exp runs with the GIL released; calls in flight on several
    threads at once must not share state."""
    failures, done = [], []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(300):
            modulus = rng.getrandbits(rng.choice((64, 256, 512))) | 1
            base, exponent = rng.getrandbits(520), rng.getrandbits(256)
            if powmod(base, exponent, modulus) != pow(base, exponent, modulus):
                failures.append((base, exponent, modulus))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == list(range(8))
    assert failures == []


def test_openssl_path_selected():
    """The libcrypto that _hashlib loaded exposes BN_mod_exp here; a
    failed lookup would fall back to ``pow`` and the slow set-up."""
    assert powmod is not pow
    assert powmod.__module__ == "repro.crypto.bignum"


def test_falls_back_to_pow_without_hashlib(monkeypatch):
    monkeypatch.setitem(sys.modules, "_hashlib", None)
    spec = importlib.util.spec_from_file_location(
        "_bignum_without_hashlib", bignum.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.powmod is pow
