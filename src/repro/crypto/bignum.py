"""Modular exponentiation in OpenSSL's bignum library.

Key generation, quote signing and the channel handshakes each spend
their time in full-width modular exponentiations. CPython's ``pow``
computes them in pure C on 30-bit digits; OpenSSL's ``BN_mod_exp`` uses
Montgomery multiplication on machine words and is several times faster
at the 256-bit size of a 512-bit key's primes (docs/performance.md,
"OpenSSL modular exponentiation"). :func:`powmod` returns the same
integer as ``pow(base, exponent, modulus)``, so every key, signature
and DH secret is unchanged.

The functions are looked up once, at import, through the handle of the
``_hashlib`` extension: ``dlsym`` on that handle also searches its
dependencies, so this is the libcrypto that :mod:`hashlib` already
loaded and no further library is mapped. Where ``_hashlib`` is missing
or does not expose the symbols, :func:`powmod` is the builtin ``pow``.

Each call allocates its own numbers and context and frees them before
returning. ``ctypes.CDLL`` releases the GIL during foreign calls, so
sharing nothing between calls is what makes :func:`powmod` safe to call
from several threads at once.
"""

from __future__ import annotations

import ctypes


def _bind():
    """The OpenSSL-backed :func:`powmod`, or ``None`` if unavailable."""
    try:
        import _hashlib
    except ImportError:
        return None
    try:
        lib = ctypes.CDLL(_hashlib.__file__)
        bn_new = lib.BN_new
        bn_free = lib.BN_free
        ctx_new = lib.BN_CTX_new
        ctx_free = lib.BN_CTX_free
        bin2bn = lib.BN_bin2bn
        bn2binpad = lib.BN_bn2binpad
        mod_exp = lib.BN_mod_exp
    except (OSError, AttributeError):
        return None
    bn_new.argtypes = []
    bn_new.restype = ctypes.c_void_p
    bn_free.argtypes = [ctypes.c_void_p]
    bn_free.restype = None
    ctx_new.argtypes = []
    ctx_new.restype = ctypes.c_void_p
    ctx_free.argtypes = [ctypes.c_void_p]
    ctx_free.restype = None
    bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p]
    bin2bn.restype = ctypes.c_void_p
    bn2binpad.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int]
    bn2binpad.restype = ctypes.c_int
    mod_exp.argtypes = [ctypes.c_void_p] * 5
    mod_exp.restype = ctypes.c_int

    def _to_bn(value: int):
        data = value.to_bytes((value.bit_length() + 7) // 8, "big")
        bn = bin2bn(data, len(data), None)
        if not bn:
            raise MemoryError("BN_bin2bn failed")
        return bn

    def powmod(base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` computed by ``BN_mod_exp``."""
        if not (isinstance(base, int) and isinstance(exponent, int)
                and isinstance(modulus, int)):
            raise TypeError("powmod() arguments must be int")
        if base < 0 or exponent < 0:
            raise ValueError("powmod() base and exponent must be >= 0")
        if modulus < 1:
            raise ValueError("powmod() modulus must be >= 1")
        size = (modulus.bit_length() + 7) // 8
        # Every handle starts NULL so the finally clause frees exactly
        # what was allocated; BN_free and BN_CTX_free accept NULL.
        a = p = m = r = ctx = None
        try:
            a = _to_bn(base % modulus)
            p = _to_bn(exponent)
            m = _to_bn(modulus)
            r = bn_new()
            ctx = ctx_new()
            if not r or not ctx:
                raise MemoryError("BN_new or BN_CTX_new failed")
            if not mod_exp(r, a, p, m, ctx):
                raise ArithmeticError("BN_mod_exp failed")
            out = ctypes.create_string_buffer(size)
            if bn2binpad(r, out, size) != size:
                raise ArithmeticError("BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            ctx_free(ctx)
            for bn in (r, m, p, a):
                bn_free(bn)

    return powmod


powmod = _bind() or pow
