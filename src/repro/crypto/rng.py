"""The one sanctioned source of nondeterministic randomness.

Almost everything in this repository draws randomness from an
explicitly seeded ``random.Random`` threaded through call chains —
that is what makes the fig5–fig8 outputs byte-identical across runs
and machines, and the determinism checker (:mod:`repro.lint`) bans
system entropy everywhere else. Key generation is the exception: when
a caller does *not* supply an rng, fresh key material must be
unpredictable, which genuinely requires OS entropy.

This module is the single whitelisted location for that pattern.
:func:`system_rng` is what ``repro.crypto`` modules fall back to when
no rng is threaded through; nothing outside ``repro.crypto`` should
call it (simulation code must always thread a seeded rng instead, or
the run stops reproducing). :func:`random_bytes` is how seeded code
draws key, nonce and secret bytes from a threaded rng.
"""

from __future__ import annotations

import os
import random


def system_rng() -> random.Random:
    """A ``random.Random`` seeded from OS entropy.

    Deliberately *not* ``random.SystemRandom``: the callers (prime
    search, padding generation) only need an unpredictable seed, and a
    seeded Mersenne Twister keeps the draw pattern identical to the
    threaded-rng code path — only the seed differs.
    """
    return random.Random(int.from_bytes(os.urandom(16), "big"))


def random_bytes(rng: random.Random, n: int) -> bytes:
    """*n* bytes from the seeded *rng* in one call.

    Equal to ``bytes(rng.getrandbits(8) for _ in range(n))``, and leaves
    *rng* in the same state: ``getrandbits(8)`` is the top byte of one
    32-bit Mersenne Twister output, and ``getrandbits(32 * n)`` packs
    *n* successive outputs least significant word first, so every
    fourth byte of its little-endian form, from index 3, is that top
    byte. ``tests/crypto/test_rng.py`` checks both against the loop.
    """
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
