"""Seeded draw streams that equal ``np.random.default_rng(prefix + tail)``.

Every random draw in a run comes from a stream keyed by a list of integers,
most of which stay fixed for the whole run (world seed, task, agent, lane or
purpose) while a trailing ordinal counts calls. ``np.random.default_rng``
hashes the key's uint32 words into a four-word SeedSequence entropy pool,
expands the pool into PCG64's 128-bit state and increment, and builds a new
bit generator: about 24 us a call, most of it Python-level set-up.

Once the first four words are hashed in, every further word is only mixed
into the pool. A ``SeedStream`` therefore hashes its prefix once, mixes in
each call's tail, derives the PCG64 state and increment with NumPy's own
arithmetic, and loads them into a generator reused by the calling thread.
The draws are those of ``default_rng(prefix + tail)``, bit for bit. This
reproduces NumPy's SeedSequence (pool size 4) and PCG64 seeding, which NumPy
keeps stable across releases so that seeded streams replay;
``tests/test_streams.py`` pins the equality of the resulting states.
"""

from __future__ import annotations

import operator
import threading
from typing import Sequence

import numpy as np

POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
# generate_state's (xor, multiplier) for its i-th word: INIT_B * MULT_B**i
# and INIT_B * MULT_B**(i + 1), mod 2**32, with INIT_B = 0x8B51F9DD and
# MULT_B = 0x58F38DED.
STATE_HASH = (
    (0x8B51F9DD, 0x464A0A99),
    (0x464A0A99, 0x819D14A5),
    (0x819D14A5, 0xD369FDC1),
    (0xD369FDC1, 0x501638AD),
    (0x501638AD, 0xA600C129),
    (0xA600C129, 0x8B0167F5),
    (0x8B0167F5, 0x5C1E2ED1),
    (0x5C1E2ED1, 0x301D747D),
)
# PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_local = threading.local()


def _uint32_words(values: Sequence[int]) -> list[int]:
    """The uint32 words SeedSequence reads from a list of non-negative ints."""
    out: list[int] = []
    for value in values:
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError("seed words must be integers") from None
        if value < 0:
            raise ValueError("seed words must be non-negative")
        if value == 0:
            out.append(0)
        while value:
            out.append(value & MASK32)
            value >>= 32
    return out


def _mix_words(pool: Sequence[int], const: int, words: Sequence[int]) -> tuple[list[int], int]:
    """Mix words past the fourth into the pool; returns the new pool and hash constant.

    Each word is hashed once per pool entry by SeedSequence's ``hashmix``,
    whose constant advances on every call, and folded into that entry by
    ``mix``.
    """
    pool = list(pool)
    for word in words:
        for i in range(POOL_SIZE):
            value = word ^ const
            const = (const * MULT_A) & MASK32
            value = (value * const) & MASK32
            value ^= value >> 16
            mixed = (MIX_MULT_L * pool[i] - MIX_MULT_R * value) & MASK32
            pool[i] = mixed ^ (mixed >> 16)
    return pool, const


def _absorb(words: Sequence[int]) -> tuple[list[int], int]:
    """SeedSequence's pool and hash constant after its first ``len(words)`` words."""
    const = INIT_A
    pool = []
    for i in range(POOL_SIZE):
        value = (words[i] if i < len(words) else 0) ^ const
        const = (const * MULT_A) & MASK32
        value = (value * const) & MASK32
        pool.append(value ^ (value >> 16))
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                value = pool[src] ^ const
                const = (const * MULT_A) & MASK32
                value = (value * const) & MASK32
                value ^= value >> 16
                mixed = (MIX_MULT_L * pool[dst] - MIX_MULT_R * value) & MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    return _mix_words(pool, const, words[POOL_SIZE:])


def _pcg64_state(pool: Sequence[int]) -> dict:
    """PCG64's state for a SeedSequence pool, as ``bit_generator.state`` holds it."""
    # generate_state(4, np.uint64): eight uint32 words from the pool, cycled
    words = []
    for value, (xor, mult) in zip([*pool, *pool], STATE_HASH):
        value = ((value ^ xor) * mult) & MASK32
        words.append(value ^ (value >> 16))
    # Four uint64 words, each a little-endian pair of uint32 words: the first
    # two are the 128-bit initial state, the last two the stream selector.
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
    initseq = (w5 << 96) | (w4 << 64) | (w7 << 32) | w6
    # pcg_setseq_128_srandom_r: two LCG steps around adding the initial state
    inc = ((initseq << 1) | 1) & MASK128
    state = ((inc + initstate) * PCG_MULT + inc) & MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _thread_generator() -> np.random.Generator:
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.PCG64(0))
    return gen


class SeedStream:
    """``np.random.default_rng([*prefix, *tail])`` for one prefix and many tails.

    ``rng(*tail)`` returns the calling thread's reusable generator, loaded
    with that stream's state; it stays valid until the same thread calls
    ``rng`` again, so draw from it before asking for the next stream. A
    prefix shorter than four uint32 words leaves part of the pool to the
    tail; such streams are built by ``np.random.default_rng`` itself.
    """

    def __init__(self, prefix: Sequence[int]):
        words = _uint32_words(prefix)
        self.prefix = [int(v) for v in prefix]
        self._pool: list[int] | None = None
        self._const = 0
        if len(words) >= POOL_SIZE:
            self._pool, self._const = _absorb(words)

    def rng(self, *tail: int) -> np.random.Generator:
        if self._pool is None:
            return np.random.default_rng([*self.prefix, *tail])
        pool, _ = _mix_words(self._pool, self._const, _uint32_words(tail))
        gen = _thread_generator()
        gen.bit_generator.state = _pcg64_state(pool)
        return gen
