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
The hash constants that mix a one-word tail (any ordinal below 2**32)
depend only on the prefix's length, so they are computed once and the mix
is unrolled; a longer tail takes the general loop.

A ``StreamTable`` keeps one ``SeedStream`` per prefix. A synthetic world
owns one for its lifetime, so every run of a sweep seed (each method and
budget of a task) shares the streams it derives: a stream is built once per
world, not once per run. Most keys differ from one another only in their
last part (a plan step's ``(seed, task, "speculate", step)``, a session's
``(seed, task, agent, lane)``), so the table builds a key of four or more
parts from its parent, the key without its last part, which it keeps as a
stream of its own: only the last part's words are mixed into the parent's
pool, the same pool a full absorb gives, since every word past the fourth
is only mixed in.

The draws are those of ``default_rng(prefix + tail)``, bit for bit. This
reproduces NumPy's SeedSequence (pool size 4) and PCG64 seeding, which NumPy
keeps stable across releases so that seeded streams replay;
``tests/test_streams.py`` pins the equality of the resulting states.
"""

from __future__ import annotations

import hashlib
import operator
import threading
from typing import Iterator, Sequence

import numpy as np

POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_local = threading.local()


def _key64(text: str) -> int:
    """A string's seed word: the first 64 bits of its SHA-256."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _key_words(key: Sequence[int | str]) -> list[int]:
    """A stream key's seed words: ints as they are, strings by ``_key64``."""
    return [_key64(part) if isinstance(part, str) else part for part in key]


def _seed_word(value) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError("seed words must be integers") from None
    if value < 0:
        raise ValueError("seed words must be non-negative")
    return value


def _uint32_words(values: Sequence[int]) -> list[int]:
    """The uint32 words SeedSequence reads from a list of non-negative ints."""
    out: list[int] = []
    for value in map(_seed_word, values):
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


def _pcg64_state(pool: Sequence[int]) -> int:
    """PCG64's state and increment for a SeedSequence pool, as ``state << 128 | inc``."""
    # generate_state(4, np.uint64): eight uint32 words from the pool, cycled.
    # Word i is hashed with xor INIT_B * MULT_B**i and multiplier
    # INIT_B * MULT_B**(i + 1), mod 2**32, where INIT_B = 0x8B51F9DD and
    # MULT_B = 0x58F38DED.
    p0, p1, p2, p3 = pool
    w0 = ((p0 ^ 0x8B51F9DD) * 0x464A0A99) & MASK32
    w1 = ((p1 ^ 0x464A0A99) * 0x819D14A5) & MASK32
    w2 = ((p2 ^ 0x819D14A5) * 0xD369FDC1) & MASK32
    w3 = ((p3 ^ 0xD369FDC1) * 0x501638AD) & MASK32
    w4 = ((p0 ^ 0x501638AD) * 0xA600C129) & MASK32
    w5 = ((p1 ^ 0xA600C129) * 0x8B0167F5) & MASK32
    w6 = ((p2 ^ 0x8B0167F5) * 0x5C1E2ED1) & MASK32
    w7 = ((p3 ^ 0x5C1E2ED1) * 0x301D747D) & MASK32
    # Four uint64 words, each a little-endian pair of uint32 words: the first
    # two are the 128-bit initial state, the last two the stream selector.
    initstate = ((w1 ^ w1 >> 16) << 96) | ((w0 ^ w0 >> 16) << 64) | ((w3 ^ w3 >> 16) << 32) | (w2 ^ w2 >> 16)
    initseq = ((w5 ^ w5 >> 16) << 96) | ((w4 ^ w4 >> 16) << 64) | ((w7 ^ w7 >> 16) << 32) | (w6 ^ w6 >> 16)
    # pcg_setseq_128_srandom_r: two LCG steps around adding the initial state
    inc = ((initseq << 1) | 1) & MASK128
    state = ((inc + initstate) * PCG_MULT + inc) & MASK128
    return state << 128 | inc


def _one_word_mix(const: int) -> tuple[int, ...]:
    """The (xor, multiplier) pair of each pool entry, flat, with which
    ``_mix_words`` mixes one word into a pool whose hash constant is ``const``."""
    mix: list[int] = []
    for _ in range(POOL_SIZE):
        mult = (const * MULT_A) & MASK32
        mix += (const, mult)
        const = mult
    return tuple(mix)


# The constant depends only on how many words a pool has absorbed, so
# streams whose prefixes have as many words share one tuple.
_ONE_WORD_MIX: dict[int, tuple[int, ...]] = {}


def choice_cdf(weights: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice(n, p=weights / sum(weights))`` searches.

    A draw is ``bisect_right(cdf, rng.random())``, which is
    ``cdf.searchsorted(rng.random(), side="right")``, so k of them are
    ``choice``'s k draws from the same stream.
    """
    probs = np.array(weights, dtype=float)
    probs = probs / probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def bounded_ints(bit_generator: np.random.BitGenerator, span: int) -> Iterator[int]:
    """Endless draws of ``Generator.integers(0, span)`` from a PCG64 bit generator.

    ``integers`` maps a uint32 word to ``[0, span)`` with Lemire's method,
    rejecting a word whose low product half is below ``2**32 % span``, and
    takes its words from ``next_uint32``: the low half of a raw 64-bit draw,
    then the buffered high half. This takes the same words from
    ``random_raw()`` without NumPy's per-call set-up, for ``2 <= span <=
    2**32``. Its buffer is its own, so the draws are ``integers``' only if
    no uint32 is buffered on the generator before the first draw and no
    NumPy uint32 draw follows the last on the same state; float draws
    (``random``, ``lognormal``) read whole raw words and may come before or
    after.
    """
    if not 2 <= span <= 1 << 32:
        raise ValueError("span must be in [2, 2**32]")
    threshold = (1 << 32) % span
    random_raw = bit_generator.random_raw
    while True:
        raw = random_raw()
        m = (raw & MASK32) * span
        if m & MASK32 >= threshold:
            yield m >> 32
        m = (raw >> 32) * span
        if m & MASK32 >= threshold:
            yield m >> 32


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

    Mixing a one-word tail (an ordinal below 2**32) into the pool takes one
    (xor, multiplier) pair per pool entry, the hash constants that follow
    the prefix. The pairs are computed when the first stream with that
    constant is built and kept flat, as ``_mix``; a longer tail is mixed by
    ``_mix_words``.
    """

    __slots__ = ("_prefix", "_pool", "_const", "_mix")

    def __init__(self, prefix: Sequence[int]):
        words = _uint32_words(prefix)
        self._prefix: list[int] | None = None
        self._pool: list[int] | None = None
        self._const = 0
        self._mix: tuple[int, ...] = ()
        if len(words) >= POOL_SIZE:
            self._load(*_absorb(words))
        else:
            self._prefix = [int(v) for v in prefix]

    @classmethod
    def _absorbed(cls, pool: list[int], const: int) -> "SeedStream":
        """The stream of a prefix of four or more words that left SeedSequence
        with ``pool`` and hash constant ``const``."""
        stream = cls.__new__(cls)
        stream._prefix = None
        stream._load(pool, const)
        return stream

    def _load(self, pool: list[int], const: int) -> None:
        self._pool, self._const = pool, const
        self._mix = _ONE_WORD_MIX.get(const) or _ONE_WORD_MIX.setdefault(const, _one_word_mix(const))

    def _one_word_state(self, word: int) -> int:
        """``_pcg64_state`` of the pool with one uint32 word mixed in (unrolled)."""
        x0, m0, x1, m1, x2, m2, x3, m3 = self._mix
        p0, p1, p2, p3 = self._pool
        v = ((word ^ x0) * m0) & MASK32
        v = (MIX_MULT_L * p0 - MIX_MULT_R * (v ^ v >> 16)) & MASK32
        p0 = v ^ v >> 16
        v = ((word ^ x1) * m1) & MASK32
        v = (MIX_MULT_L * p1 - MIX_MULT_R * (v ^ v >> 16)) & MASK32
        p1 = v ^ v >> 16
        v = ((word ^ x2) * m2) & MASK32
        v = (MIX_MULT_L * p2 - MIX_MULT_R * (v ^ v >> 16)) & MASK32
        p2 = v ^ v >> 16
        v = ((word ^ x3) * m3) & MASK32
        v = (MIX_MULT_L * p3 - MIX_MULT_R * (v ^ v >> 16)) & MASK32
        p3 = v ^ v >> 16
        return _pcg64_state((p0, p1, p2, p3))

    def rng(self, *tail: int) -> np.random.Generator:
        if self._pool is None:
            return np.random.default_rng([*self._prefix, *tail])
        if len(tail) == 1 and tail[0].__class__ is int and 0 <= tail[0] <= MASK32:
            packed = self._one_word_state(tail[0])
        else:
            pool, _ = _mix_words(self._pool, self._const, _uint32_words(tail))
            packed = _pcg64_state(pool)
        gen = _thread_generator()
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": packed >> 128, "inc": packed & MASK128},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


class StreamTable:
    """One ``SeedStream`` per key, built on first use.

    A key part is a seed word if it is an int and is hashed to one with
    ``_key64`` if it is a string: ``stream(seed, "t0001", "search")`` is
    ``SeedStream([seed, _key64("t0001"), _key64("search")])``. Parts are
    checked before the lookup: ``1.0 == 1``, but only 1 is a seed word.

    ``_streams`` holds the streams asked for and the parents they were
    built from. A key of four or more parts is its parent's stream, the key
    without its last part, with the last part's words mixed into the
    parent's pool; a parent of fewer than four words has no pool, and the
    key is absorbed in full.
    """

    __slots__ = ("_streams",)

    def __init__(self):
        self._streams: dict[tuple[int | str, ...], SeedStream] = {}

    def stream(self, *key: int | str) -> SeedStream:
        for part in key:
            if part.__class__ is not str and part.__class__ is not int:
                _seed_word(part)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams.setdefault(key, self._build(key))
        return stream

    def _build(self, key: tuple[int | str, ...]) -> SeedStream:
        if len(key) >= 4:
            parent = self.stream(*key[:-1])
            if parent._pool is not None:
                words = _uint32_words(_key_words(key[-1:]))
                return SeedStream._absorbed(*_mix_words(parent._pool, parent._const, words))
        return SeedStream(_key_words(key))
