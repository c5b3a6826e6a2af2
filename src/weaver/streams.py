"""Seeded draw streams that equal ``np.random.default_rng(prefix + tail)``.

Every random draw in a run comes from a stream keyed by a list of integers,
most of which stay fixed for the whole run (world seed, task, agent, lane or
purpose) while a trailing ordinal counts calls. ``np.random.default_rng``
hashes the key's uint32 words into a four-word SeedSequence entropy pool,
expands the pool into PCG64's 128-bit state and increment, and builds a new
bit generator.

Once the first four words are hashed in, every further word is only mixed
into the pool. A ``SeedStream`` therefore hashes its prefix once, mixes in
each call's tail, and derives the PCG64 state and increment with NumPy's
own arithmetic. The hash constants that mix a one-word tail (any ordinal
below 2**32) depend only on the prefix's length, so they are computed once
and the mix is unrolled; a longer tail takes the general loop.

The draws themselves come from ``PCG64``, a pure-Python generator that
holds the 128-bit state, the increment and NumPy's buffered uint32, and
makes exactly the draws weaver asks for, each as NumPy's ``Generator``
makes it: ``random``, ``integers``, ``standard_normal`` (NumPy's ziggurat,
tables in ``_ziggurat``), ``lognormal`` and ``choice`` without
replacement. So no run imports NumPy, and replay does not depend on the
installed NumPy, whose ``Generator`` streams NumPy does not promise to
keep across releases.

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
reproduces NumPy's SeedSequence (pool size 4), PCG64 seeding and the
``Generator`` methods above; ``tests/test_streams.py`` pins states and
draws to NumPy's, which the tests keep as their oracle.
"""

from __future__ import annotations

import hashlib
import math
import operator
from itertools import accumulate
from typing import Sequence

from ._ziggurat import FI, KI, WI

POOL_SIZE = 4
MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# next_double: the top 53 bits of a raw word, times 2**-53.
TO_DOUBLE = 1.0 / 9007199254740992.0
# The ziggurat's tail start r and the -1/r its tail sampler multiplies by.
ZIGGURAT_R = 3.6541528853610088
ZIGGURAT_NEG_INV_R = -0.2736612373297583


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


def _pcg64(pool: Sequence[int]) -> "PCG64":
    """The PCG64 generator a SeedSequence pool seeds."""
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
    return PCG64(state, inc)


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
# streams whose prefixes have as many words share one tuple. Measured, a
# stream holding its own 8-int tuple instead raised a perfbench pass's
# peak RSS by 0.2-0.3 MB.
_ONE_WORD_MIX: dict[int, tuple[int, ...]] = {}


def _pairwise_sum(values: Sequence[float], lo: int, n: int) -> float:
    """NumPy's ``pairwise_sum`` of ``values[lo:lo + n]``: the order in which
    ``ndarray.sum`` adds a contiguous float64 array."""
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        # Eight accumulators over whole blocks of eight, then the rest in turn.
        acc = list(values[lo:lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def choice_cdf(weights: Sequence[float]) -> list[float]:
    """The CDF ``Generator.choice(n, p=weights / sum(weights))`` searches.

    A draw is ``bisect_right(cdf, rng.random())``, which is
    ``cdf.searchsorted(rng.random(), side="right")``, so k of them are
    ``choice``'s k draws from the same stream. The weights are normalized
    and summed in NumPy's order: ``probs = w / w.sum()`` (the sum is the
    reduction's 0.0 plus the pairwise sum), then ``cumsum`` and a division
    by its last entry.
    """
    values = [float(w) for w in weights]
    total = 0.0 + _pairwise_sum(values, 0, len(values))
    cdf = list(accumulate([w / total for w in values]))
    last = cdf[-1]
    return [c / last for c in cdf]


class PCG64:
    """NumPy's ``Generator`` over a PCG64 state, for the draws weaver makes.

    It holds PCG64's 128-bit ``state`` and ``inc`` and NumPy's buffered
    uint32 (``has_uint32``, ``uinteger``), and each method takes the same
    words from the stream, in the same order, as the ``Generator`` method
    of the same name, and returns the same value as a Python int or float:

    * ``random_raw`` and ``random`` read one 64-bit word each;
    * ``integers(low, high)``, for ``high - low <= 2**32``, maps a buffered
      uint32 with Lemire's method (``next_uint32``: a raw word's low half,
      then its buffered high half);
    * ``standard_normal`` is the 256-layer ziggurat, with its wedge and tail;
    * ``lognormal(mean, sigma)`` is ``exp(mean + sigma * standard_normal())``;
    * ``choice(n, size)`` draws without replacement: Floyd's algorithm
      (or a tail shuffle for a large share of a large population), then a
      shuffle of the picks.

    Every ``SeedStream.rng`` call returns a new generator, so threads never
    share one.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc
        self.has_uint32 = 0
        self.uinteger = 0

    def random_raw(self) -> int:
        # One LCG step, then the XSL-RR output of the new state.
        state = self.state = (self.state * PCG_MULT + self.inc) & MASK128
        value = ((state >> 64) ^ state) & MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & MASK64

    def random(self) -> float:
        # random_raw's step, inlined: this is the draw policies and rollouts repeat.
        state = self.state = (self.state * PCG_MULT + self.inc) & MASK128
        value = ((state >> 64) ^ state) & MASK64
        rot = state >> 122
        return ((((value >> rot) | (value << (64 - rot))) & MASK64) >> 11) * TO_DOUBLE

    def _next_uint32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        raw = self.random_raw()
        self.has_uint32 = 1
        self.uinteger = raw >> 32
        return raw & MASK32

    def _bounded(self, top: int) -> int:
        """An int in ``[0, top]`` (``random_bounded_uint64`` for ``top < 2**32``)."""
        if top > MASK32:
            raise ValueError("only ranges of at most 2**32 values are drawn")
        if top == MASK32:
            return self._next_uint32()
        if top == 0:
            return 0
        span = top + 1
        m = self._next_uint32() * span
        if m & MASK32 < span:
            threshold = (MASK32 - top) % span
            while m & MASK32 < threshold:
                m = self._next_uint32() * span
        return m >> 32

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: an int in ``[low, high)``."""
        if high <= low:
            raise ValueError("high must be greater than low")
        return low + self._bounded(high - low - 1)

    def standard_normal(self) -> float:
        while True:
            r = self.random_raw()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x  # nearly always
            if idx == 0:
                # The tail beyond r, from 1 - U so that the log is finite.
                while True:
                    xx = ZIGGURAT_NEG_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(ZIGGURAT_R + xx) if (rabs >> 8) & 1 else ZIGGURAT_R + xx
            elif (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] < math.exp(-0.5 * x * x):
                return x

    def lognormal(self, mean: float, sigma: float) -> float:
        return math.exp(mean + sigma * self.standard_normal())

    def choice(self, n: int, size: int) -> list[int]:
        """``Generator.choice(n, size, replace=False)``: ``size`` distinct ints in ``[0, n)``."""
        if not 0 <= size <= n:
            raise ValueError("need 0 <= size <= n to sample without replacement")
        if n > 10000 and size > n // 50:
            picks = list(range(n))
            self._shuffle(picks, max(n - size, 1))
            return picks[n - size:]
        picks = []
        seen = set()
        for j in range(n - size, n):
            val = self._bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            picks.append(val)
        self._shuffle(picks, 1)
        return picks

    def _shuffle(self, data: list[int], first: int) -> None:
        """Fisher-Yates over positions ``len(data) - 1`` down to ``first``."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]


def default_rng(seed: int | Sequence[int] | PCG64) -> PCG64:
    """``np.random.default_rng(seed)`` for an int or a list of ints; a
    generator is returned as it is."""
    if isinstance(seed, PCG64):
        return seed
    words = _uint32_words(seed) if isinstance(seed, Sequence) else _uint32_words([seed])
    return _pcg64(_absorb(words)[0])


class SeedStream:
    """``np.random.default_rng([*prefix, *tail])`` for one prefix and many tails.

    ``rng(*tail)`` returns a new ``PCG64`` at that stream's state, the
    caller's own to draw from. A prefix shorter than four uint32 words
    leaves part of the pool to the tail, so such a stream keeps its words
    and absorbs them with the tail's in full on every call.

    Mixing a one-word tail (an ordinal below 2**32) into the pool takes one
    (xor, multiplier) pair per pool entry, the hash constants that follow
    the prefix. The pairs are computed when the first stream with that
    constant is built and kept flat, as ``_mix``; a longer tail is mixed by
    ``_mix_words``.
    """

    __slots__ = ("_words", "_pool", "_const", "_mix")

    def __init__(self, prefix: Sequence[int]):
        words = _uint32_words(prefix)
        self._words: list[int] | None = None
        self._pool: list[int] | None = None
        self._const = 0
        self._mix: tuple[int, ...] = ()
        if len(words) >= POOL_SIZE:
            self._load(*_absorb(words))
        else:
            self._words = words

    @classmethod
    def _absorbed(cls, pool: list[int], const: int) -> "SeedStream":
        """The stream of a prefix of four or more words that left SeedSequence
        with ``pool`` and hash constant ``const``."""
        stream = cls.__new__(cls)
        stream._words = None
        stream._load(pool, const)
        return stream

    def _load(self, pool: list[int], const: int) -> None:
        self._pool, self._const = pool, const
        self._mix = _ONE_WORD_MIX.get(const) or _ONE_WORD_MIX.setdefault(const, _one_word_mix(const))

    def _one_word_rng(self, word: int) -> PCG64:
        """``_pcg64`` of the pool with one uint32 word mixed in (unrolled)."""
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
        return _pcg64((p0, p1, p2, p3))

    def rng(self, *tail: int) -> PCG64:
        if self._pool is None:
            return _pcg64(_absorb(self._words + _uint32_words(tail))[0])
        if len(tail) == 1 and tail[0].__class__ is int and 0 <= tail[0] <= MASK32:
            return self._one_word_rng(tail[0])
        return _pcg64(_mix_words(self._pool, self._const, _uint32_words(tail))[0])


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
