"""SeedStream streams are np.random.default_rng(prefix + tail), bit for bit.

The stream helper re-implements NumPy's SeedSequence and PCG64 seeding, and
``PCG64`` re-implements the ``Generator`` draws weaver makes, so these
properties pin both to NumPy itself, which the tests keep as their oracle:
a change of either algorithm in a NumPy release would fail here before it
could go unnoticed. A StreamTable keeps the streams it built, each key of
four or more parts built from its parent key's stream; no table hit or
parent build may change a state or accept a bad word.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaver.agents import SyntheticWorld
from weaver.orchestrator import default_roster
from weaver.streams import (
    KI,
    MASK64,
    MASK128,
    PCG64,
    PCG_MULT,
    SeedStream,
    StreamTable,
    _key64,
    _mix_words,
    _uint32_words,
    choice_cdf,
    default_rng,
)
from weaver.tasks import synthetic_tasks

# Seed words as the program makes them: zero, 32-bit ordinals and seeds,
# 64-bit hashed keys, and wider values that split into several words.
WORD = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)

# Key parts as a StreamTable takes them: ints of one and of two uint32 words,
# and strings, each hashed to a 64-bit word.
PART = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.text(max_size=6),
)

# integers() spans: the plain uint32 (2**32), spans whose Lemire threshold
# rejects often (3 * 2**30, 2**31 + 1), and the spans weaver draws.
SPAN = st.one_of(
    st.sampled_from([1, 2, 3, 400, 9000, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)


def state(gen):
    """A PCG64's state, increment and uint32 buffer."""
    return gen.state, gen.inc, gen.has_uint32, gen.uinteger


def numpy_state(numpy_gen):
    s = numpy_gen.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def default_state(words):
    return numpy_state(np.random.default_rng(list(words)))


def numpy_at(gen):
    """A NumPy Generator at ``gen``'s state."""
    numpy_gen = np.random.default_rng(0)
    numpy_gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": gen.state, "inc": gen.inc},
        "has_uint32": gen.has_uint32,
        "uinteger": gen.uinteger,
    }
    return numpy_gen


@given(prefix=st.lists(WORD, min_size=2, max_size=6), tail=st.lists(WORD, max_size=3))
def test_state_equals_default_rng(prefix, tail):
    assert state(SeedStream(prefix).rng(*tail)) == default_state(prefix + tail)


@given(prefix=st.lists(WORD, max_size=6), tails=st.lists(st.lists(WORD, max_size=2), max_size=4))
def test_one_stream_serves_many_tails(prefix, tails):
    stream = SeedStream(prefix)
    for tail in tails:
        assert state(stream.rng(*tail)) == default_state(prefix + tail)


@given(st.integers(0, 2**32 - 1), st.text(min_size=1), st.integers(0, 10_000))
def test_first_draws_equal_default_rng(seed, key, ordinal):
    prefix = [seed, _key64(key), _key64("lane")]
    got = SeedStream(prefix).rng(ordinal)
    want = np.random.default_rng(prefix + [ordinal])
    assert got.random() == want.random()
    assert got.lognormal(6.8, 0.25) == want.lognormal(6.8, 0.25)
    assert [got.integers(0, 400) for _ in range(5)] == want.integers(0, 400, size=5).tolist()
    assert [got.random() for _ in range(3)] == want.random(3).tolist()
    assert state(got) == numpy_state(want)


@given(prefix=st.lists(WORD, min_size=2, max_size=6), tails=st.lists(st.lists(WORD, max_size=2), max_size=4))
def test_repeated_tails_replay_their_state(prefix, tails):
    stream = SeedStream(prefix)
    misses = [state(stream.rng(*tail)) for tail in tails]
    hits = [state(stream.rng(*tail)) for tail in reversed(tails)][::-1]
    assert hits == misses == [default_state(prefix + tail) for tail in tails]


def test_repeated_tails_still_refuse_bad_words():
    stream = SeedStream([1, 2, 3, 4])
    want = default_state([1, 2, 3, 4, 1])
    assert state(stream.rng(1)) == want
    with pytest.raises(TypeError):
        stream.rng(1.0)
    with pytest.raises(ValueError):
        stream.rng(-1)
    assert state(stream.rng(np.uint8(1))) == want


def test_table_builds_each_stream_once():
    table = StreamTable()
    stream = table.stream(3, "t0001", "search", "main")
    assert table.stream(3, "t0001", "search", "main") is stream
    assert table.stream(3, "t0001", "search", "e1") is not stream
    words = [3, _key64("t0001"), _key64("search"), _key64("main"), 7]
    assert state(stream.rng(7)) == default_state(words)
    with pytest.raises(TypeError):
        table.stream(3.0, "t0001", "search", "main")
    with pytest.raises(ValueError):
        table.stream(-3, "t0001", "search", "main")


@pytest.mark.parametrize(
    "prefix",
    [[3, _key64("t0001"), _key64("search"), _key64("main")], [2**40, 5, 6, 7], [1, 2, 3, 4], [0, 0, 0, 0, 0]],
)
def test_one_and_multi_word_tails_asked_in_either_order(prefix):
    # 0, 1 and 2**32 - 1 are one uint32 word (the precomputed mix); 2**32 and
    # 2**64 + 3 split into two and three words (the general mix).
    stream = SeedStream(prefix)
    tails = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]
    want = [default_state(prefix + [t]) for t in tails]
    assert [state(stream.rng(t)) for t in tails] == want
    assert [state(stream.rng(t)) for t in reversed(tails)] == want[::-1]
    again = SeedStream(prefix)  # streams with as many prefix words share the mix constants
    assert [state(again.rng(t)) for t in tails] == want


def test_session_draws_come_from_the_world_tables_streams():
    tasks = synthetic_tasks(seed=4, num_tasks=3)
    world = SyntheticWorld(tasks, seed=9)
    session = world.session(tasks[1].id)
    roster = default_roster()
    for lane in ("main", "e1", "main"):
        session.invoke(roster["search"], "find", [], lane=lane)
    session.policy_usage()
    session.policy_usage()
    table = world.streams
    drawn = dict(table._streams)
    for key, ordinals in ((("search", "main"), 2), (("search", "e1"), 1), (("__policy__",), 2)):
        stream = drawn[(9, tasks[1].id, *key)]
        assert table.stream(9, tasks[1].id, *key) is stream
        for ordinal in range(ordinals + 1):
            words = [9, _key64(tasks[1].id), *map(_key64, key), ordinal]
            assert state(session._rng(*key, ordinal=ordinal)) == default_state(words)
            assert state(stream.rng(ordinal)) == default_state(words)


def test_short_prefix_is_absorbed_in_full_with_its_tail():
    # [7, 2] fills two of the four pool words; the tail completes the pool.
    stream = SeedStream([7, 2])
    first = stream.rng(0)
    assert state(first) == default_state([7, 2, 0])
    assert state(stream.rng(5)) == default_state([7, 2, 5])
    assert stream.rng(0) is not first  # every call returns a generator of its own
    first.random()
    assert state(stream.rng(0)) == default_state([7, 2, 0])
    assert state(SeedStream([]).rng()) == default_state([])


def test_bad_words_are_refused_like_default_rng():
    for bad, error in (([1.5, 2, 3, 4], TypeError), ([2**40, -1, 3], ValueError)):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            SeedStream(bad)
        with pytest.raises(error):
            default_rng(bad)
    with pytest.raises(ValueError):
        SeedStream([1, 2, 3, 4]).rng(-5)
    with pytest.raises(ValueError):
        default_rng(-5)


def test_threads_draw_their_own_streams():
    prefix = [3, _key64("t0001"), _key64("search"), _key64("main")]
    stream = SeedStream(prefix)
    ordinals = list(range(96))
    expected = {n: np.random.default_rng(prefix + [n]).random(6).tolist() for n in ordinals}
    workers = 4
    barrier = threading.Barrier(workers)

    def work(offset):
        barrier.wait(timeout=10)
        out = {}
        for n in ordinals[offset::workers]:
            rng = stream.rng(n)
            out[n] = [rng.random() for _ in range(6)]
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work, w) for w in range(workers)]
            got = {}
            for future in futures:
                got.update(future.result(timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def key_words(key):
    return [_key64(part) if isinstance(part, str) else part for part in key]


@given(
    parent=st.lists(PART, max_size=5).map(tuple),
    lasts=st.lists(PART, min_size=1, max_size=3),
    parent_first=st.booleans(),
    tail=WORD,
)
def test_table_streams_derived_from_parent_pools_equal_default_rng(parent, lasts, parent_first, tail):
    # Keys of one to six parts; siblings share their parent's pool, and the
    # parent itself is asked for before its children or after them.
    children = [(*parent, last) for last in lasts]
    ends = [parent] if parent else []
    asked = list(dict.fromkeys(ends + children if parent_first else children + ends))
    table = StreamTable()
    for key in asked:
        assert state(table.stream(*key).rng(tail)) == default_state(key_words(key) + [tail])
    for key in asked:  # again, from the table
        assert state(table.stream(*key).rng(tail)) == default_state(key_words(key) + [tail])
    assert set(asked) <= table._streams.keys()
    for key in asked:
        if len(key) >= 4 and len(_uint32_words(key_words(key[:-1]))) >= 4:
            # The parent is in the table, and the key's pool extends its pool.
            parent = table._streams[key[:-1]]
            words = _uint32_words(key_words(key[-1:]))
            assert table.stream(*key)._pool == _mix_words(parent._pool, parent._const, words)[0]


def test_a_parent_of_fewer_than_four_words_is_absorbed_in_full():
    table = StreamTable()
    short = table.stream(1, 2, 3, 4)  # parent (1, 2, 3): three words, no pool
    assert table._streams[(1, 2, 3)]._pool is None
    full = SeedStream([1, 2, 3, 4])
    assert (short._pool, short._const) == (full._pool, full._const)
    assert state(short.rng(0)) == default_state([1, 2, 3, 4, 0])
    key = (5, "t0001", "speculate", 7)  # parent: five words
    derived = table.stream(*key)
    parent = table._streams[key[:-1]]
    assert parent._pool == SeedStream(key_words(key[:-1]))._pool
    full = SeedStream(key_words(key))
    assert (derived._pool, derived._const) == (full._pool, full._const)
    assert state(derived.rng(2)) == default_state(key_words(key) + [2])
    sibling = table.stream(5, "t0001", "speculate", 8)
    assert sibling._pool == SeedStream(key_words(key[:-1] + (8,)))._pool
    assert table._streams[key[:-1]] is parent  # siblings share one parent
    assert list(table._streams) == [(1, 2, 3), (1, 2, 3, 4), key[:-1], key, (5, "t0001", "speculate", 8)]


@pytest.mark.parametrize("seed", [[], 0, 7, 2**64 + 5, [7], [3, 2**40, 0, 9, 11]])
def test_default_rng_takes_an_empty_an_int_and_a_list_seed(seed):
    got = default_rng(seed)
    want = np.random.default_rng(seed)
    assert state(got) == numpy_state(want)
    assert [got.random() for _ in range(4)] == want.random(4).tolist()
    assert default_rng(got) is got  # a generator is drawn from as it is


@given(
    seed=st.integers(0, 2**64 - 1),
    ops=st.lists(st.one_of(st.just("random"), st.just("normal"), st.just("lognormal"), SPAN), max_size=16),
)
def test_draws_in_any_order_equal_generators(seed, ops):
    # An int op is an integers() span; its low bound moves with the span so
    # that negative and positive offsets both occur. Any mix of uint32 and
    # whole-word draws leaves the buffer as NumPy leaves it.
    got, want = default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        if op == "random":
            assert got.random() == want.random()
        elif op == "normal":
            assert got.standard_normal() == want.standard_normal()
        elif op == "lognormal":
            assert got.lognormal(6.8, 0.25) == want.lognormal(6.8, 0.25)
        else:
            low = op % 7 - 3
            assert got.integers(low, low + op) == int(want.integers(low, low + op))
        assert state(got) == numpy_state(want)


def test_integers_use_the_buffered_uint32():
    # Two draws take one raw word: the low half, then the buffered high half.
    got, want = default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        assert got.integers(0, 10) == int(want.integers(0, 10))
        assert state(got) == numpy_state(want) and got.has_uint32 == 1
        assert got.integers(0, 10) == int(want.integers(0, 10))
        assert state(got) == numpy_state(want) and got.has_uint32 == 0
    # A whole-word draw between them leaves the buffered half in place.
    assert got.integers(100, 1000) == int(want.integers(100, 1000))
    assert got.random() == want.random()
    assert got.integers(100, 1000) == int(want.integers(100, 1000))
    assert state(got) == numpy_state(want)


class CountingPCG64(PCG64):
    """A PCG64 counting the raw words it hands out."""

    def __init__(self, state, inc):
        super().__init__(state, inc)
        self.words = 0

    def random_raw(self):
        self.words += 1
        return super().random_raw()


def test_integers_retry_rejected_words():
    # 3 * 2**30 rejects a uint32 whose low product half is below 2**32 % span
    # = 2**30: one word in four.
    span = 3 * 2**30
    seeded = default_rng(41)
    counting = CountingPCG64(seeded.state, seeded.inc)
    want = np.random.default_rng(41)
    assert [counting.integers(0, span) for _ in range(400)] == want.integers(0, span, size=400).tolist()
    assert counting.words > 200 + 40  # 400 draws take 200 words without a rejection
    assert state(counting) == numpy_state(want)
    with pytest.raises(ValueError):
        counting.integers(0, 2**32 + 1)
    with pytest.raises(ValueError):
        counting.integers(5, 5)


def _ziggurat_gen(word, hi=0x0123456789ABCDEF, inc=default_rng(3).inc):
    """A PCG64 whose next raw word is ``word``: the state after the step is
    chosen to output it (XSL-RR: rotate by the top six bits, xor of the
    halves), then stepped back through the LCG."""
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & MASK64)
    after = (hi << 64) | lo
    before = ((after - inc) * pow(PCG_MULT, -1, 1 << 128)) & MASK128
    assert PCG64(before, inc).random_raw() == word
    return PCG64(before, inc)


# A raw word is read as 8 bits of layer, 1 sign bit, then 52 bits of |x|.
TOP_RABS = (1 << 52) - 1


@pytest.mark.parametrize("sign", [0, 1])
@pytest.mark.parametrize("rabs", [TOP_RABS, TOP_RABS ^ (1 << 8), KI[0], KI[0] | 1 << 8])
def test_standard_normal_tail(sign, rabs):
    # Layer 0 with |x| past ki[0] samples the tail beyond r; bit 8 of |x|
    # picks the tail's sign.
    word = rabs << 9 | sign << 8
    for hi in (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x5555AAAA5555AAAA):
        got = _ziggurat_gen(word, hi)
        want = numpy_at(got)
        value = got.standard_normal()
        assert value == want.standard_normal()
        assert abs(value) > 3.65 and (value < 0) == bool(rabs >> 8 & 1)
        assert state(got) == numpy_state(want)


@pytest.mark.parametrize("layer", [1, 2, 17, 128, 254, 255])
def test_standard_normal_wedge(layer):
    # |x| at the top of a layer above 0 falls in its wedge, where a uniform
    # accepts or rejects it; a rejection draws again from the next word.
    for rabs in (TOP_RABS, TOP_RABS - 12345, KI[layer]):
        assert rabs >= KI[layer]
        for sign in (0, 1):
            got = _ziggurat_gen(rabs << 9 | sign << 8 | layer)
            want = numpy_at(got)
            assert got.standard_normal() == want.standard_normal()
            assert state(got) == numpy_state(want)
            assert got.lognormal(0.5, 2.0) == want.lognormal(0.5, 2.0)


@pytest.mark.parametrize(
    "n, sizes",
    [
        (1, [0, 1]),
        (2, [1, 2]),
        (5, [0, 3, 5]),
        (400, [1, 2, 3, 8, 400]),
        (10_001, [1, 200, 201]),
        (20_000, [400, 401, 1000]),
    ],
)
def test_choice_without_replacement_equals_generators(n, sizes):
    # Floyd's algorithm and a shuffle, or, for more than n // 50 of more
    # than 10000, a partial shuffle of the whole range.
    for seed in range(5):
        got, want = default_rng([seed, n]), np.random.default_rng([seed, n])
        for size in sizes:
            assert got.choice(n, size) == want.choice(n, size=size, replace=False).tolist()
            assert state(got) == numpy_state(want)
    with pytest.raises(ValueError):
        default_rng(0).choice(n, n + 1)


def test_choice_cdf_equals_numpys_normalization():
    # Under 8 weights NumPy sums in order, up to 128 with eight accumulators,
    # and past 128 splits the array pairwise.
    for size in range(1, 131):
        rng = np.random.default_rng(size)
        # Uniform weights at three scales, and a prior's row: counts over
        # their total, as TransitionPrior passes them.
        counts = [int(c) + 1 for c in rng.integers(0, 9, size=size)]
        rows = [(rng.random(size) * scale).tolist() for scale in (1.0, 1e-9, 1e6)]
        rows.append([c / sum(counts) for c in counts])
        for weights in rows:
            probs = np.array(weights) / np.array(weights).sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            assert choice_cdf(weights) == cdf.tolist(), size
