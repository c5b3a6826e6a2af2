"""SeedStream streams are np.random.default_rng(prefix + tail), bit for bit.

The stream helper re-implements NumPy's SeedSequence and PCG64 seeding, so
these properties pin it to NumPy itself: a change of either algorithm in a
NumPy release would fail here before it could change a run's draws. A
StreamTable keeps the streams it built, each key of four or more parts
built from its parent key's stream; no table hit or parent build may change
a state or accept a bad word. ``bounded_ints`` is pinned to
``Generator.integers`` the same way.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaver.agents import SyntheticWorld
from weaver.orchestrator import default_roster
from weaver.streams import SeedStream, StreamTable, _key64, _mix_words, _uint32_words, bounded_ints
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


def default_state(words):
    return np.random.default_rng(list(words)).bit_generator.state


@given(prefix=st.lists(WORD, min_size=2, max_size=6), tail=st.lists(WORD, max_size=3))
def test_state_equals_default_rng(prefix, tail):
    assert SeedStream(prefix).rng(*tail).bit_generator.state == default_state(prefix + tail)


@given(prefix=st.lists(WORD, max_size=6), tails=st.lists(st.lists(WORD, max_size=2), max_size=4))
def test_one_stream_serves_many_tails(prefix, tails):
    stream = SeedStream(prefix)
    for tail in tails:
        assert stream.rng(*tail).bit_generator.state == default_state(prefix + tail)


@given(st.integers(0, 2**32 - 1), st.text(min_size=1), st.integers(0, 10_000))
def test_first_draws_equal_default_rng(seed, key, ordinal):
    prefix = [seed, _key64(key), _key64("lane")]
    got = SeedStream(prefix).rng(ordinal)
    want = np.random.default_rng(prefix + [ordinal])
    assert got.random() == want.random()
    assert got.lognormal(6.8, 0.25) == want.lognormal(6.8, 0.25)
    assert got.integers(0, 400, size=5).tolist() == want.integers(0, 400, size=5).tolist()
    assert got.random(3).tolist() == want.random(3).tolist()


@given(prefix=st.lists(WORD, min_size=2, max_size=6), tails=st.lists(st.lists(WORD, max_size=2), max_size=4))
def test_repeated_tails_replay_their_state(prefix, tails):
    stream = SeedStream(prefix)
    misses = [stream.rng(*tail).bit_generator.state for tail in tails]
    hits = [stream.rng(*tail).bit_generator.state for tail in reversed(tails)][::-1]
    assert hits == misses == [default_state(prefix + tail) for tail in tails]


def test_repeated_tails_still_refuse_bad_words():
    stream = SeedStream([1, 2, 3, 4])
    want = default_state([1, 2, 3, 4, 1])
    assert stream.rng(1).bit_generator.state == want
    with pytest.raises(TypeError):
        stream.rng(1.0)
    with pytest.raises(ValueError):
        stream.rng(-1)
    assert stream.rng(np.uint8(1)).bit_generator.state == want


def test_table_builds_each_stream_once():
    table = StreamTable()
    stream = table.stream(3, "t0001", "search", "main")
    assert table.stream(3, "t0001", "search", "main") is stream
    assert table.stream(3, "t0001", "search", "e1") is not stream
    words = [3, _key64("t0001"), _key64("search"), _key64("main"), 7]
    assert stream.rng(7).bit_generator.state == default_state(words)
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
    assert [stream.rng(t).bit_generator.state for t in tails] == want
    assert [stream.rng(t).bit_generator.state for t in reversed(tails)] == want[::-1]
    again = SeedStream(prefix)  # streams with as many prefix words share the mix constants
    assert [again.rng(t).bit_generator.state for t in tails] == want


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
            assert session._rng(*key, ordinal=ordinal).bit_generator.state == default_state(words)
            assert stream.rng(ordinal).bit_generator.state == default_state(words)


def test_short_prefix_falls_back_to_default_rng():
    # [7, 2] fills two of the four pool words; the tail completes the pool.
    stream = SeedStream([7, 2])
    first = stream.rng(0)
    assert first.bit_generator.state == default_state([7, 2, 0])
    assert stream.rng(5).bit_generator.state == default_state([7, 2, 5])
    assert first.bit_generator.state == default_state([7, 2, 0])  # a generator of its own
    assert SeedStream([]).rng().bit_generator.state == default_state([])


def test_bad_words_are_refused_like_default_rng():
    for bad, error in (([1.5, 2, 3, 4], TypeError), ([2**40, -1, 3], ValueError)):
        with pytest.raises(error):
            np.random.default_rng(bad)
        with pytest.raises(error):
            SeedStream(bad)
    with pytest.raises(ValueError):
        SeedStream([1, 2, 3, 4]).rng(-5)


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
            out[n] = [rng.random() for _ in range(6)]  # one draw per bytecode-level call
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
        state = table.stream(*key).rng(tail).bit_generator.state
        assert state == default_state(key_words(key) + [tail])
    for key in asked:  # again, from the table
        assert table.stream(*key).rng(tail).bit_generator.state == default_state(key_words(key) + [tail])
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
    assert short.rng(0).bit_generator.state == default_state([1, 2, 3, 4, 0])
    key = (5, "t0001", "speculate", 7)  # parent: five words
    derived = table.stream(*key)
    parent = table._streams[key[:-1]]
    assert parent._pool == SeedStream(key_words(key[:-1]))._pool
    full = SeedStream(key_words(key))
    assert (derived._pool, derived._const) == (full._pool, full._const)
    assert derived.rng(2).bit_generator.state == default_state(key_words(key) + [2])
    sibling = table.stream(5, "t0001", "speculate", 8)
    assert sibling._pool == SeedStream(key_words(key[:-1] + (8,)))._pool
    assert table._streams[key[:-1]] is parent  # siblings share one parent
    assert list(table._streams) == [(1, 2, 3), (1, 2, 3, 4), key[:-1], key, (5, "t0001", "speculate", 8)]


class CountingBitGenerator:
    """A bit generator's ``random_raw``, counting the words it hands out."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self.words = 0

    def random_raw(self):
        self.words += 1
        return self.bit_generator.random_raw()


@given(
    seed=st.integers(0, 2**64 - 1),
    span=st.one_of(st.sampled_from([2, 3, 400, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32]), st.integers(2, 2**32)),
    count=st.integers(0, 12),
)
def test_bounded_ints_are_generator_integers(seed, span, count):
    want_rng = np.random.default_rng(seed)
    want = [int(want_rng.integers(0, span)) for _ in range(count)]
    got_rng = np.random.default_rng(seed)
    draws = bounded_ints(got_rng.bit_generator, span)
    assert [next(draws) for _ in range(count)] == want
    # Float draws take whole raw words, after either.
    assert got_rng.random() == want_rng.random()
    assert got_rng.lognormal(6.8, 0.25) == want_rng.lognormal(6.8, 0.25)


def test_bounded_ints_retry_rejected_words():
    # 3 * 2**30 rejects a word whose low product half is below 2**32 % span
    # = 2**30: one word in four.
    span = 3 * 2**30
    rng = np.random.default_rng(41)
    counting = CountingBitGenerator(rng.bit_generator)
    draws = bounded_ints(counting, span)
    got = [next(draws) for _ in range(400)]
    want_rng = np.random.default_rng(41)
    assert got == [int(want_rng.integers(0, span)) for _ in range(400)]
    assert counting.words > 200 + 40  # 400 draws take 200 words without a rejection
    with pytest.raises(ValueError):
        next(bounded_ints(rng.bit_generator, 1))
    with pytest.raises(ValueError):
        next(bounded_ints(rng.bit_generator, 2**32 + 1))
