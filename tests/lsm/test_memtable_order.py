"""MemTable ordering against a sorted oracle: seeks, iteration, duplicates."""

import random

import pytest

from repro.lsm.keys import KIND_DELETE, KIND_VALUE
from repro.lsm.memtable import MemTable


def _order(mem, lo=b""):
    return [(e.user_key, e.seq) for e in mem.entries_from(lo)]


class TestBasics:
    def test_empty(self):
        mem = MemTable()
        assert list(mem) == []
        assert _order(mem, b"k") == []
        assert list(mem.versions(b"k")) == []
        assert mem.get(b"k") is None

    def test_insert_get(self):
        mem = MemTable()
        for seq, key in enumerate([b"b", b"a", b"c"], start=1):
            mem.add(seq, KIND_VALUE, key, key * 2)
        assert [mem.get(key).value for key in (b"a", b"b", b"c")] == \
            [b"aa", b"bb", b"cc"]
        assert len(mem) == 3

    def test_duplicate_rejected(self):
        mem = MemTable()
        mem.add(5, KIND_VALUE, b"k", b"v")
        mem.add(9, KIND_VALUE, b"k", b"v")
        memory = mem.approximate_memory_usage
        for seq in (5, 9):  # the newest version and an older one
            with pytest.raises(KeyError):
                mem.add(seq, KIND_DELETE, b"k", b"")
        assert len(mem) == 2 and mem.approximate_memory_usage == memory
        mem.add(5, KIND_VALUE, b"other", b"")  # same seq, another key

    def test_iteration_is_sorted(self):
        mem = MemTable()
        keys = [b"m", b"a", b"z", b"q", b"b"]
        for seq, key in enumerate(keys, start=1):
            mem.add(seq, KIND_VALUE, key, b"")
        assert [e.user_key for e in mem] == sorted(keys)

    def test_first(self):
        mem = MemTable()
        mem.add(1, KIND_VALUE, b"q", b"")
        mem.add(2, KIND_VALUE, b"a", b"old")
        mem.add(3, KIND_VALUE, b"a", b"new")
        first = next(iter(mem))
        assert (first.user_key, first.value) == (b"a", b"new")

    def test_entries_from_midpoint(self):
        mem = MemTable()
        for seq, key in enumerate([b"a", b"c", b"e", b"g"], start=1):
            mem.add(seq, KIND_VALUE, key, b"")

        def keys(lo):
            return [key for key, _seq in _order(mem, lo)]

        assert keys(b"c") == [b"c", b"e", b"g"]
        assert keys(b"d") == [b"e", b"g"]
        assert keys(b"z") == []
        assert keys(b"") == [b"a", b"c", b"e", b"g"]

    def test_out_of_order_versions_stay_newest_first(self):
        mem = MemTable()
        for seq in (4, 1, 9, 6):
            mem.add(seq, KIND_VALUE, b"k", str(seq).encode())
        assert _order(mem, b"k") == [(b"k", 9), (b"k", 6), (b"k", 4),
                                     (b"k", 1)]
        assert mem.get(b"k", max_seq=5).value == b"4"


class TestRandomized:
    def test_against_dict_oracle(self):
        rng = random.Random(99)
        mem = MemTable()
        oracle: dict[tuple[bytes, int], bytes] = {}
        for i in range(3000):
            key = b"k%03d" % rng.randrange(300)
            seq = rng.randrange(1, 2000)
            value = b"%d" % i
            if (key, seq) in oracle:
                with pytest.raises(KeyError):
                    mem.add(seq, KIND_VALUE, key, value)
                continue
            oracle[key, seq] = value
            mem.add(seq, KIND_VALUE, key, value)
        assert len(mem) == len(oracle)
        want = sorted(oracle, key=lambda ks: (ks[0], -ks[1]))
        assert [(e.user_key, e.seq) for e in mem] == want
        for (key, seq), value in oracle.items():
            assert mem.get(key, seq).value == value

    def test_seek_positions(self):
        rng = random.Random(5)
        mem = MemTable()
        keys = sorted(rng.sample(range(10000), 500))
        for seq, key in enumerate(keys, start=1):
            mem.add(seq, KIND_VALUE, b"%05d" % key, b"")
        for _ in range(100):
            target = b"%05d" % rng.randrange(11000)
            got = [key for key, _seq in _order(mem, target)]
            assert got == [b"%05d" % k for k in keys if b"%05d" % k >= target]


class TestWalkUnderWrites:
    """A walk is a generator: adds between its steps are what a concurrent
    writer does between a reader's steps."""

    def test_adds_mid_walk(self):
        mem = MemTable()
        for seq, key in enumerate([b"b", b"d", b"d", b"d", b"f"], start=1):
            mem.add(seq * 10, KIND_VALUE, key, b"")
        before = _order(mem)
        walk = mem.entries_from()
        assert [(e.user_key, e.seq) for e in (next(walk), next(walk))] == \
            [(b"b", 10), (b"d", 40)]
        mem.add(25, KIND_VALUE, b"d", b"")  # out of order, under the walk
        mem.add(5, KIND_VALUE, b"a", b"")  # shifts every key back
        mem.add(6, KIND_VALUE, b"c", b"")  # behind the walk, shifts d and f
        mem.add(7, KIND_VALUE, b"e", b"")  # ahead of the walk
        rest = [(e.user_key, e.seq) for e in walk]
        walked = before[:2] + rest
        assert walked == sorted(set(walked), key=lambda ks: (ks[0], -ks[1]))
        assert set(before) <= set(walked)
        assert (b"e", 7) in rest
