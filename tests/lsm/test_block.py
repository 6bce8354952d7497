"""Data blocks: prefix compression, restart points, seek."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_VALUE,
    MAX_SEQUENCE,
    internal_sort_key,
    pack_internal_key,
    unpack_internal_key,
)


def _key(user: str, seq: int = 1) -> bytes:
    return pack_internal_key(user.encode(), seq, KIND_VALUE)


def _build(pairs, restart_interval=16) -> Block:
    builder = BlockBuilder(restart_interval)
    for key, value in pairs:
        builder.add(key, value)
    return Block(builder.finish())


class TestBuilder:
    def test_empty_block(self):
        block = _build([])
        assert list(block) == []

    def test_roundtrip(self):
        pairs = [(_key(f"key{i:03d}"), f"value{i}".encode())
                 for i in range(100)]
        block = _build(pairs)
        assert list(block) == pairs

    def test_out_of_order_rejected(self):
        builder = BlockBuilder()
        builder.add(_key("b"), b"")
        with pytest.raises(ValueError):
            builder.add(_key("a"), b"")

    def test_same_key_newer_seq_first(self):
        builder = BlockBuilder()
        builder.add(_key("k", 9), b"new")
        builder.add(_key("k", 3), b"old")
        block = Block(builder.finish())
        assert [v for _k, v in block] == [b"new", b"old"]

    def test_prefix_compression_shrinks_output(self):
        shared = [(_key(f"commonprefix{i:05d}"), b"v") for i in range(200)]
        distinct = [(_key(f"{i:05d}distinctsuffix"), b"v") for i in range(200)]
        compressed = BlockBuilder()
        for key, value in shared:
            compressed.add(key, value)
        uncompressed = BlockBuilder()
        for key, value in distinct:
            uncompressed.add(key, value)
        assert len(compressed.finish()) < len(uncompressed.finish())

    def test_reset(self):
        builder = BlockBuilder()
        builder.add(_key("a"), b"1")
        builder.reset()
        assert builder.is_empty
        builder.add(_key("a"), b"1")  # re-adding same key is fine after reset
        assert builder.num_entries == 1

    def test_size_estimate_grows(self):
        builder = BlockBuilder()
        initial = builder.current_size_estimate()
        builder.add(_key("abc"), b"x" * 100)
        assert builder.current_size_estimate() > initial


class TestSeek:
    def test_seek_exact(self):
        pairs = [(_key(f"k{i:03d}"), str(i).encode()) for i in range(50)]
        block = _build(pairs, restart_interval=4)
        got = list(block.seek(_key("k025", MAX_SEQUENCE)))
        assert got == pairs[25:]

    def test_seek_between_keys(self):
        pairs = [(_key(f"k{i:03d}"), b"") for i in range(0, 50, 2)]
        block = _build(pairs, restart_interval=4)
        got = list(block.seek(_key("k003", MAX_SEQUENCE)))
        assert unpack_internal_key(got[0][0]).user_key == b"k004"

    def test_seek_past_end(self):
        block = _build([(_key("a"), b"")])
        assert list(block.seek(_key("z", MAX_SEQUENCE))) == []

    def test_seek_before_start(self):
        pairs = [(_key(f"k{i}"), b"") for i in range(5)]
        block = _build(pairs)
        assert list(block.seek(_key("", MAX_SEQUENCE))) == pairs

    def test_seek_respects_sequence_order(self):
        builder = BlockBuilder()
        builder.add(_key("k", 9), b"new")
        builder.add(_key("k", 3), b"old")
        block = Block(builder.finish())
        # Seeking at seq 5 must skip the newer (seq 9) version.
        got = list(block.seek(_key("k", 5)))
        assert [v for _k, v in got] == [b"old"]

    def test_all_restart_intervals_agree(self):
        pairs = [(_key(f"key{i:04d}"), str(i).encode()) for i in range(64)]
        for interval in (1, 2, 7, 16, 64):
            block = _build(pairs, restart_interval=interval)
            assert list(block) == pairs
            got = list(block.seek(_key("key0040", MAX_SEQUENCE)))
            assert got == pairs[40:]


# User keys share prefixes (so entries share bytes with the one before)
# and some run past 127 bytes, like some values: their lengths, shared
# and not, take two-byte varints.
_user_keys = st.builds(bytes.__add__,
                       st.sampled_from([b"", b"user", b"k" * 130]),
                       st.binary(max_size=12))
_versions = st.dictionaries(
    st.integers(min_value=0, max_value=MAX_SEQUENCE),
    st.tuples(st.sampled_from([KIND_VALUE, KIND_DELETE, KIND_MERGE]),
              st.binary(max_size=200)),
    min_size=1, max_size=4)


@st.composite
def _blocks_and_targets(draw):
    """``(entries, block_bytes, targets)``: several versions per key, all
    three kinds, and seek targets before, between and after the entries."""
    records = draw(st.dictionaries(_user_keys, _versions, max_size=40))
    entries = sorted(
        ((pack_internal_key(user_key, seq, kind), value)
         for user_key, versions in records.items()
         for seq, (kind, value) in versions.items()),
        key=lambda entry: internal_sort_key(entry[0]))
    builder = BlockBuilder(draw(st.sampled_from([1, 16])))
    for key, value in entries:
        builder.add(key, value)
    target_keys = st.one_of(
        st.sampled_from(sorted(records) or [b""]), _user_keys,
        st.just(b""), st.just(b"\xff" * 140))
    seqs = st.one_of(
        st.sampled_from(sorted({seq + delta for versions in records.values()
                                for seq in versions for delta in (-1, 0, 1)
                                if 0 <= seq + delta <= MAX_SEQUENCE})
                        or [0]),
        st.just(0), st.just(MAX_SEQUENCE))
    targets = draw(st.lists(
        st.builds(pack_internal_key, target_keys, seqs,
                  st.sampled_from([KIND_VALUE, KIND_MERGE])),
        min_size=1, max_size=8))
    return entries, builder.finish(), targets


class TestSeekRegimes:
    """The one-shot seek, the bisect over the search arrays and the bisect
    on a block a scan parsed first answer alike."""

    @given(_blocks_and_targets())
    @settings(max_examples=200, deadline=None)
    def test_every_regime_matches_a_sorted_list(self, case):
        entries, data, targets = case
        one_shot = Block(data)
        searchable = Block(data)
        searchable.make_searchable()
        scanned = Block(data)
        assert list(scanned.sorted_items()) == [
            (internal_sort_key(key), value) for key, value in entries]
        scanned.make_searchable()
        for target in targets:
            floor = internal_sort_key(target)
            expected = [entry for entry in entries
                        if internal_sort_key(entry[0]) >= floor]
            assert list(one_shot.seek(target)) == expected
            assert list(searchable.seek(target)) == expected
            assert list(scanned.seek(target)) == expected
        assert one_shot._search is None  # a one-shot seek memoizes nothing

    def test_value_bounds_past_64_kib(self):
        big = b"v" * 70_000
        pairs = [(_key("a"), big), (_key("b"), b"tail")]
        block = _build(pairs)
        block.make_searchable()
        assert list(block.seek(_key("b", MAX_SEQUENCE))) == pairs[1:]
        assert list(block.seek(_key("a", MAX_SEQUENCE))) == pairs


class TestCorruption:
    def test_truncated_block(self):
        with pytest.raises(CorruptionError):
            Block(b"ab")

    def test_restart_array_overflow(self):
        # num_restarts claims more entries than the block holds.
        with pytest.raises(CorruptionError):
            Block(b"\x00\x00\x00\x00" + (99).to_bytes(4, "little"))

    def test_garbage_entries(self):
        import struct

        garbage = b"\xff" * 20 + struct.pack("<I", 0) + struct.pack("<I", 1)
        block = Block(garbage)
        with pytest.raises(CorruptionError):
            list(block)
