"""Containment: quarantine, serve-around, cache purging, filter degradation.

``Options.on_corruption`` picks the blast radius of a failed CRC:

* ``"raise"`` (default) — the error propagates; nothing else changes, so
  the default read path stays byte-identical to the pre-containment
  engine.
* ``"quarantine"`` — the table holding the bad block is served around
  from then on: reads skip it (results may be *missing-but-detected*,
  never wrong), its bytes are purged from every cache, and the event is
  counted in ``DB.stats()["corruption"]``.
"""

from __future__ import annotations

import pytest

from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError
from repro.lsm.faults import FaultInjectingVFS

from drill_utils import corruption_options, populate, table_files


def block_offsets(vfs: FaultInjectingVFS, name: str):
    """``(data_block_offsets, meta_block_offsets)`` of one stored table."""
    from repro.lsm.keys import decode_length_prefixed, decode_varint
    from repro.lsm.sstable import _FOOTER_SIZE, Block, BlockHandle

    data = bytes(vfs.base._files[name])
    footer = data[-_FOOTER_SIZE:]
    metaindex_handle, pos = BlockHandle.decode(footer, 0)
    index_handle, _pos = BlockHandle.decode(footer, pos)
    index_block = Block(
        data[index_handle.offset:index_handle.offset + index_handle.size])
    data_offsets = []
    for _key, value in index_block:
        handle, _off = BlockHandle.decode(value, 0)
        data_offsets.append(handle.offset)
    meta_offsets = []
    payload = data[metaindex_handle.offset:
                   metaindex_handle.offset + metaindex_handle.size]
    count, pos = decode_varint(payload, 0)
    for _ in range(count):
        _name, pos = decode_length_prefixed(payload, pos)
        handle_bytes, pos = decode_length_prefixed(payload, pos)
        handle, _off = BlockHandle.decode(handle_bytes, 0)
        meta_offsets.append(handle.offset)
    return data_offsets, meta_offsets


class TestQuarantine:
    def test_scan_serves_around_corrupt_table(self, faulty_db):
        vfs, db, expected = faulty_db
        victim = table_files(vfs)[0]
        data_offsets, _ = block_offsets(vfs, victim)
        vfs.flip_bit(victim, data_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db", corruption_options(paranoid_checks=True))
        got = dict(db.scan())
        # Never a wrong value: everything returned matches the original
        # writes; the quarantined table's rows are the only ones missing,
        # and the loss is *detected* (counted, logged, listed).
        for key, value in got.items():
            assert expected[key] == value
        assert got != expected  # some rows really were lost
        stats = db.stats()["corruption"]
        assert stats["events"] >= 1
        assert stats["tables_quarantined"] == len(stats["quarantined"]) >= 1
        db.close()

    def test_get_of_quarantined_key_is_none_not_garbage(self, faulty_db):
        vfs, db, expected = faulty_db
        victim = table_files(vfs)[0]
        data_offsets, _ = block_offsets(vfs, victim)
        vfs.flip_bit(victim, data_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db", corruption_options(paranoid_checks=True))
        for key, value in expected.items():
            got = db.get(key)
            assert got is None or got == value
        db.close()

    def test_raise_policy_propagates(self, faulty_db):
        vfs, db, _expected = faulty_db
        victim = table_files(vfs)[0]
        data_offsets, _ = block_offsets(vfs, victim)
        vfs.flip_bit(victim, data_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db",
                     corruption_options(on_corruption="raise",
                                        paranoid_checks=True))
        with pytest.raises(CorruptionError):
            for _ in db.scan():
                pass
        assert db.stats()["corruption"]["tables_quarantined"] == 0
        db.close()

    def test_quarantine_is_sticky_and_cheap(self, faulty_db):
        vfs, db, _expected = faulty_db
        victim = table_files(vfs)[0]
        data_offsets, _ = block_offsets(vfs, victim)
        vfs.flip_bit(victim, data_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db", corruption_options(paranoid_checks=True))
        list(db.scan())
        quarantined = db.stats()["corruption"]["quarantined"]
        # Later reads serve around without re-reading the rotten file.
        reads_before = vfs.read_op_count
        list(db.scan())
        assert db.stats()["corruption"]["quarantined"] == quarantined
        assert vfs.read_op_count > reads_before  # healthy tables still read
        db.close()


class TestCachePoisoning:
    """A block that failed its CRC must never be served from any cache."""

    def test_crc_failing_block_is_never_cached(self):
        vfs = FaultInjectingVFS()
        options = corruption_options(on_corruption="raise",
                                     paranoid_checks=True,
                                     block_cache_size=1 << 20)
        db = DB.open(vfs, "db", options)
        expected = populate(db)
        db.close()
        # Rot one stored bit, then read it with completely cold caches.
        victim = table_files(vfs)[0]
        victim_number = int(victim.rsplit("/", 1)[-1].split(".")[0])
        data_offsets, _ = block_offsets(vfs, victim)
        vfs.flip_bit(victim, data_offsets[0] + 3)
        db = DB.open(vfs, "db", options)
        with pytest.raises(CorruptionError):
            for _ in db.scan():
                pass
        # The poisoned payload must not have been inserted into the block
        # cache on its way to the CRC failure.
        cache = db.table_cache.block_cache
        assert not any(key == (victim_number, data_offsets[0])
                       for key in cache._entries)
        # Flip the same bit back: the device healed.  If any cache still
        # held bytes decoded from the rotten read, this scan would serve
        # the poisoned copy; it must read clean.
        vfs.flip_bit(victim, data_offsets[0] + 3)
        assert dict(db.scan()) == expected
        db.close()

    def test_quarantine_purges_block_cache(self, faulty_db):
        vfs, db, _expected = faulty_db
        db.close()
        options = corruption_options(paranoid_checks=True,
                                     block_cache_size=1 << 20)
        db = DB.open(vfs, "db", options)
        list(db.scan())  # warm the block cache
        victim = table_files(vfs)[0]
        victim_number = int(victim.rsplit("/", 1)[-1].split(".")[0])
        cache = db.table_cache.block_cache
        assert any(key[0] == victim_number for key in cache._entries), \
            "drill needs the victim's blocks cached"
        db._quarantine_table(victim_number, CorruptionError("drill"))
        assert not any(key[0] == victim_number for key in cache._entries)
        db.close()


def entry_offsets(block: bytes) -> list[int]:
    """Where each entry of a well-formed data block payload starts."""
    from repro.lsm.keys import decode_varint

    num_restarts = int.from_bytes(block[-4:], "little")
    end = len(block) - 4 - 4 * num_restarts
    offsets, pos = [], 0
    while pos < end:
        offsets.append(pos)
        _shared, pos = decode_varint(block, pos)
        non_shared, pos = decode_varint(block, pos)
        value_len, pos = decode_varint(block, pos)
        pos += non_shared + value_len
    return offsets


class TestSearchBuildContainment:
    """With ``paranoid_checks`` off, a cached block with a rotten tail
    passes a one-shot seek that stops before the rot; the block cache's
    second serve decodes it whole to make it searchable, and that decode's
    error is contained like a read's: the table is quarantined or the
    error raised, and the block leaves the cache either way."""

    @pytest.mark.parametrize("policy", ["quarantine", "raise"])
    def test_rotten_tail_found_by_the_search_build(self, policy):
        from repro.lsm.block import Block

        vfs = FaultInjectingVFS()
        options = corruption_options(on_corruption=policy,
                                     block_cache_size=1 << 20)
        assert not options.paranoid_checks
        db = DB.open(vfs, "db", options)
        expected = populate(db)
        victim = table_files(vfs)[0]
        number = int(victim.rsplit("/", 1)[-1].split(".")[0])
        data_offsets, _ = block_offsets(vfs, victim)
        start, stop = data_offsets[0], data_offsets[1]
        payload = bytes(vfs.base._files[victim][start:stop - 5])
        first_key = next(iter(Block(payload)))[0][:-8]
        # The last entry's shared-prefix length grows past its previous
        # key: a decode that reaches it fails; one that stops short cannot
        # tell.
        vfs.flip_bit(victim, start + entry_offsets(payload)[-1], bit=6)
        cache = db.table_cache.block_cache
        assert db.get(first_key) == expected[first_key]  # one-shot: fine
        assert (number, start) in cache._entries
        if policy == "raise":
            with pytest.raises(CorruptionError):
                db.get(first_key)
            assert db.stats()["corruption"]["tables_quarantined"] == 0
        else:
            assert db.get(first_key) is None  # served around, never garbage
            assert db.quarantined_tables() == [number]
        assert (number, start) not in cache._entries
        db.close()


class TestFilterDegradation:
    def test_corrupt_meta_block_degrades_not_fails(self, faulty_db):
        vfs, db, expected = faulty_db
        victim = table_files(vfs)[0]
        _data, meta_offsets = block_offsets(vfs, victim)
        assert meta_offsets, "tables write at least the primary filter"
        vfs.flip_bit(victim, meta_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db", corruption_options())
        # Filters are advisory: with one dropped, every read still returns
        # exactly the right answer — just with more data-block reads.
        assert dict(db.scan()) == expected
        for key in (b"k0000", b"k0150", b"k0299", b"missing"):
            assert db.get(key) == expected.get(key)
        assert db.stats()["corruption"]["filter_degradations"] >= 1
        assert db.stats()["corruption"]["tables_quarantined"] == 0
        db.close()

    def test_raise_policy_fails_table_open(self, faulty_db):
        vfs, db, _expected = faulty_db
        victim = table_files(vfs)[0]
        _data, meta_offsets = block_offsets(vfs, victim)
        vfs.flip_bit(victim, meta_offsets[0] + 3)
        db.close()
        db = DB.open(vfs, "db", corruption_options(on_corruption="raise"))
        with pytest.raises(CorruptionError):
            for _ in db.scan():
                pass
        db.close()
