"""``DB.get_many_with_seq``: a batch of ``get_with_seq`` under one view.

Two contracts.  The answers are exactly the per-key ones — in every
component a version can live in, for every shape of input — and the reads
are shared: within one call a data block is read once however many of the
keys live in it.  (Corruption containment is drilled with the other probes
in ``tests/corruption/test_mode_matrix.py``.)
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS

KEYS = [b"k%03d" % i for i in range(80)]


def _concat(_key, operands):
    return b"|".join(operands)


def _options(**overrides) -> Options:
    base = dict(block_size=512, sstable_target_size=2 * 1024,
                memtable_budget=1 << 30, l1_target_size=8 * 1024,
                disable_auto_compaction=True, merge_operator=_concat)
    base.update(overrides)
    return Options(**base)


def _drive(db: DB, seed: int) -> None:
    """Puts, overwrites, deletes, merges; flushes that leave overlapping
    level-0 tables on top of a manual compaction; an unflushed tail."""
    rng = random.Random(seed)
    compact_at = rng.randrange(150, 350)
    for step in range(500):
        key = rng.choice(KEYS[:70])  # the last ten stay absent
        roll = rng.random()
        if roll < 0.5:
            db.put(key, b"v%04d-" % step + b"x" * rng.randrange(60))
        elif roll < 0.7:
            db.delete(key)
        else:
            db.merge(key, b"m%04d" % step)
        if step % 60 == 59:
            db.flush()
        if step == compact_at:
            db.compact_range()


def _assert_batch_equals_singles(db: DB, rng: random.Random) -> None:
    singles = {key: db.get_with_seq(key) for key in KEYS}
    assert any(hit is None for hit in singles.values())
    assert any(hit is not None for hit in singles.values())
    shuffled = KEYS[:]
    rng.shuffle(shuffled)
    for keys in (KEYS, shuffled, shuffled[:7] + shuffled[:7], KEYS[-10:],
                 [KEYS[3]], []):
        assert db.get_many_with_seq(keys) == {k: singles[k] for k in keys}
    assert db.get_many_with_seq(iter(KEYS[:5])) \
        == {k: singles[k] for k in KEYS[:5]}


@pytest.mark.parametrize("cache_bytes", [0, 4 << 20])
@pytest.mark.parametrize("seed", range(8))
def test_batch_equals_per_key_gets(seed, cache_bytes):
    db = DB.open_memory(_options(block_cache_size=cache_bytes))
    _drive(db, seed)
    counts = db.level_file_counts()
    assert counts[0] >= 2 and sum(counts[1:]) >= 1 and len(db.memtable) > 0
    _assert_batch_equals_singles(db, random.Random(seed))
    db.close()


def test_batch_sees_a_sealed_memtable():
    """Pipeline mode: the one view holds the active *and* the sealed
    MemTable, over tables an earlier (inline) life of the store left."""
    vfs = MemoryVFS()
    db = DB.open(vfs, "db", _options())
    _drive(db, seed=1)
    db.close()
    release_flush = threading.Event()

    def hold_the_flush(label: str) -> None:
        if label == "bg:flush":
            assert release_flush.wait(60)

    db = DB.open(vfs, "db", _options(background_compaction=True,
                                     step_hook=hold_the_flush,
                                     memtable_budget=2048))
    try:
        step = 0
        while db.imm is None:  # the leader seals at the end of a put
            db.put(KEYS[step % 40], b"sealed-%04d" % step)
            step += 1
            assert step < 1000, "the leader never sealed the MemTable"
        db.merge(KEYS[1], b"active")
        db.delete(KEYS[2])
        assert len(db.imm) > 0 and len(db.memtable) == 2
        assert sum(db.level_file_counts()) > 0
        _assert_batch_equals_singles(db, random.Random(1))
        found = db.get_many_with_seq(KEYS[:3])
        assert found[KEYS[0]][0].startswith(b"sealed-")
        assert found[KEYS[1]][0].endswith(b"|active")
        assert found[KEYS[2]] is None
        assert db.imm is not None
        assert db._version_pins == {}, "the batch's view was not released"
    finally:
        release_flush.set()
        db.close()


# -- exact read counts on the metered VFS, block cache 0 B ----------------------


def _data_reads(db: DB, read) -> int:
    before = db.vfs.stats.snapshot()
    read()
    return db.vfs.stats.delta(before).reads_by_category.get("data", 0)


def _one_table(rows: int = 200) -> DB:
    db = DB.open_memory(_options(sstable_target_size=1 << 20,
                                 block_cache_size=0))
    for i in range(rows):
        db.put(b"r%04d" % i, b"value-%04d" % i * 4)
    db.flush()
    assert db.level_file_counts()[0] == 1
    return db


def _keys_by_block(db: DB) -> list[list[bytes]]:
    """The user keys of the one table, grouped by data block."""
    [meta] = db.versions.current.levels[0]
    table = db.table_cache.get(meta.file_number)
    return [[ikey[:-8] for ikey, _value in table.read_data_block(index)]
            for index in range(table.num_data_blocks)]


def test_keys_of_one_block_cost_one_read():
    db = _one_table()
    block = _keys_by_block(db)[2]
    assert len(block) >= 5
    singles = sum(_data_reads(db, lambda key=key: db.get_with_seq(key))
                  for key in block)
    assert singles == len(block)
    assert _data_reads(db, lambda: db.get_many_with_seq(block)) == 1
    assert _data_reads(db, lambda: db.get_many_with_seq(block[::-1])) == 1
    db.close()


def test_one_read_per_touched_block_across_blocks_and_tables():
    db = _one_table()
    blocks = _keys_by_block(db)
    # Keys of blocks 1, 3 and 4, interleaved: sorting brings each block's
    # keys together, so the one held block is enough.
    picked = [key for trio in zip(blocks[1], blocks[3], blocks[4])
              for key in trio]
    assert _data_reads(db, lambda: db.get_many_with_seq(picked)) == 3
    # A second level-0 table over the same key range.  A GET gathers a
    # key's versions from every level-0 table that may hold it, so the
    # rewritten keys read both tables (12 reads one by one) — in a batch,
    # one block of the new table and blocks 1 and 4 of the old one.
    rewritten = blocks[1][:3] + blocks[4][:3]
    for key in rewritten:
        db.put(key, b"newer")
    db.flush()
    assert db.level_file_counts()[0] == 2
    assert sum(_data_reads(db, lambda key=key: db.get_with_seq(key))
               for key in rewritten) == 12
    assert _data_reads(db, lambda: db.get_many_with_seq(rewritten)) == 3
    found = db.get_many_with_seq(rewritten)
    assert {value for value, _seq in found.values()} == {b"newer"}
    # Keys only the old table holds share its two blocks with them.
    untouched = [blocks[1][4], blocks[4][4]]
    assert _data_reads(
        db, lambda: db.get_many_with_seq(rewritten + untouched)) == 3
    db.close()


def test_single_key_batch_costs_what_a_get_costs():
    db = DB.open_memory(_options(block_cache_size=0))
    _drive(db, seed=3)
    for key in KEYS:
        db.get_with_seq(key)  # open every table: a first touch reads metadata
    for key in KEYS:
        before = db.vfs.stats.snapshot()
        single = db.get_with_seq(key)
        middle = db.vfs.stats.snapshot()
        batch = db.get_many_with_seq([key])
        after = db.vfs.stats.snapshot()
        assert batch == {key: single}
        assert after.delta(middle) == middle.delta(before)
    db.close()
