"""Embedded Index: scans compare the attribute column, not parsed JSON.

Each primary table stores, per data block and in entry order, the encoded
value of every indexed attribute (FORMAT.md §4.3).  A LOOKUP or RANGELOOKUP
decides "is this entry's value in range?" from those bytes alone and parses
only the records it returns; a table without a column — one written before
the column existed, or whose column block was dropped as corrupt — derives
one by parsing, through the same scan.  Both must give the same answers.
"""

from __future__ import annotations

import random

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.core.embedded import EmbeddedIndex
from repro.core.topk import TopKBySeq
from repro.lsm.keys import encode_varint
from repro.lsm.options import Options, json_attribute_extractor
from repro.lsm.sstable import TableBuilder, _write_physical_block
from repro.lsm.vfs import Category
from repro.lsm.zonemap import ZoneMap

ATTRIBUTES = ("UserID", "CreationTime")
USERS = 8


class CountingExtractor:
    """The default JSON extractor, counting its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, value: bytes) -> dict:
        self.calls += 1
        return json_attribute_extractor(value)


def _zonemap_meta_blocks(self, attr):
    """What a table written before the column carries: blooms and the
    per-block zone-map block."""
    columns = self._secondary_columns[attr]
    zones = encode_varint(len(columns)) + b"".join(
        ZoneMap.of_column(column).encode() for column in columns)
    return [(f"filter.secondary.{attr}".encode(),
             self._write_filter_block(self._secondary_filters[attr])),
            (f"zonemap.secondary.{attr}".encode(),
             _write_physical_block(self._out, zones, self._compressor,
                                   self._category))]


def _bloom_only_meta_blocks(self, attr):
    """Neither column nor zone maps: every bloom-admitted block is parsed."""
    return [(f"filter.secondary.{attr}".encode(),
             self._write_filter_block(self._secondary_filters[attr]))]


def _build(extractor: CountingExtractor, auto_compaction: bool,
           seed: int) -> SecondaryIndexedDB:
    """Inserts, updates and deletes with flushes and compactions between:
    several versions of a key, and tombstones, share blocks."""
    db = SecondaryIndexedDB.open_memory(
        indexes={attr: IndexKind.EMBEDDED for attr in ATTRIBUTES},
        options=Options(block_size=512, sstable_target_size=2 * 1024,
                        memtable_budget=2 * 1024, l1_target_size=8 * 1024,
                        compression="none",
                        disable_auto_compaction=not auto_compaction,
                        l0_stop_writes_trigger=10**6,
                        attribute_extractor=extractor))
    rng = random.Random(seed)
    live: list[str] = []
    for step in range(400):
        roll = rng.random()
        if roll < 0.5 or not live:
            key = f"t{step:05d}"
            live.append(key)
        elif roll < 0.85:
            key = rng.choice(live)
        else:
            db.delete(live.pop(rng.randrange(len(live))))
            continue
        db.put(key, {"UserID": f"u{rng.randrange(USERS)}",
                     "CreationTime": 1000 + step, "Body": "b" * 30})
        if step % 97 == 96:
            db.flush()
        if step % 193 == 192:
            db.primary.compact_range()
    db.flush()
    return db


def _queries(db: SecondaryIndexedDB) -> list[list[tuple]]:
    """Every query shape, for K in {1, 10, None} and both
    ``early_termination`` values."""
    results = []
    for k in (1, 10, None):
        for early in (True, False):
            for user in ("u1", "u5", "u-absent"):
                results.append(db.lookup("UserID", user, k, early))
            results.append(db.range_lookup("UserID", "u2", "u6", k, early))
            results.append(db.lookup("CreationTime", 1100, k, early))
            for low in (1000, 1150, 1390):
                results.append(db.range_lookup("CreationTime", low, low + 40,
                                               k, early))
    return [[(r.key, r.seq, r.document) for r in answer]
            for answer in results]


def _run(db: SecondaryIndexedDB, extractor: CountingExtractor):
    """``(answers, data blocks read, extractor calls)`` of :func:`_queries`."""
    stats = db.primary.vfs.stats.reads_by_category
    extractor.calls = 0
    before = stats.get(Category.DATA.value, 0)
    answers = _queries(db)
    return answers, stats.get(Category.DATA.value, 0) - before, \
        extractor.calls


def _tables(db: SecondaryIndexedDB):
    return [db.primary.table_cache.get(meta.file_number)
            for _level, meta in db.primary.versions.current.all_files()]


@pytest.mark.parametrize("auto_compaction", [True, False],
                         ids=["leveled", "l0-overlap"])
@pytest.mark.parametrize("seed", [3, 11])
def test_answers_identical_without_the_column(monkeypatch, seed,
                                              auto_compaction):
    extractor = CountingExtractor()
    db = _build(extractor, auto_compaction, seed)
    assert all(set(table.secondary_columns) == set(ATTRIBUTES)
               for table in _tables(db))
    answers, blocks, calls = _run(db, extractor)
    assert calls == 0  # the column answered every value test
    assert sum(map(len, answers)) > 0
    db.close()

    for meta_blocks in (_zonemap_meta_blocks, _bloom_only_meta_blocks):
        monkeypatch.setattr(TableBuilder, "_secondary_meta_blocks",
                            meta_blocks)
        db = _build(extractor, auto_compaction, seed)
        tables = _tables(db)
        assert tables and not any(table.secondary_columns
                                  for table in tables)
        got, got_blocks, got_calls = _run(db, extractor)
        assert got == answers
        assert got_calls > 0  # no column: the scan parsed instead
        if meta_blocks is _zonemap_meta_blocks:
            # The legacy block's zone maps are the ones the column yields:
            # the same blocks are admitted and read.
            assert got_blocks == blocks
        else:
            assert got_blocks >= blocks
        db.close()
        monkeypatch.undo()


def test_records_parsed_never_exceed_heap_admissions(monkeypatch):
    """Admissions are counted on the heap each query's walk fills, wherever
    that heap was built (a LOOKUP's own, a RANGELOOKUP's caller's)."""
    added: dict[TopKBySeq, int] = {}  # keyed by the heap: no id reuse
    filled: list[TopKBySeq] = []
    add, query = TopKBySeq.add, EmbeddedIndex._query

    def counting_add(self, seq, item):
        added[self] = added.get(self, 0) + 1
        return add(self, seq, item)

    def recording_query(self, heap, *args):
        filled.append(heap)
        return query(self, heap, *args)

    monkeypatch.setattr(TopKBySeq, "add", counting_add)
    monkeypatch.setattr(EmbeddedIndex, "_query", recording_query)
    extractor = CountingExtractor()
    db = _build(extractor, True, 5)
    for index in db.indexes.values():
        index.records_parsed = 0
    _answers, _blocks, calls = _run(db, extractor)
    parsed = sum(index.probe_stats()["records_parsed"]
                 for index in db.indexes.values())
    admissions = sum(added.get(heap, 0)
                     for heap in {id(heap): heap for heap in filled}.values())
    assert calls == 0
    assert 0 < parsed <= admissions
    db.close()


def test_block_without_a_match_is_not_decoded(monkeypatch):
    """Blocks the filters admit are still read (the paper's I/O), but one
    whose column holds no value in range is never decoded."""
    from repro.lsm.block import Block

    decoded = 0
    materialize = Block._materialize_sort_keys

    def counting(self):
        nonlocal decoded
        decoded += 1
        return materialize(self)

    extractor = CountingExtractor()
    db = _build(extractor, True, 7)
    index = db.indexes["UserID"]
    monkeypatch.setattr(Block, "_materialize_sort_keys", counting)
    read_before = index.blocks_read
    # A range between two users' encodings: zone maps admit the blocks
    # spanning it, and no entry lies inside.
    assert db.range_lookup("UserID", "u3a", "u3z", k=None) == []
    assert index.blocks_read > read_before
    assert decoded == 0
    db.close()
