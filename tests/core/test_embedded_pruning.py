"""Embedded Index: the recency-pruned walk against the forward walk it replaced.

The production walk visits each level newest file first (by the manifest's
``max_seq``), stops a level at the first file the top-K heap can take nothing
from, and walks a file's blocks last to first.  All of that is filter
reordering, so its answers must equal — keys, sequence numbers, documents
and order — those of the un-pruned walk in primary-key order, kept here as
the reference.
"""

from __future__ import annotations

import random

import pytest

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind, LookupResult
from repro.core.database import SecondaryIndexedDB
from repro.core.embedded import EmbeddedIndex
from repro.core.records import decode_document, key_to_str
from repro.core.topk import TopKBySeq
from repro.lsm.bloom import bloom_may_contain
from repro.lsm.keys import (
    KIND_FOR_SEEK,
    KIND_VALUE,
    MAX_SEQUENCE,
    pack_internal_key,
    unpack_internal_key,
)
from repro.lsm.manifest import (
    manifest_file_name,
    read_current_manifest_number,
)
from repro.lsm.options import Options, resolve_attribute_path
from repro.lsm.version import VersionEdit
from repro.lsm.vfs import Category, MemoryVFS
from repro.lsm.wal import LogReader, LogWriter
from repro.lsm.zonemap import encode_attribute

ATTRIBUTES = ("UserID", "CreationTime")


# -- the reference: the forward, un-pruned walk -----------------------------------


def reference_lookup(index: EmbeddedIndex, value, k, early_termination):
    encoded = encode_attribute(value)
    heap: TopKBySeq[LookupResult] = TopKBySeq(k)
    with index.primary.read_view() as view:
        index._memtable_matches(heap, view, view.memtable_postings(
            index.attribute, encoded, encoded))
        return _reference_levels(index, view, heap, encoded, encoded, True,
                                 early_termination)


def reference_range_lookup(index: EmbeddedIndex, low, high, k,
                           early_termination):
    low_encoded, high_encoded = encode_attribute(low), encode_attribute(high)
    if low_encoded > high_encoded:
        return []
    heap: TopKBySeq[LookupResult] = TopKBySeq(k)
    with index.primary.read_view() as view:
        index._memtable_matches(heap, view, view.memtable_postings(
            index.attribute, low_encoded, high_encoded))
        return _reference_levels(index, view, heap, low_encoded,
                                 high_encoded, False, early_termination)


def _reference_levels(index, view, heap, low, high, use_blooms,
                      early_termination):
    """Every file of a level in primary-key order, every block first to last."""
    if early_termination and heap.is_full:
        return heap.results()
    version = view.version
    for level in range(index.primary.options.max_levels):
        for position, meta in enumerate(version.levels[level]):
            file_zone = meta.secondary_zonemaps.get(index.attribute)
            if file_zone is not None and not file_zone.overlaps(low, high):
                continue
            table = index.primary.table_cache.get(meta.file_number)
            blooms = table.secondary_filters.get(index.attribute, [])
            zonemaps = table.secondary_zonemaps.get(index.attribute, [])
            for block_index in range(table.num_data_blocks):
                if use_blooms and block_index < len(blooms) and not \
                        bloom_may_contain(blooms[block_index], low):
                    continue
                if block_index < len(zonemaps) and not \
                        zonemaps[block_index].overlaps(low, high):
                    continue
                _reference_block(index, view, heap, level, position, table,
                                 block_index, low, high)
        if early_termination and heap.is_full:
            break
    return heap.results()


def _reference_block(index, view, heap, level, position, table, block_index,
                     low, high):
    extractor = index.primary.options.attribute_extractor
    block = table.read_data_block(block_index, Category.DATA)
    seen_in_block: set[bytes] = set()
    for ikey_bytes, value in block:
        ikey = unpack_internal_key(ikey_bytes)
        if ikey.user_key in seen_in_block:
            continue
        seen_in_block.add(ikey.user_key)
        if ikey.kind != KIND_VALUE:
            continue
        attr_value = resolve_attribute_path(extractor(value), index.attribute)
        if attr_value is None or \
                not low <= encode_attribute(attr_value) <= high:
            continue
        if not heap.would_accept(ikey.seq):
            continue
        if not _newest_in_file(table, ikey.user_key, block_index):
            continue
        if not index._is_valid(view, ikey.user_key, ikey.seq, level,
                               position):
            continue
        heap.add(ikey.seq, LookupResult(key_to_str(ikey.user_key),
                                        decode_document(value), ikey.seq))


def _newest_in_file(table, key, block_index):
    """The key's first (newest) version in the file sits in this block: the
    first block that can hold the key does not precede it."""
    probe = pack_internal_key(key, MAX_SEQUENCE, KIND_FOR_SEEK)
    first_block = table._block_index_for(probe)
    return first_block is None or first_block >= block_index


def _answer(results):
    return [(r.key, r.seq, r.document) for r in results]


# -- (a) answer identity over seeded streams ----------------------------------------


def _small_options(auto_compaction: bool) -> Options:
    return Options(block_size=512, sstable_target_size=2 * 1024,
                   memtable_budget=2 * 1024, l1_target_size=8 * 1024,
                   disable_auto_compaction=not auto_compaction,
                   l0_stop_writes_trigger=10**6)


def _assert_identical(db: SecondaryIndexedDB, rng: random.Random,
                      clock: int) -> None:
    users = [f"u{rng.randrange(8)}" for _ in range(3)] + ["u-absent"]
    windows = [(start, start + rng.randrange(1, 80))
               for start in (rng.randrange(1000, clock + 1) for _ in range(3))]
    for k in (1, 5, None):
        for early in (True, False):
            index = db.indexes["UserID"]
            for user in users:
                assert _answer(db.lookup("UserID", user, k, early)) == \
                    _answer(reference_lookup(index, user, k, early))
            low, high = sorted(users[:2])
            assert _answer(db.range_lookup("UserID", low, high, k, early)) == \
                _answer(reference_range_lookup(index, low, high, k, early))
            index = db.indexes["CreationTime"]
            assert _answer(db.lookup("CreationTime", windows[0][0], k,
                                     early)) == \
                _answer(reference_lookup(index, windows[0][0], k, early))
            for low, high in windows:
                assert _answer(db.range_lookup("CreationTime", low, high, k,
                                               early)) == \
                    _answer(reference_range_lookup(index, low, high, k,
                                                   early))


@pytest.mark.parametrize("auto_compaction", [True, False],
                         ids=["leveled", "l0-overlap"])
@pytest.mark.parametrize("seed", range(6))
def test_answers_identical_to_forward_walk(seed, auto_compaction):
    """Inserts, updates, deletes, flushes and manual compactions, checked
    mid-stream (MemTable populated) and at the end.  Without automatic
    compaction the updates pile up as overlapping level-0 files."""
    rng = random.Random(seed)
    db = SecondaryIndexedDB.open_memory(
        indexes={attr: IndexKind.EMBEDDED for attr in ATTRIBUTES},
        options=_small_options(auto_compaction))
    live: list[str] = []
    next_id = 0
    clock = 1000
    l0_files_checked = 0
    for step in range(1, 501):
        clock += 1
        roll = rng.random()
        if roll < 0.55 or not live:
            if rng.random() < 0.8:
                key, next_id = f"t{next_id:05d}", next_id + 1
            else:  # out of insert order
                key = f"t{rng.randrange(10**5):05d}x"
            if key not in live:
                live.append(key)
            db.put(key, {"UserID": f"u{rng.randrange(8)}",
                         "CreationTime": clock, "Body": "b" * 30})
        elif roll < 0.82:
            db.put(rng.choice(live), {"UserID": f"u{rng.randrange(8)}",
                                      "CreationTime": clock, "Body": "c" * 30})
        elif roll < 0.92:
            db.delete(live.pop(rng.randrange(len(live))))
        elif roll < 0.98:
            db.flush()
        else:
            db.primary.compact_range()
        if step % 125 == 0:
            _assert_identical(db, rng, clock)
            l0_files_checked = max(l0_files_checked,
                                   db.primary.versions.current.num_files(0))
    if not auto_compaction:
        assert l0_files_checked >= 2
    assert sum(index.files_seq_pruned for index in db.indexes.values()) > 0
    db.close()


# -- (b) the adversarial layout -------------------------------------------------------


def test_updated_deep_file_is_visited_first_and_never_skipped(index_options):
    """Updates give the level's *first* file in key order — the oldest one
    on an insert-ordered table — the level's highest ``max_seq``.  Ordering
    by ``max_seq`` (not by position) visits it first; K=None never prunes."""
    db = open_db(IndexKind.EMBEDDED, index_options)
    load_tweets(db, 400, users=10)
    db.primary.compact_range()
    for i in range(3):
        db.put(f"t{i:05d}", {"UserID": "u3", "CreationTime": 9000 + i,
                             "Body": "b" * 40})
    db.primary.compact_range()
    version = db.primary.versions.current
    level = version.deepest_nonempty_level()
    files = version.levels[level]
    assert version.num_nonempty_levels() == 1 and len(files) >= 3
    assert max(files, key=lambda meta: meta.max_seq) is files[0]
    assert version.by_recency[level][0] == (0, files[0])

    index = db.indexes["UserID"]
    visited: list[int] = []
    scan_file = index._scan_file

    def spy(heap, view, level, position, meta, *rest):
        visited.append(meta.file_number)
        return scan_file(heap, view, level, position, meta, *rest)

    index._scan_file = spy
    index.files_seq_pruned = 0
    assert [r.key for r in db.lookup("UserID", "u3", k=1)] == ["t00002"]
    assert visited == [files[0].file_number]
    assert index.files_seq_pruned == len(files) - 1

    visited.clear()
    index.files_seq_pruned = 0
    everything = db.lookup("UserID", "u3", k=None)
    assert index.files_seq_pruned == 0
    assert sorted(visited) == sorted(meta.file_number for meta in files)
    assert _answer(everything) == \
        _answer(reference_lookup(index, "u3", None, True))
    assert [r.key for r in everything[:3]] == ["t00002", "t00001", "t00000"]
    db.close()


# -- (c) counts on the metered VFS ----------------------------------------------------


def _data_blocks_read(db: SecondaryIndexedDB) -> int:
    return db.primary.vfs.stats.reads_by_category.get(Category.DATA.value, 0)


def _getlite_probes(db: SecondaryIndexedDB) -> int:
    return db.checker.getlite_memory_only + db.checker.getlite_confirm_reads


def test_insert_ordered_lookup_reads_fewer_blocks_and_validates_less():
    options = Options(block_size=2048, sstable_target_size=16 * 1024,
                      memtable_budget=16 * 1024, l1_target_size=64 * 1024)
    db = open_db(IndexKind.EMBEDDED, options)
    load_tweets(db, 3000, users=60)
    db.flush()
    index = db.indexes["UserID"]
    users = [f"u{n}" for n in range(0, 60, 3)]

    blocks, probes = _data_blocks_read(db), _getlite_probes(db)
    returned = sum(len(db.lookup("UserID", user, k=10)) for user in users)
    pruned_blocks = _data_blocks_read(db) - blocks
    pruned_probes = _getlite_probes(db) - probes

    blocks = _data_blocks_read(db)
    reference = sum(len(reference_lookup(index, user, 10, True))
                    for user in users)
    reference_blocks = _data_blocks_read(db) - blocks

    assert returned == reference == 10 * len(users)
    assert pruned_blocks < reference_blocks
    assert pruned_probes / returned <= 1.3
    # Recency pruning has its own counter; ``files_pruned`` stays zone-map-only.
    index.use_file_zonemaps = False
    index.files_pruned = index.files_seq_pruned = 0
    db.lookup("UserID", "u3", k=10)
    stats = index.probe_stats()
    assert stats["files_seq_pruned"] > 0 and stats["files_pruned"] == 0
    db.close()


# -- soundness: an unknown max_seq is unbounded, never zero --------------------------


def _drop_max_seq_from_manifest(vfs: MemoryVFS, db_name: str) -> None:
    """Rewrite the manifest as a writer that never recorded ``max_seq``."""
    name = manifest_file_name(
        db_name, read_current_manifest_number(vfs, db_name))
    edits = [VersionEdit.decode(payload)
             for payload in LogReader(vfs.open_random(name))]
    writer = LogWriter(vfs.create(name))
    for edit in edits:
        for _level, meta in edit.new_files:
            meta.max_seq = 0  # what from_json reads for a missing field
        writer.add_record(edit.encode().replace(b'"max_seq":0,', b""))
    writer.close()


def test_file_without_recorded_max_seq_is_never_pruned(index_options):
    indexes = {"UserID": IndexKind.EMBEDDED}
    vfs = MemoryVFS()
    db = SecondaryIndexedDB.open(vfs, "data", indexes, index_options)
    load_tweets(db, 300, users=10)
    db.flush()
    expected = _answer(db.lookup("UserID", "u4", k=3))
    assert len(expected) == 3
    db.close()

    _drop_max_seq_from_manifest(vfs, "data/primary")
    db = SecondaryIndexedDB.open(vfs, "data", indexes, index_options)
    metas = [meta for _level, meta in db.primary.versions.current.all_files()]
    assert metas and all(meta.max_seq == 0 for meta in metas)
    index = db.indexes["UserID"]
    assert _answer(db.lookup("UserID", "u4", k=3)) == expected
    assert len(db.lookup("UserID", "u4", k=None)) == 30
    assert index.files_seq_pruned == 0
    db.close()
