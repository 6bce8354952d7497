"""The Lazy LOOKUP reads a level only if the heap could still take a
posting of it, and the index rebuild keeps the order that rule rests on.

Counts come from the index table's own metered VFS and from the files
its table cache hands out; every deeper level of a key holds only older
postings of it, so a walk whose heap refuses everything older than the
level it just harvested never reads the levels below.
"""

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind, LookupResult
from repro.core.database import SecondaryIndexedDB
from repro.core.topk import TopKBySeq
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute

K = 3


def _lazy_with_deep_history(index_options):
    """u1's postings compacted into the last level, then ``K`` newer ones
    left in the index table's MemTable."""
    db = open_db(IndexKind.LAZY, index_options)
    load_tweets(db, 400, users=4)
    db.compact_all()
    db.flush()
    for i in range(K):
        db.put(f"new{i}", {"UserID": "u1"})
    return db


def _files_read(index_db, run):
    """Numbers of the tables ``run`` asked the table cache for."""
    table_cache = index_db.table_cache
    opened = []
    get = table_cache.get

    def recording_get(file_number):
        opened.append(file_number)
        return get(file_number)

    table_cache.get = recording_get
    try:
        run()
    finally:
        del table_cache.get
    return opened


class TestLevelWalkReads:
    def test_memtable_answer_reads_no_index_block(self, index_options):
        db = _lazy_with_deep_history(index_options)
        index_db = db.indexes["UserID"].index_db
        db.lookup("UserID", "u1", K, early_termination=False)  # open tables
        before = index_db.vfs.stats.read_blocks
        results = db.lookup("UserID", "u1", K)
        assert [r.key for r in results] == [f"new{i}" for i in (2, 1, 0)]
        assert index_db.vfs.stats.read_blocks == before
        db.close()

    def test_level0_answer_reads_nothing_deeper(self, index_options):
        db = _lazy_with_deep_history(index_options)
        db.flush()  # the K new postings become the one level-0 table
        index = db.indexes["UserID"]
        version = index.index_db.versions.current
        level0 = {meta.file_number for meta in version.levels[0]}
        assert len(level0) == 1 and sum(
            len(files) for files in version.levels) > 1
        db.lookup("UserID", "u1", K, early_termination=False)
        index.levels_visited = 0
        opened = _files_read(index.index_db,
                             lambda: db.lookup("UserID", "u1", K))
        assert opened and set(opened) <= level0
        assert index.levels_visited == 1
        db.close()

    def test_exhaustive_walk_still_reads_every_level(self, index_options):
        db = _lazy_with_deep_history(index_options)
        db.flush()
        index = db.indexes["UserID"]
        version = index.index_db.versions.current
        key = encode_attribute("u1")
        holding = {meta.file_number for files in version.levels
                   for meta in files if meta.contains_user_key(key)}
        opened = _files_read(
            index.index_db,
            lambda: db.lookup("UserID", "u1", K, early_termination=False))
        assert set(opened) == holding and len(holding) > 1
        db.close()

    def test_full_shared_heap_stops_after_the_first_level(self,
                                                           index_options):
        """A heap that other stores filled with newer results refuses the
        first level's postings: no GET, and no second level."""
        db = _lazy_with_deep_history(index_options)
        index = db.indexes["UserID"]
        heap = TopKBySeq(K)
        newest = db.primary.versions.last_sequence
        for n in range(K):
            seq = newest + 100 + n
            heap.add(seq, LookupResult(f"elsewhere{n}", {}, seq))
        gets = db.checker.validation_gets
        index.levels_visited = 0
        db.lookup_into("UserID", "u1", heap)
        assert db.checker.validation_gets == gets
        assert index.levels_visited == 1
        assert [r.key for r in heap.results()] == [
            f"elsewhere{n}" for n in (2, 1, 0)]
        db.close()


class TestWalkReleasesItsView:
    def _pipeline_db(self):
        options = Options(block_size=512, memtable_budget=2 * 1024,
                          sstable_target_size=2 * 1024,
                          background_compaction=True)
        return SecondaryIndexedDB.open_memory(
            indexes={"UserID": IndexKind.LAZY}, options=options)

    def test_abandoned_walk_leaves_no_pinned_version(self):
        db = self._pipeline_db()
        load_tweets(db, 300, users=4)
        db.flush()
        index_db = db.indexes["UserID"].index_db
        walk = index_db.fragments_by_level(encode_attribute("u1"))
        next(walk)
        assert index_db._version_pins
        del walk
        assert index_db._version_pins == {}
        db.lookup("UserID", "u1", 1)
        assert index_db._version_pins == {}
        db.close()


def _descending_keys(db, count=300, users=4):
    """Keys descend while sequences ascend: key order is the reverse of
    write order."""
    for i in reversed(range(count)):
        db.put(f"k{i:05d}", {"UserID": f"u{i % users}"})


def test_rebuilt_lazy_index_answers_like_the_exhaustive_walk():
    """A rebuild in key order put the newest postings deepest here: K=1
    answered ``k00203`` for u3, whose newest record is ``k00003``."""
    options = Options(block_size=512, sstable_target_size=2 * 1024,
                      memtable_budget=2 * 1024, l1_target_size=2 * 1024)
    db = SecondaryIndexedDB.open_memory(indexes={"UserID": IndexKind.LAZY},
                                        options=options)
    _descending_keys(db, users=100)
    db.rebuild_index("UserID")
    assert sum(count > 0 for count
               in db.indexes["UserID"].index_db.level_file_counts()) > 1
    for user in range(0, 100, 7):
        value = f"u{user}"
        for k in (1, 5):
            want = db.lookup("UserID", value, k, early_termination=False)
            assert [r.key for r in want][0] == f"k{user:05d}"
            assert db.lookup("UserID", value, k) == want, (value, k)
    db.close()


def test_rebuild_replays_in_sequence_order():
    db = SecondaryIndexedDB.open_memory(indexes={"UserID": IndexKind.LAZY})
    _descending_keys(db, count=20)
    index = db.indexes["UserID"]
    replayed = []
    apply_put = index.apply_put
    index.apply_put = lambda key, document, seq: (
        replayed.append(seq), apply_put(key, document, seq))
    assert db.rebuild_index("UserID") == 20
    assert replayed == sorted(replayed)
    db.close()


def test_fragments_by_level_reads_a_level_when_asked():
    db = DB.open_memory(Options())
    db.put(b"k", b"deep")
    db.flush()
    db.put(b"k", b"shallow")
    walk = db.fragments_by_level(b"k")
    before = db.vfs.stats.read_blocks
    level, entries = next(walk)
    assert (level, entries[0][2]) == (-1, b"shallow")
    assert db.vfs.stats.read_blocks == before
    level, entries = next(walk)
    assert (level, entries[0][2]) == (0, b"deep")
    assert db.vfs.stats.read_blocks > before
    walk.close()
    db.close()
