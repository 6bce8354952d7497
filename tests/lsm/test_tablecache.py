"""Table cache: memoization, eviction, block-cache wiring."""

from repro.lsm.compression import NoCompression
from repro.lsm.keys import KIND_VALUE, pack_internal_key
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder
from repro.lsm.tablecache import TableCache
from repro.lsm.vfs import MemoryVFS


def _write_table(vfs, number, count=50):
    options = Options(block_size=512, compression="none")
    out = vfs.create(table_file_name("db", number))
    builder = TableBuilder(options, out, NoCompression())
    for i in range(count):
        builder.add(pack_internal_key(f"k{i:03d}".encode(), 1, KIND_VALUE),
                    b"v")
    builder.finish()
    out.close()


class TestTableCache:
    def test_open_is_memoized(self):
        vfs = MemoryVFS()
        _write_table(vfs, 1)
        cache = TableCache(vfs, "db", Options(block_size=512))
        first = cache.get(1)
        reads_after_open = vfs.stats.read_blocks
        second = cache.get(1)
        assert first is second
        assert vfs.stats.read_blocks == reads_after_open  # no re-open I/O
        assert len(cache) == 1
        cache.close()

    def test_eviction_respects_capacity(self):
        vfs = MemoryVFS()
        for number in range(1, 6):
            _write_table(vfs, number)
        cache = TableCache(vfs, "db", Options(block_size=512),
                           max_open_files=3)
        for number in range(1, 6):
            cache.get(number)
        assert len(cache) == 3
        # Least-recently-used tables (1 and 2) were evicted; re-opening
        # works transparently.
        table = cache.get(1)
        assert table.num_data_blocks > 0
        cache.close()

    def test_explicit_evict(self):
        vfs = MemoryVFS()
        _write_table(vfs, 1)
        cache = TableCache(vfs, "db", Options(block_size=512))
        cache.get(1)
        cache.evict(1)
        assert len(cache) == 0
        cache.evict(1)  # idempotent
        cache.close()

    def test_block_cache_shared_across_tables(self):
        vfs = MemoryVFS()
        _write_table(vfs, 1)
        _write_table(vfs, 2)
        options = Options(block_size=512, block_cache_size=64 * 1024)
        cache = TableCache(vfs, "db", options)
        assert cache.block_cache is not None
        table1 = cache.get(1)
        table2 = cache.get(2)
        assert table1._block_cache is cache.block_cache
        assert table2._block_cache is cache.block_cache
        table1.read_data_block(0)
        table1.read_data_block(0)
        assert cache.block_cache.hits >= 1
        cache.close()

    def test_no_block_cache_by_default(self):
        vfs = MemoryVFS()
        _write_table(vfs, 1)
        cache = TableCache(vfs, "db", Options(block_size=512))
        assert cache.block_cache is None
        assert cache.get(1)._block_cache is None
        cache.close()

    def test_stats_counters(self):
        vfs = MemoryVFS()
        for number in range(1, 4):
            _write_table(vfs, number)
        cache = TableCache(vfs, "db", Options(block_size=512),
                           max_open_files=2)
        cache.get(1)
        cache.get(2)
        cache.get(1)  # hit — moves table 1 to the most-recent end
        cache.get(3)  # miss — evicts table 2, the least recently used
        assert cache.stats() == {"open_tables": 2, "max_open_files": 2,
                                 "hits": 1, "misses": 3, "evictions": 1}
        assert sorted(cache._tables) == [1, 3]
        cache.close()

    def test_bound_defaults_to_options(self):
        vfs = MemoryVFS()
        cache = TableCache(vfs, "db",
                           Options(block_size=512, max_open_files=7))
        assert cache.max_open_files == 7
        cache.close()


def _db(**overrides):
    from repro.lsm.db import DB

    options = dict(block_size=512, memtable_budget=1 << 20,
                   sstable_target_size=2048, compression="none",
                   block_cache_size=1 << 20, disable_auto_compaction=True)
    options.update(overrides)
    db = DB.open(MemoryVFS(), "db", Options(**options))
    keys = [f"key{i:04d}".encode() for i in range(300)]
    for round_ in range(2):  # two overlapping runs: a merge, not a move
        for key in keys:
            db.put(key, b"value-%d-" % round_ + key)
        db.flush()
    return db, keys


def _cached_tables(db) -> set[int]:
    return {number for number, _offset in db.table_cache.block_cache._entries}


class TestBlockCacheLifecycle:
    """The block cache holds live tables' blocks only."""

    def test_compaction_reads_do_not_fill_the_cache(self):
        db, _keys = _db(background_compaction=True)
        assert len(db.table_cache.block_cache) == 0
        with db.read_view():  # keeps the inputs on disk through the merge
            db.compact_range()
            assert db._zombie_tables
            assert len(db.table_cache.block_cache) == 0
        db.close()

    def test_compaction_leaves_no_input_block_cached(self):
        db, keys = _db()
        inputs = db.versions.current.live_file_numbers()
        for key in keys:
            db.get(key)
        assert _cached_tables(db) & inputs
        db.compact_range()
        live = db.versions.current.live_file_numbers()
        assert inputs - live, "the drill needs retired inputs"
        assert _cached_tables(db) <= live
        for key in keys:  # the live tables still fill it
            assert db.get(key) == b"value-1-" + key
        assert _cached_tables(db) and _cached_tables(db) <= live
        db.close()

    def test_a_pinned_retired_table_keeps_its_blocks_until_deleted(self):
        db, keys = _db(background_compaction=True)
        for key in keys:
            db.get(key)
        view = db.read_view()
        try:
            pinned = set(view.version.live_file_numbers())
            assert _cached_tables(db) & pinned
            db.compact_range()
            retired = pinned - db.versions.current.live_file_numbers()
            assert retired and retired <= db._zombie_tables
            assert _cached_tables(db) & retired  # the view still reads them
        finally:
            view.release()
        assert not db._zombie_tables
        assert not _cached_tables(db) & retired
        db.close()

    def test_a_cache_off_db_never_builds_search_arrays(self, monkeypatch):
        from repro.lsm.block import Block

        built = []
        make_searchable = Block.make_searchable

        def counting(self):
            built.append(self)
            make_searchable(self)

        monkeypatch.setattr(Block, "make_searchable", counting)
        db, keys = _db(block_cache_size=0)
        reads = db.vfs.stats.read_blocks
        # One batch: keys sharing a block reuse it through ``held``.
        answers = db.get_many_with_seq(keys)
        assert all(answer is not None for answer in answers.values())
        assert db.vfs.stats.read_blocks - reads < len(keys)
        for key in keys[:20]:
            db.get(key)
        assert built == []
        db.close()
        # With the cache on, a block served a second time is searchable.
        db, keys = _db()
        db.get_many_with_seq(keys)
        assert built == []  # each block read once: held, not re-served
        db.get(keys[0])
        assert built
        db.close()

    def test_stats_count_the_cached_blocks(self):
        db, keys = _db()
        assert db.stats()["block_cache"]["blocks"] == 0
        for key in keys:
            db.get(key)
        blocks = db.stats()["block_cache"]["blocks"]
        assert blocks == len(db.table_cache.block_cache) > 0
        assert f"blocks: {blocks}" in db.debug_string()
        db.close()
