"""The DB facade: basic operations, scans, probes, recovery, snapshots."""

import gc
import json
import weakref

import pytest

from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import DBClosedError, InvalidArgumentError
from repro.lsm.keys import KIND_MERGE, KIND_VALUE
from repro.lsm.options import Options
from repro.lsm.vfs import Category, LocalVFS, MemoryVFS


def _leaves(tree):
    """(key, value) of every leaf of a stats tree; an empty dict is a leaf."""
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value)
        else:
            yield key, value


def _options(**overrides):
    base = dict(block_size=1024, sstable_target_size=4 * 1024,
                memtable_budget=4 * 1024, l1_target_size=16 * 1024)
    base.update(overrides)
    trigger = base.get("l0_compaction_trigger", 4)
    base.setdefault("l0_stop_writes_trigger", max(12, trigger * 3))
    return Options(**base)


class TestBasicOps:
    def test_put_get(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        db.close()

    def test_get_missing(self):
        db = DB.open_memory(_options())
        assert db.get(b"missing") is None
        db.close()

    def test_overwrite(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        db.close()

    def test_delete(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None
        db.close()

    def test_delete_missing_is_fine(self):
        db = DB.open_memory(_options())
        db.delete(b"never-there")
        assert db.get(b"never-there") is None
        db.close()

    def test_get_with_seq(self):
        db = DB.open_memory(_options())
        db.put(b"a", b"1")
        db.put(b"k", b"v")
        value, seq = db.get_with_seq(b"k")
        assert value == b"v"
        assert seq == db.versions.last_sequence

    def test_values_survive_flush(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v")
        db.flush()
        assert db.get(b"k") == b"v"
        assert db.memtable.is_empty()
        db.close()

    def test_empty_value(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"")
        assert db.get(b"k") == b""
        db.flush()
        assert db.get(b"k") == b""

    def test_closed_db_rejects_operations(self):
        db = DB.open_memory(_options())
        db.close()
        with pytest.raises(DBClosedError):
            db.put(b"k", b"v")
        with pytest.raises(DBClosedError):
            db.get(b"k")
        db.close()  # idempotent

    def test_context_manager(self):
        with DB.open_memory(_options()) as db:
            db.put(b"k", b"v")
        with pytest.raises(DBClosedError):
            db.get(b"k")

    def test_merge_requires_operator(self):
        db = DB.open_memory(_options())
        with pytest.raises(InvalidArgumentError):
            db.merge(b"k", b"operand")
        db.close()


class TestWriteBatch:
    def test_atomic_batch(self):
        db = DB.open_memory(_options())
        batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"
        db.close()

    def test_batch_sequence_numbers_consecutive(self):
        db = DB.open_memory(_options())
        before = db.versions.last_sequence
        last = db.write(WriteBatch().put(b"a", b"1").put(b"b", b"2"))
        assert last == before + 2

    def test_empty_batch(self):
        db = DB.open_memory(_options())
        before = db.versions.last_sequence
        assert db.write(WriteBatch()) == before

    def test_write_at_a_fixed_sequence(self):
        drawn = []
        db = DB.open_memory(_options(
            sequence_oracle=lambda count: drawn.append(count) or 100))
        assert db.write(WriteBatch().put(b"a", b"1").put(b"b", b"2"),
                        seq=10) == 11
        assert drawn == []  # a fixed sequence draws none
        assert db.get_with_seq(b"b") == (b"2", 11)
        with pytest.raises(InvalidArgumentError, match="went backwards"):
            db.write(WriteBatch().put(b"c", b"3"), seq=11)
        assert db.get(b"c") is None
        assert db.put(b"c", b"3") == 100
        assert drawn == [1]
        db.close()

    def test_encode_decode_roundtrip(self):
        batch = WriteBatch().put(b"k", b"v").delete(b"d").merge(b"m", b"o")
        decoded, seq = WriteBatch.decode(batch.encode(41))
        assert seq == 41
        assert decoded.ops == batch.ops


class TestScans:
    def _loaded(self):
        db = DB.open_memory(_options())
        for i in range(500):
            db.put(f"k{i:04d}".encode(), str(i).encode())
        for i in range(0, 500, 5):
            db.delete(f"k{i:04d}".encode())
        return db

    def test_full_scan_matches_oracle(self):
        db = self._loaded()
        got = dict(db.scan())
        want = {f"k{i:04d}".encode(): str(i).encode()
                for i in range(500) if i % 5 != 0}
        assert got == want
        db.close()

    def test_bounded_scan(self):
        db = self._loaded()
        got = [k for k, _v in db.scan(b"k0100", b"k0110")]
        want = [f"k{i:04d}".encode() for i in range(100, 111) if i % 5 != 0]
        assert got == want
        db.close()

    def test_scan_is_sorted(self):
        db = self._loaded()
        keys = [k for k, _v in db.scan()]
        assert keys == sorted(keys)
        db.close()

    def test_scan_with_seq_reports_write_order(self):
        db = DB.open_memory(_options())
        db.put(b"b", b"2")
        db.put(b"a", b"1")
        rows = list(db.scan_with_seq())
        assert rows[0][0] == b"a" and rows[1][0] == b"b"
        assert rows[0][2] > rows[1][2]  # "a" was written later
        db.close()

    def test_scan_level_raw_versions(self):
        db = DB.open_memory(_options(memtable_budget=100 * 1024))
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        entries = list(db.scan_level(-1))
        assert [(ik.user_key, v) for ik, v in entries] == \
            [(b"k", b"v2"), (b"k", b"v1")]
        db.close()

    @pytest.mark.parametrize("lo", [None, b"k0100"], ids=["unbounded",
                                                          "bounded"])
    def test_scan_level_charges_reads_to_its_category(self, lo):
        db = DB.open_memory(_options())
        for i in range(300):
            db.put(f"k{i:04d}".encode(), b"x" * 60)
        db.flush()
        level = next(level for level, count
                     in enumerate(db.level_file_counts()) if count)
        before = db.vfs.stats.snapshot()
        rows = list(db.scan_level(level, lo, category=Category.INDEX))
        charged = db.vfs.stats.delta(before).reads_by_category
        assert rows and charged.get("index", 0) > 0
        assert "data" not in charged
        db.close()


class TestProbes:
    def test_fragments_by_level(self):
        db = DB.open_memory(_options(l0_compaction_trigger=100))
        db.put(b"k", b"deep")
        for i in range(400):
            db.put(f"fill{i:05d}".encode(), b"x" * 60)
        db.flush()
        db.put(b"k", b"shallow")
        frags = list(db.fragments_by_level(b"k"))
        levels = [level for level, _entries in frags]
        assert levels[0] == -1  # memtable first
        values = [entries[0][2] for _level, entries in frags]
        assert values[0] == b"shallow"
        assert b"deep" in values
        db.close()

    def test_key_maybe_in_levels_memtable(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v")
        assert db.key_maybe_in_levels(b"k", 0)
        assert not db.key_maybe_in_levels(b"nope", 5)
        db.close()

    def test_key_maybe_in_levels_is_free_once_metadata_loaded(self):
        db = DB.open_memory(_options())
        for i in range(800):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        # First pass warms the table cache (footer/index/filter blocks are
        # read once per file and then stay memory-resident, as in the paper).
        for i in range(0, 800, 7):
            db.key_maybe_in_levels(f"k{i:05d}".encode(), 7)
        before = db.vfs.stats.read_blocks
        for i in range(0, 800, 7):
            db.key_maybe_in_levels(f"k{i:05d}".encode(), 7)
        assert db.vfs.stats.read_blocks == before
        db.close()


class TestRecovery:
    def test_reopen_from_memtable_only(self):
        vfs = MemoryVFS()
        db = DB.open(vfs, "db", _options())
        db.put(b"k", b"v")  # never flushed
        db.close()
        db2 = DB.open(vfs, "db", _options())
        assert db2.get(b"k") == b"v"
        db2.close()

    def test_reopen_after_flush_and_compaction(self):
        vfs = MemoryVFS()
        db = DB.open(vfs, "db", _options())
        for i in range(1000):
            db.put(f"k{i:05d}".encode(), str(i).encode())
        db.close()
        db2 = DB.open(vfs, "db", _options())
        assert len(dict(db2.scan())) == 1000
        assert db2.get(b"k00123") == b"123"
        db2.close()

    def test_sequence_numbers_continue_after_reopen(self):
        vfs = MemoryVFS()
        db = DB.open(vfs, "db", _options())
        db.put(b"a", b"1")
        last = db.versions.last_sequence
        db.close()
        db2 = DB.open(vfs, "db", _options())
        db2.put(b"b", b"2")
        assert db2.versions.last_sequence > last
        db2.close()

    def test_deletions_survive_reopen(self):
        vfs = MemoryVFS()
        db = DB.open(vfs, "db", _options())
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        db.close()
        db2 = DB.open(vfs, "db", _options())
        assert db2.get(b"k") is None
        db2.close()

    def test_obsolete_files_removed_on_open(self):
        vfs = MemoryVFS()
        db = DB.open(vfs, "db", _options())
        for i in range(800):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.close()
        vfs.write_whole("db/999999.ldb", b"orphan")
        db2 = DB.open(vfs, "db", _options())
        assert not vfs.exists("db/999999.ldb")
        db2.close()

    def test_crash_without_close_preserves_flushed_data(self, tmp_path):
        """Simulated crash: handles never closed, nothing flushed from the
        Python buffers except what the engine fsyncs itself.  The manifest
        must be durable on its own, or recovery garbage-collects live
        tables (regression test for exactly that bug)."""
        vfs = LocalVFS(str(tmp_path))
        db = DB.open(vfs, "db", _options(sync_writes=True))
        for i in range(600):
            db.put(f"k{i:05d}".encode(), str(i).encode())
        db.flush()
        db.put(b"wal-only", b"tail")
        # No close(): a second handle opens the same directory while the
        # first still holds its buffered file objects.
        db2 = DB.open(LocalVFS(str(tmp_path)), "db",
                      _options(sync_writes=True))
        assert db2.get(b"k00042") == b"42"
        assert db2.get(b"wal-only") == b"tail"
        assert len(dict(db2.scan())) == 601
        db2.close()

    def test_local_vfs_roundtrip(self, tmp_path):
        vfs = LocalVFS(str(tmp_path))
        db = DB.open(vfs, "db", _options())
        for i in range(300):
            db.put(f"k{i:04d}".encode(), str(i).encode())
        db.close()
        vfs2 = LocalVFS(str(tmp_path))
        db2 = DB.open(vfs2, "db", _options())
        assert db2.get(b"k0042") == b"42"
        assert len(dict(db2.scan())) == 300
        db2.close()


class TestSnapshots:
    def test_snapshot_isolation(self):
        db = DB.open_memory(_options())
        db.put(b"k", b"v1")
        with db.snapshot() as snap:
            db.put(b"k", b"v2")
            db.delete(b"k")
            assert db.get(b"k") is None
            assert db.get(b"k", snap) == b"v1"
        db.close()

    def test_snapshot_scan(self):
        db = DB.open_memory(_options())
        db.put(b"a", b"1")
        snap = db.snapshot()
        db.put(b"b", b"2")
        assert dict(db.scan(snapshot=snap)) == {b"a": b"1"}
        assert dict(db.scan()) == {b"a": b"1", b"b": b"2"}
        snap.release()
        db.close()

    def test_oldest_snapshot_tracking(self):
        db = DB.open_memory(_options())
        db.put(b"a", b"1")
        s1 = db.snapshot()
        db.put(b"b", b"2")
        s2 = db.snapshot()
        assert db._oldest_snapshot_seq() == s1.seq
        s1.release()
        assert db._oldest_snapshot_seq() == s2.seq
        s2.release()
        db.close()


class TestMergeOperator:
    @staticmethod
    def _union(key, operands):
        merged = []
        for operand in operands:
            merged.extend(json.loads(operand))
        return json.dumps(merged).encode()

    def test_merge_visible_through_get_and_scan(self):
        db = DB.open_memory(_options(merge_operator=TestMergeOperator._union))
        db.merge(b"k", b"[1]")
        db.merge(b"k", b"[2]")
        assert json.loads(db.get(b"k")) == [1, 2]
        assert json.loads(dict(db.scan())[b"k"]) == [1, 2]
        db.close()

    def test_merge_onto_value_base(self):
        db = DB.open_memory(_options(merge_operator=TestMergeOperator._union))
        db.put(b"k", b"[0]")
        db.merge(b"k", b"[1]")
        assert json.loads(db.get(b"k")) == [0, 1]
        db.close()

    def test_merge_after_delete_restarts(self):
        db = DB.open_memory(_options(merge_operator=TestMergeOperator._union))
        db.put(b"k", b"[0]")
        db.delete(b"k")
        db.merge(b"k", b"[7]")
        assert json.loads(db.get(b"k")) == [7]
        db.close()

    def test_fragments_report_merge_kind(self):
        db = DB.open_memory(_options(merge_operator=TestMergeOperator._union,
                                     memtable_budget=64 * 1024))
        db.merge(b"k", b"[1]")
        frags = list(db.fragments_by_level(b"k"))
        assert frags[0][1][0][0] == KIND_MERGE
        db.close()


class TestIntrospection:
    def test_approximate_size_grows(self):
        db = DB.open_memory(_options())
        initial = db.approximate_size()
        for i in range(500):
            db.put(f"k{i:05d}".encode(), b"x" * 100)
        db.flush()
        assert db.approximate_size() > initial
        db.close()

    def test_num_nonempty_levels(self):
        db = DB.open_memory(_options())
        assert db.num_nonempty_levels() == 0
        db.put(b"k", b"v")
        assert db.num_nonempty_levels() == 1  # memtable counts
        db.flush()
        assert db.num_nonempty_levels() == 1  # now one disk level
        db.close()

    def test_stats_snapshot(self):
        db = DB.open_memory(_options())
        for i in range(300):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        for i in range(0, 300, 5):
            db.get(f"k{i:05d}".encode())
        stats = db.stats()
        assert stats["last_sequence"] == 300
        assert stats["memtable_entries"] == 0  # just flushed
        assert len(stats["levels"]) == db.options.max_levels
        assert sum(stats["levels"]) >= 1
        assert stats["compaction"]["flush_count"] >= 1
        assert stats["table_cache"]["open_tables"] >= 1
        assert stats["table_cache"]["hits"] > 0
        assert stats["block_cache"] is None  # off by default
        assert stats["io"]["read_blocks"] > 0
        assert stats["io"]["write_blocks"] > 0
        json.dumps(stats)  # the whole report is JSON-serializable
        # debug_string() renders this one tree: a line per leaf, by key.
        lines = {line.strip() for line in db.debug_string().splitlines()}
        for key, value in _leaves(stats):
            assert f"{key}: {value}" in lines
        db.close()

    def test_stats_reports_block_cache(self):
        db = DB.open_memory(_options(block_cache_size=32 * 1024))
        for i in range(100):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        db.get(b"k00050")
        db.get(b"k00050")
        cache_stats = db.stats()["block_cache"]
        assert cache_stats is not None
        assert cache_stats["capacity_bytes"] == 32 * 1024
        assert cache_stats["hits"] >= 1
        db.close()

    def test_close_releases_the_block_cache(self):
        """A DB sits in a reference cycle (its compactor holds its bound
        methods); the cache must not wait for the cyclic collector."""
        gc.disable()
        try:
            db = DB.open_memory(_options(block_cache_size=32 * 1024))
            for i in range(100):
                db.put(f"k{i:05d}".encode(), b"x" * 60)
            db.flush()
            assert db.get(b"k00050") == b"x" * 60
            cache = weakref.ref(db.table_cache.block_cache)
            assert cache().stats()["used_bytes"] > 0
            db.close()
            assert db.table_cache.block_cache is None
            assert cache() is None
        finally:
            gc.enable()

    def test_pipeline_gauges_inline_mode(self):
        db = DB.open_memory(_options())
        for i in range(100):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        pipe = db.stats()["pipeline"]
        assert pipe["background"] is False
        assert pipe["imm_pending"] == 0  # inline flush never leaves one
        assert pipe["compaction_queue_depth"] >= 0
        # Every write goes through the writer queue: 100 lone PUTs are 100
        # groups of one, and the stall ladder never engages.
        assert pipe["stall_events"] == 0
        assert pipe["slowdown_events"] == 0
        assert pipe["write_groups"] == 100
        assert pipe["group_commit_batches"] == 100
        assert pipe["max_group_batches"] == 1
        assert pipe["bg_flushes"] == 0
        assert pipe["bg_error"] is None
        json.dumps(pipe)
        db.close()
        # A full level 0 the engine may not compact is one level of owed
        # work.
        db = DB.open_memory(_options(disable_auto_compaction=True))
        for i in range(db.options.l0_compaction_trigger):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
            db.flush()
        assert db.stats()["levels"][0] == db.options.l0_compaction_trigger
        assert db.stats()["pipeline"]["compaction_queue_depth"] == 1
        db.close()

    def test_pipeline_gauges_background_mode(self):
        db = DB.open_memory(_options(background_compaction=True))
        for i in range(300):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        pipe = db.stats()["pipeline"]
        assert pipe["background"] is True
        assert pipe["imm_pending"] == 0  # flush() drains the handoff
        assert pipe["bg_flushes"] >= 1
        assert pipe["group_commit_ops"] == 300
        assert pipe["mean_group_batches"] >= 1.0
        assert pipe["stall_seconds"] >= 0.0
        assert pipe["bg_error"] is None
        json.dumps(pipe)
        db.close()
