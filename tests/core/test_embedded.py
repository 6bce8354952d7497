"""Embedded Index: per-block filters, zone maps, GetLite validity."""

import pytest

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind
from repro.core.embedded import EmbeddedIndex
from repro.core.validity import ValidityChecker
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute


class TestConstruction:
    def test_requires_indexed_attribute_in_options(self):
        primary = DB.open_memory(Options())  # no indexed_attributes
        with pytest.raises(ValueError):
            EmbeddedIndex("UserID", primary, ValidityChecker(primary))
        primary.close()

    def test_no_extra_storage(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 100)
        assert db.indexes["UserID"].size_bytes() == 0
        db.close()


class TestMemTableComponent:
    def test_lookup_finds_unflushed_data(self, index_options):
        options = index_options
        options.memtable_budget = 10**6  # keep everything in memory
        db = open_db(IndexKind.EMBEDDED, options)
        load_tweets(db, 50, users=5)
        assert db.primary.memtable.approximate_memory_usage > 0
        results = db.lookup("UserID", "u2")
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(49, -1, -1) if i % 5 == 2]
        db.close()

    def test_memtable_update_supersedes(self, index_options):
        options = index_options
        options.memtable_budget = 10**6
        db = open_db(IndexKind.EMBEDDED, options)
        db.put("t1", {"UserID": "u1"})
        db.put("t1", {"UserID": "u2"})
        assert db.lookup("UserID", "u1") == []
        assert [r.key for r in db.lookup("UserID", "u2")] == ["t1"]
        db.close()

    def test_memtable_delete_supersedes(self, index_options):
        options = index_options
        options.memtable_budget = 10**6
        db = open_db(IndexKind.EMBEDDED, options)
        db.put("t1", {"UserID": "u1"})
        db.delete("t1")
        assert db.lookup("UserID", "u1") == []
        db.close()

    def test_flush_expires_memview(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 50)
        db.flush()
        with db.primary.read_view() as view:
            assert view.memtable_postings(
                "UserID", encode_attribute(""),
                encode_attribute("\uffff")) == []
        # Data still findable through the SSTable filters.
        assert len(db.lookup("UserID", "u1")) == 5
        db.close()


class TestDiskComponent:
    def test_lookup_across_levels(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 500, users=10)
        assert db.primary.num_nonempty_levels() >= 2
        results = db.lookup("UserID", "u7", early_termination=False)
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(499, -1, -1) if i % 10 == 7]
        db.close()

    def test_bloom_pruning_limits_block_reads(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 400, users=100)
        db.flush()
        index = db.indexes["UserID"]
        index.blocks_read = 0
        db.lookup("UserID", "u00000-not-there", early_termination=False)
        assert index.blocks_read == 0  # blooms prune every block
        db.close()

    def test_update_filtered_by_getlite(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        db.put("t1", {"UserID": "u1"})
        db.flush()
        db.put("t1", {"UserID": "u2"})  # newer version in the memtable
        results = db.lookup("UserID", "u1", early_termination=False)
        assert results == []
        db.close()

    def test_update_across_disk_levels(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        db.put("t1", {"UserID": "u1"})
        load_tweets(db, 300, start=100)  # push t1's version deep
        db.put("t1", {"UserID": "u2"})
        db.flush()
        results = db.lookup("UserID", "u1", early_termination=False)
        assert "t1" not in [r.key for r in results]
        db.close()

    def test_getlite_mostly_memory_resident(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 400, users=8)
        db.flush()
        db.lookup("UserID", "u3", early_termination=False)
        stats = db.indexes["UserID"].probe_stats()
        assert stats["getlite_memory_only"] > 0
        # Confirm reads happen only on bloom false positives: rare.
        assert stats["getlite_confirm_reads"] <= \
            stats["getlite_memory_only"] // 5 + 2
        db.close()


class TestZoneMaps:
    def test_file_level_pruning_on_time_correlated_attribute(
            self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options,
                     attributes=("CreationTime",))
        load_tweets(db, 500)
        db.flush()
        index = db.indexes["CreationTime"]
        index.files_pruned = 0
        index.blocks_read = 0
        db.range_lookup("CreationTime", 1000, 1004, early_termination=False)
        assert index.files_pruned > 0
        total_blocks = sum(
            db.primary.table_cache.get(meta.file_number).num_data_blocks
            for _lvl, meta in db.primary.versions.current.all_files())
        assert index.blocks_read < total_blocks / 2
        db.close()

    def test_range_lookup_time_correlated_exact(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options,
                     attributes=("CreationTime",))
        load_tweets(db, 300)
        results = db.range_lookup("CreationTime", 1050, 1059,
                                  early_termination=False)
        assert sorted(r.key for r in results) == \
            [f"t{i:05d}" for i in range(50, 60)]
        db.close()

    def test_range_lookup_non_time_correlated_reads_everything(
            self, index_options):
        """Zone maps are useless on a shuffled attribute: "almost perform
        same as no index"."""
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 300, users=150)
        db.flush()
        index = db.indexes["UserID"]
        index.blocks_read = 0
        results = db.range_lookup("UserID", "u0", "u9999",
                                  early_termination=False)
        assert len(results) == 300  # everything matches
        assert index.blocks_read > 0
        db.close()

    def test_range_with_top_k(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options,
                     attributes=("CreationTime",))
        load_tweets(db, 200)
        results = db.range_lookup("CreationTime", 1000, 1100, k=5,
                                  early_termination=False)
        assert [r.key for r in results] == [
            "t00100", "t00099", "t00098", "t00097", "t00096"]
        db.close()
