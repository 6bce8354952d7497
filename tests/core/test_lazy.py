"""Stand-Alone Lazy Index: append-only fragments, compaction merging."""

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind
from repro.core.posting import decode_posting_list
from repro.lsm.keys import KIND_MERGE, KIND_VALUE
from repro.lsm.zonemap import encode_attribute


class TestFragmentWrites:
    def test_put_issues_blind_fragment(self, index_options):
        """Example 1: PUT(u1, {t4}) without reading the existing list."""
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        index = db.indexes["UserID"]
        reads_before = index.index_db.vfs.stats.read_blocks
        db.put("t2", {"UserID": "u1"})
        assert index.index_db.vfs.stats.read_blocks == reads_before
        db.close()

    def test_fragments_scattered_then_merged(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 400, users=4)
        index = db.indexes["UserID"]
        # Force everything into one level: fragments must fold into one
        # complete list.
        db.compact_all()
        fragments = list(index.index_db.fragments_by_level(
            encode_attribute("u1")))
        assert len(fragments) == 1
        _level, entries = fragments[0]
        postings = decode_posting_list(entries[0][2])
        live = [p for p in postings if len(p) == 2]
        assert [p[0] for p in live] == [
            f"t{i:05d}" for i in range(399, -1, -1) if i % 4 == 1]
        db.close()

    def test_compact_folds_a_one_table_index(self, index_options):
        """The index table is one level-0 file with nothing below it — an
        automatic compaction would relabel it; ``compact()`` is manual and
        rewrites it, so the three fragments fold into one list."""
        db = open_db(IndexKind.LAZY, index_options)
        for i in range(3):
            db.put(f"t{i}", {"UserID": "u1"})
        index_db = db.indexes["UserID"].index_db
        index_db.flush()
        assert index_db.level_file_counts()[0] == 1
        assert sum(index_db.level_file_counts()) == 1
        (_level, entries), = index_db.fragments_by_level(
            encode_attribute("u1"))
        assert [kind for kind, _seq, _value in entries] == [KIND_MERGE] * 3
        db.indexes["UserID"].compact()
        (level, entries), = index_db.fragments_by_level(encode_attribute("u1"))
        assert level == index_db.options.max_levels - 1
        (kind, _seq, value), = entries
        assert kind == KIND_VALUE
        assert [p[0] for p in decode_posting_list(value)] \
            == ["t2", "t1", "t0"]
        stats = index_db.stats()["compaction"]
        assert stats["trivial_moves"] == 0 and stats["merges_folded"] >= 3
        db.close()

    def test_memtable_fragment_is_merge_kind(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        index = db.indexes["UserID"]
        fragments = list(index.index_db.fragments_by_level(
            encode_attribute("u1")))
        assert fragments[0][0] == -1
        assert fragments[0][1][0][0] == KIND_MERGE
        db.close()

    def test_delete_writes_marker(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.delete("t1")
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t2"]
        db.compact_all()
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t2"]
        db.close()

    def test_reinsert_after_delete(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        db.delete("t1")
        db.put("t1", {"UserID": "u1"})
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t1"]
        db.close()


class TestQueries:
    def test_lookup_newest_first(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 60, users=6)
        results = db.lookup("UserID", "u3")
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(59, -1, -1) if i % 6 == 3]
        db.close()

    def test_lookup_early_termination_visits_fewer_levels(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 800, users=4)
        index = db.indexes["UserID"]
        index.levels_visited = 0
        db.lookup("UserID", "u1", k=2)
        early_levels = index.levels_visited
        index.levels_visited = 0
        db.lookup("UserID", "u1", k=2, early_termination=False)
        full_levels = index.levels_visited
        assert early_levels <= full_levels
        db.close()

    def test_update_invalidates_old_value(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t1", {"UserID": "u2"})
        assert db.lookup("UserID", "u1") == []
        assert [r.key for r in db.lookup("UserID", "u2")] == ["t1"]
        db.close()

    def test_range_lookup(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 50, users=10)
        results = db.range_lookup("UserID", "u3", "u5",
                                  early_termination=False)
        want = [f"t{i:05d}" for i in range(49, -1, -1) if i % 10 in (3, 4, 5)]
        assert [r.key for r in results] == want
        db.close()

    def test_range_lookup_with_updates_no_duplicates(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u3"})
        db.put("t1", {"UserID": "u4"})  # moved within the queried range
        results = db.range_lookup("UserID", "u3", "u5",
                                  early_termination=False)
        assert [r.key for r in results] == ["t1"]
        assert results[0].document["UserID"] == "u4"
        db.close()

    def test_lookup_after_heavy_compaction(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        state = load_tweets(db, 600, users=3)
        load_tweets(db, 600, users=3)  # overwrite all: same docs again
        results = db.lookup("UserID", "u0", k=5)
        assert len(results) == 5
        assert all(state[r.key]["UserID"] == "u0" for r in results)
        db.close()

    def test_would_accept_prunes_validation_gets(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 200, users=2)
        db.flush()
        before = db.checker.validation_gets
        db.lookup("UserID", "u1", k=3, early_termination=False)
        fetched = db.checker.validation_gets - before
        # 100 matches exist, but only a handful should be validated.
        assert fetched < 100
        db.close()
