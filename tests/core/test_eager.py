"""Stand-Alone Eager Index: read-modify-write posting lists."""

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind
from repro.core.posting import decode_posting_list
from repro.lsm.zonemap import encode_attribute


class TestListMaintenance:
    def test_list_prepends_newest(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.put("t3", {"UserID": "u1"})
        index = db.indexes["UserID"]
        payload = index.index_db.get(encode_attribute("u1"))
        entries = decode_posting_list(payload)
        assert [e[0] for e in entries] == ["t3", "t2", "t1"]
        db.close()

    def test_reput_moves_to_front_without_duplicates(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.put("t1", {"UserID": "u1"})  # re-put same key, same value
        index = db.indexes["UserID"]
        entries = decode_posting_list(
            index.index_db.get(encode_attribute("u1")))
        assert [e[0] for e in entries] == ["t1", "t2"]
        db.close()

    def test_update_leaves_stale_entry_in_old_list(self, index_options):
        """Example 3: PUT(t3, u1) when t3 was u2 — u2's list keeps the
        stale posting, filtered at query time by the validity check."""
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t3", {"UserID": "u2"})
        db.put("t3", {"UserID": "u1"})
        index = db.indexes["UserID"]
        stale = decode_posting_list(
            index.index_db.get(encode_attribute("u2")))
        assert [e[0] for e in stale] == ["t3"]
        assert [r.key for r in db.lookup("UserID", "u2")] == []
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t3"]
        db.close()

    def test_delete_removes_from_list(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.delete("t1")
        index = db.indexes["UserID"]
        entries = decode_posting_list(
            index.index_db.get(encode_attribute("u1")))
        assert [e[0] for e in entries] == ["t2"]
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t2"]
        db.close()

    def test_write_path_reads_counted(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 50)
        assert db.indexes["UserID"].write_path_reads == 50
        db.close()

    def test_document_without_attribute_not_indexed(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t1", {"Other": "x"})
        assert db.indexes["UserID"].index_db.get(
            encode_attribute("x")) is None
        db.close()


class TestQueries:
    def test_lookup_newest_first(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 30, users=3)
        results = db.lookup("UserID", "u1")
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(29, -1, -1) if i % 3 == 1]
        db.close()

    def test_lookup_top_k_stops_early(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 30, users=3)
        checker_before = db.checker.validation_gets
        results = db.lookup("UserID", "u1", k=2)
        assert len(results) == 2
        # Only K prefix entries should be fetched from the data table.
        assert db.checker.validation_gets - checker_before == 2
        db.close()

    def test_lookup_unknown_value(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 10)
        assert db.lookup("UserID", "nobody") == []
        db.close()

    def test_range_lookup_merges_lists_newest_first(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 40, users=8)
        results = db.range_lookup("UserID", "u2", "u4")
        want = [f"t{i:05d}" for i in range(39, -1, -1) if i % 8 in (2, 3, 4)]
        assert [r.key for r in results] == want
        db.close()

    def test_range_lookup_top_k(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 40, users=8)
        results = db.range_lookup("UserID", "u2", "u4", k=3)
        want = [f"t{i:05d}" for i in range(39, -1, -1)
                if i % 8 in (2, 3, 4)][:3]
        assert [r.key for r in results] == want
        db.close()

    def test_empty_range(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 10)
        assert db.range_lookup("UserID", "z", "a") == []
        db.close()

    def test_survives_flush_and_compaction(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        load_tweets(db, 300, users=5)
        db.compact_all()
        results = db.lookup("UserID", "u2", k=4)
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(299, -1, -1) if i % 5 == 2][:4]
        db.close()
