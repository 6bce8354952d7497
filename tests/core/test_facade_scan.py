"""The facade's primary-key scan API."""

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind


class TestFacadeScan:
    def test_full_scan_sorted(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 50)
        rows = list(db.scan())
        assert len(rows) == 50
        keys = [key for key, _doc in rows]
        assert keys == sorted(keys)
        assert rows[0][1]["UserID"] == "u0"
        db.close()

    def test_bounded_scan(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        load_tweets(db, 50)
        rows = list(db.scan("t00010", "t00014"))
        assert [key for key, _doc in rows] == [
            f"t{i:05d}" for i in range(10, 15)]
        db.close()

    def test_scan_respects_deletes_and_updates(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        db.put("a", {"UserID": "u1"})
        db.put("b", {"UserID": "u1"})
        db.put("a", {"UserID": "u2"})
        db.delete("b")
        rows = dict(db.scan())
        assert rows == {"a": {"UserID": "u2"}}
        db.close()

    def test_scan_survives_compaction(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        state = load_tweets(db, 300)
        db.compact_all()
        assert dict(db.scan()) == state
        db.close()
