"""The full-scan baseline."""

import pytest
from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind


class TestNoIndex:
    def test_lookup(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options)
        load_tweets(db, 60, users=6)
        results = db.lookup("UserID", "u4")
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(59, -1, -1) if i % 6 == 4]
        db.close()

    def test_lookup_top_k(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options)
        load_tweets(db, 60, users=6)
        results = db.lookup("UserID", "u4", k=2)
        assert [r.key for r in results] == ["t00058", "t00052"]
        db.close()

    def test_range_lookup(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options,
                     attributes=("CreationTime",))
        load_tweets(db, 100)
        results = db.range_lookup("CreationTime", 1020, 1024)
        assert sorted(r.key for r in results) == \
            [f"t{i:05d}" for i in range(20, 25)]
        db.close()

    def test_updates_and_deletes_respected(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.put("t1", {"UserID": "u2"})
        db.delete("t2")
        assert db.lookup("UserID", "u1") == []
        assert [r.key for r in db.lookup("UserID", "u2")] == ["t1"]
        db.close()

    def test_no_write_overhead(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options)
        load_tweets(db, 50)
        assert db.indexes["UserID"].size_bytes() == 0
        db.close()

    def test_empty_range(self, index_options):
        db = open_db(IndexKind.NOINDEX, index_options)
        load_tweets(db, 10)
        assert db.range_lookup("UserID", "z", "a") == []
        db.close()

    @pytest.mark.parametrize("bad", [[1, 2], {"n": 1}, 10**400],
                             ids=["list", "object", "huge-int"])
    def test_put_of_an_unencodable_value_is_refused(self, index_options,
                                                     bad):
        """Refused at PUT as on every other kind: stored, the value would
        make every later query raise while encoding it."""
        db = open_db(IndexKind.NOINDEX, index_options)
        db.put("t0", {"UserID": "u1"})
        with pytest.raises((TypeError, OverflowError)):
            db.put("t1", {"UserID": bad})
        assert db.get("t1") is None
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t0"]
        assert [r.key for r in db.range_lookup("UserID", "u0", "u9")] == \
            ["t0"]
        db.close()
