"""Stand-Alone Composite Index: composite keys and prefix scans."""

import pytest

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind
from repro.core.composite import (
    attribute_prefix,
    make_composite_key,
    split_composite_key,
)
from repro.lsm.errors import CorruptionError
from repro.lsm.zonemap import encode_attribute


class TestCompositeKeyCodec:
    def test_roundtrip(self):
        for attr_value, pk in [("u1", b"t1"), ("", b""), ("a\x00b", b"t")]:
            encoded_attr = encode_attribute(attr_value)
            composite = make_composite_key(encoded_attr, pk)
            got_attr, got_pk = split_composite_key(composite)
            assert (got_attr, got_pk) == (encoded_attr, pk)

    def test_roundtrip_numeric_attributes(self):
        """Numeric encodings contain zero bytes; escaping must handle them."""
        for value in [0, 1, -1, 2**40, 0.5]:
            encoded_attr = encode_attribute(value)
            composite = make_composite_key(encoded_attr, b"pk")
            got_attr, got_pk = split_composite_key(composite)
            assert (got_attr, got_pk) == (encoded_attr, b"pk")

    def test_order_preserved_across_attr_values(self):
        values = [0, 1, 100, "a", "a\x00", "ab", "b"]
        composites = [make_composite_key(encode_attribute(v), b"pk")
                      for v in values]
        assert composites == sorted(composites)

    def test_same_attr_orders_by_primary_key(self):
        attr = encode_attribute("u1")
        keys = [make_composite_key(attr, pk) for pk in [b"t1", b"t2", b"t9"]]
        assert keys == sorted(keys)

    def test_prefix_is_shared_by_all_pks(self):
        attr = encode_attribute("u1")
        prefix = attribute_prefix(attr)
        assert make_composite_key(attr, b"anything").startswith(prefix)

    def test_prefix_does_not_match_longer_value(self):
        """esc("u1") prefix must not match composite keys of "u10"."""
        prefix = attribute_prefix(encode_attribute("u1"))
        other = make_composite_key(encode_attribute("u10"), b"t")
        assert not other.startswith(prefix)

    def test_malformed_key_rejected(self):
        with pytest.raises(CorruptionError):
            split_composite_key(b"no-terminator-here")
        with pytest.raises(CorruptionError):
            split_composite_key(b"bad\x00escape")


class TestQueries:
    def test_lookup_all_matches(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 60, users=6)
        results = db.lookup("UserID", "u2")
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(59, -1, -1) if i % 6 == 2]
        db.close()

    def test_lookup_top_k_exact(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 500, users=5)
        results = db.lookup("UserID", "u4", k=3)
        assert [r.key for r in results] == ["t00499", "t00494", "t00489"]
        db.close()

    def test_update_stale_entry_filtered(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t1", {"UserID": "u2"})
        assert db.lookup("UserID", "u1") == []
        assert [r.key for r in db.lookup("UserID", "u2")] == ["t1"]
        db.close()

    def test_delete_uses_tombstone(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u1"})
        db.delete("t1")
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t2"]
        db.compact_all()
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t2"]
        db.close()

    def test_range_lookup(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 64, users=8)
        results = db.range_lookup("UserID", "u5", "u7")
        want = [f"t{i:05d}" for i in range(63, -1, -1) if i % 8 in (5, 6, 7)]
        assert [r.key for r in results] == want
        db.close()

    def test_range_lookup_numeric_attribute(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options,
                     attributes=("CreationTime",))
        load_tweets(db, 100)
        results = db.range_lookup("CreationTime", 1010, 1019)
        assert [r.key for r in results] == [
            f"t{i:05d}" for i in range(19, 9, -1)]
        db.close()

    def test_no_early_termination_scans_everything(self, index_options):
        """Composite must traverse all levels even for K=1 (Section 4.2)."""
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 400, users=2)
        index = db.indexes["UserID"]
        index.candidates_scanned = 0
        db.lookup("UserID", "u1", k=1)
        # All 200 composite entries for u1 are examined.
        assert index.candidates_scanned == 200
        db.close()

    def test_survives_compaction(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 300, users=3)
        db.compact_all()
        results = db.lookup("UserID", "u0", k=2)
        assert [r.key for r in results] == ["t00297", "t00294"]
        db.close()
