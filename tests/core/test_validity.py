"""Validity checking: GET-based candidate filtering and GetLite."""

from repro.core.records import encode_document
from repro.core.topk import TopKBySeq
from repro.core.validity import (
    ValidityChecker,
    attribute_equals,
    attribute_in_range,
)
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute


def _open(**overrides):
    base = dict(block_size=1024, sstable_target_size=4 * 1024,
                memtable_budget=4 * 1024, l1_target_size=16 * 1024)
    base.update(overrides)
    return DB.open_memory(Options(**base))


def _harvest(checker, keys, predicate, k=None):
    """Harvest ``keys`` (offered newest first) into a fresh heap."""
    heap = TopKBySeq(k)
    candidates = [(len(keys) - i, key) for i, key in enumerate(keys)]
    checker.harvest(candidates, predicate, heap, set())
    return heap.results()


class TestFetchValid:
    """``ValidityChecker.harvest``: batched GET, then re-check the value."""

    def test_live_matching_record(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        checker = ValidityChecker(db)
        [found] = _harvest(checker, [b"t1"], attribute_equals("UserID", "u1"))
        assert found.key == "t1"
        assert found.document["UserID"] == "u1"
        assert found.seq == db.versions.last_sequence
        assert checker.validation_gets == 1
        db.close()

    def test_missing_record(self):
        db = _open()
        checker = ValidityChecker(db)
        assert _harvest(checker, [b"gone"],
                        attribute_equals("UserID", "u1")) == []
        assert checker.validation_gets == 1
        db.close()

    def test_stale_attribute_rejected(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        db.put(b"t1", encode_document({"UserID": "u2"}))
        checker = ValidityChecker(db)
        assert _harvest(checker, [b"t1"],
                        attribute_equals("UserID", "u1")) == []
        db.close()

    def test_deleted_record_rejected(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        db.delete(b"t1")
        checker = ValidityChecker(db)
        assert _harvest(checker, [b"t1"],
                        attribute_equals("UserID", "u1")) == []
        db.close()

    def test_rounds_fetch_only_what_the_heap_has_room_for(self):
        db = _open()
        for i in range(6):
            db.put(b"t%d" % i, encode_document(
                {"UserID": "u1" if i % 2 else "u2"}))
        batches = []
        checker = ValidityChecker(
            db, lambda keys: batches.append(list(keys))
            or db.get_many_with_seq(keys))
        newest_first = [b"t%d" % i for i in reversed(range(6))]
        resolved = set()
        heap = TopKBySeq(2)
        checker.harvest([(6 - i, key) for i, key in enumerate(newest_first)],
                        attribute_equals("UserID", "u1"), heap, resolved)
        # Round 1 asks for K=2 and keeps t5; round 2 asks for the one still
        # missing (t3); t2 is too old for the full heap and ends the walk.
        assert batches == [[b"t5", b"t4"], [b"t3"]]
        assert [r.key for r in heap.results()] == ["t5", "t3"]
        assert checker.validation_gets == 3
        assert resolved == {b"t5", b"t4", b"t3"}
        db.close()

    def test_resolved_keys_are_not_fetched_again(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        checker = ValidityChecker(db)
        heap = TopKBySeq(None)
        checker.harvest([(9, b"t1"), (4, b"t1")],
                        attribute_equals("UserID", "u1"), heap, {b"t0"})
        assert checker.validation_gets == 1
        assert len(heap) == 1
        db.close()


class TestPredicates:
    def test_attribute_equals(self):
        check = attribute_equals("UserID", "u1")
        assert check({"UserID": "u1"})
        assert not check({"UserID": "u2"})
        assert not check({})

    def test_attribute_in_range(self):
        check = attribute_in_range("CreationTime", encode_attribute(10),
                                   encode_attribute(20))
        assert check({"CreationTime": 10})
        assert check({"CreationTime": 20})
        assert check({"CreationTime": 15})
        assert not check({"CreationTime": 9})
        assert not check({"CreationTime": 21})
        assert not check({})


def _getlite(db, key, seq, level, position=0):
    """GetLite on a fresh view: ``(newer, memory_only, confirm_reads)``."""
    with db.read_view() as view:
        return view.newer_version(key, seq, level, position)


class TestGetLite:
    def test_newest_version_in_memtable_invalidates(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        db.flush()
        _value, old_seq = db.get_with_seq(b"t1")
        db.put(b"t1", encode_document({"UserID": "u2"}))  # memtable
        newer, _memory_only, _reads = _getlite(db, b"t1", old_seq, level=0)
        assert newer
        db.close()

    def test_unique_version_validates_in_memory(self):
        db = _open()
        for i in range(200):
            db.put(f"k{i:04d}".encode(), encode_document({"UserID": "u1"}))
        db.flush()
        _value, seq = db.get_with_seq(b"k0100")
        level = db.versions.current.deepest_nonempty_level()
        reads_before = db.vfs.stats.read_blocks
        assert _getlite(db, b"k0100", seq, level) == (False, 1, 0)
        assert db.vfs.stats.read_blocks == reads_before
        db.close()

    def test_newer_version_in_upper_level_invalidates(self):
        db = _open()
        db.put(b"t1", encode_document({"UserID": "u1"}))
        _value, old_seq = db.get_with_seq(b"t1")
        # Push the old version deep, then write a newer one and flush it to L0.
        for i in range(600):
            db.put(f"fill{i:05d}".encode(),
                   encode_document({"UserID": "ux"}))
        db.compact_range()
        deep_level = db.versions.current.deepest_nonempty_level()
        db.put(b"t1", encode_document({"UserID": "u2"}))
        db.flush()
        newer, _memory_only, _reads = _getlite(db, b"t1", old_seq, deep_level)
        assert newer
        db.close()
