"""The MemTable's attribute postings: the Embedded index's MemTable B-tree.

A MemTable built with indexed attributes keeps, per attribute, a map from
encoded value to the ``(seq, key)`` postings of its VALUE entries; they
leave with the MemTable when its flush installs.
"""

import json
import random
import sys
import threading

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectedError, FaultInjectingVFS
from repro.lsm.keys import KIND_DELETE, KIND_MERGE, KIND_VALUE
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options, json_attribute_extractor
from repro.lsm.zonemap import encode_attribute


def _enc(value):
    return encode_attribute(value)


def _doc(value) -> bytes:
    return json.dumps({"u": value}).encode()


def _memtable() -> MemTable:
    return MemTable(("u",), json_attribute_extractor)


def _point(table, value):
    return table.postings("u", _enc(value), _enc(value))


def _db(**options) -> DB:
    return DB.open_memory(Options(indexed_attributes=("u",), **options))


def _db_postings(db: DB, low, high):
    with db.read_view() as view:
        return sorted(view.memtable_postings("u", _enc(low), _enc(high)))


class TestBasics:
    def test_empty(self):
        mem = _memtable()
        assert _point(mem, "u1") == []
        assert mem.postings("u", _enc("a"), _enc("z")) == []

    def test_insert_get(self):
        mem = _memtable()
        mem.add(1, KIND_VALUE, b"t1", _doc("u1"))
        mem.add(5, KIND_VALUE, b"t2", _doc("u1"))
        mem.add(3, KIND_VALUE, b"t3", _doc("u2"))
        assert _point(mem, "u1") == [(1, b"t1"), (5, b"t2")]
        assert _point(mem, "u2") == [(3, b"t3")]

    def test_range_inclusive_sorted(self):
        mem = _memtable()
        for i, user in enumerate(["u1", "u3", "u5", "u7"]):
            mem.add(i, KIND_VALUE, f"t{i}".encode(), _doc(user))
        got = mem.postings("u", _enc("u3"), _enc("u5"))
        assert got == [(1, b"t1"), (2, b"t2")]

    def test_range_spans_everything(self):
        mem = _memtable()
        users = [f"u{i:03d}" for i in range(50)]
        for i, user in enumerate(reversed(users)):
            mem.add(i, KIND_VALUE, user.encode(), _doc(user))
        got = mem.postings("u", _enc("u000"), _enc("u049"))
        assert [key for _seq, key in got] == [u.encode() for u in users]

    def test_only_value_entries_with_the_attribute_post(self):
        mem = _memtable()
        mem.add(1, KIND_VALUE, b"t1", _doc("u1"))
        mem.add(2, KIND_DELETE, b"t1", b"")
        mem.add(3, KIND_MERGE, b"t2", _doc("u1"))
        mem.add(4, KIND_VALUE, b"t3", b'{"other": 1}')
        mem.add(5, KIND_VALUE, b"t4", b"not json")
        assert _point(mem, "u1") == [(1, b"t1")]
        assert {entry.seq: entry.slots for entry in mem} == {
            1: (_enc("u1"),), 2: (b"",), 3: (b"",), 4: (b"",), 5: (b"",)}

    def test_no_attributes_keeps_no_slots(self):
        mem = MemTable()
        mem.add(1, KIND_VALUE, b"t1", _doc("u1"))
        assert [entry.slots for entry in mem] == [None]


class TestExpiry:
    """A flush expires postings: they leave with their MemTable."""

    def test_expire_removes_flushed_postings(self):
        db = _db()
        db.put(b"t1", _doc("u1"))
        db.put(b"t3", _doc("u2"))
        db.flush()
        db.put(b"t2", _doc("u1"))
        assert _db_postings(db, "u1", "u1") == [(3, b"t2")]
        assert _db_postings(db, "u2", "u2") == []
        db.close()

    def test_expire_everything(self):
        db = _db()
        for seq in range(10):
            db.put(str(seq).encode(), _doc("u"))
        assert len(_db_postings(db, "u", "u")) == 10
        db.flush()
        assert _db_postings(db, "u", "u") == []
        db.close()

    def test_expired_keys_vanish_from_range(self):
        db = _db()
        db.put(b"t1", _doc("u1"))
        db.flush()
        db.put(b"t2", _doc("u2"))
        assert _db_postings(db, "u1", "u2") == [(2, b"t2")]
        db.close()

    def test_expire_noop(self):
        """A flush that fails expires nothing: the sealed MemTable goes
        back into service with its postings."""
        for offset in range(1, 5):  # the WAL rotation, then the table
            vfs = FaultInjectingVFS()
            db = DB.open(vfs, "db", Options(indexed_attributes=("u",)))
            db.put(b"t", _doc("u"))
            vfs.schedule_write_error(vfs.op_count + offset)
            with pytest.raises(FaultInjectedError):
                db.flush()
            assert db.imm is None
            assert _db_postings(db, "u", "u") == [(1, b"t")]
            db.close()


class TestRandomizedAgainstOracle:
    def test_large_tree_with_splits(self):
        rng = random.Random(11)
        mem = _memtable()
        oracle: dict[bytes, list[tuple[int, bytes]]] = {}
        for seq in range(5000):
            value = rng.randrange(800)
            pk = f"t{seq}".encode()
            mem.add(seq, KIND_VALUE, pk, _doc(value))
            oracle.setdefault(_enc(value), []).append((seq, pk))
        for value in rng.sample(range(800), 100):
            assert _point(mem, value) == oracle.get(_enc(value), [])
        for _ in range(20):
            lo = rng.randrange(700)
            hi = lo + rng.randrange(100)
            got = mem.postings("u", _enc(lo), _enc(hi))
            want = [posting for key in sorted(oracle)
                    if _enc(lo) <= key <= _enc(hi) for posting in oracle[key]]
            assert got == want

    def test_interleaved_expiry(self):
        rng = random.Random(12)
        db = _db()
        live: list[tuple[int, bytes, int]] = []
        for _round in range(10):
            for _ in range(300):
                value = rng.randrange(50)
                key = f"t{rng.randrange(10**9)}".encode()
                seq = db.put(key, _doc(value))
                live.append((seq, key, value))
            if _round % 3 == 2:
                db.flush()
                live = []
            for value in {v for _s, _k, v in live}:
                want = sorted((s, k) for s, k, v in live if v == value)
                assert _db_postings(db, value, value) == want
        db.close()

    def test_expiry_on_another_thread_loses_nothing(self):
        """The background thread flushes sealed MemTables while the
        caller's thread writes and looks up: every record is found, from
        its MemTable's postings or from the level-0 table its flush made."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        db = SecondaryIndexedDB.open_memory(
            {"u": IndexKind.EMBEDDED},
            Options(background_compaction=True, memtable_budget=4096))
        try:
            total = 600
            for i in range(total):
                db.put(f"t{i:04d}", {"u": i * 7919 % total})
                if i % 7 == 0:
                    found = db.lookup("u", i * 7919 % total, k=1)
                    assert [r.key for r in found] == [f"t{i:04d}"]
            assert db.primary.pipeline_stats.bg_flushes > 0
            for i in range(0, total, 37):
                found = db.lookup("u", i * 7919 % total, k=1)
                assert [r.key for r in found] == [f"t{i:04d}"]
        finally:
            sys.setswitchinterval(interval)
            db.close()

    def test_range_read_during_inserts_misses_nothing(self):
        """A range read races the writer's ``insort`` lock-free: a value
        inserted in front of the range shifts it, and the read notices
        and reads again, so no posting present before it began is lost."""
        mem = _memtable()
        total = 4000
        low, high = _enc(total // 4), _enc(3 * total // 4)
        done = threading.Event()
        failures: list[str] = []
        values = list(range(total))
        random.Random(13).shuffle(values)

        def writer() -> None:
            for seq, value in enumerate(values):
                mem.add(seq, KIND_VALUE, b"t%d" % value, _doc(value))
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=writer, daemon=True)
        try:
            thread.start()
            while not done.is_set():
                # The entry the writer is inserting may not have posted.
                before = len(mem) - 1
                got = {seq for seq, _key in mem.postings("u", low, high)}
                want = {seq for seq in range(before)
                        if low <= _enc(values[seq]) <= high}
                if not want <= got:
                    failures.append(f"missed {sorted(want - got)[:5]}")
                    break
        finally:
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and failures == []
        assert len(mem.postings("u", low, high)) == total // 2 + 1
