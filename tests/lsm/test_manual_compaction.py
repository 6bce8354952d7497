"""Manual-compaction mode, write stalls, and debug introspection."""

import pytest

from repro.lsm.db import DB
from repro.lsm.errors import WriteStallError
from repro.lsm.options import Options


def _options(**overrides):
    base = dict(block_size=512, sstable_target_size=2 * 1024,
                memtable_budget=1024, l1_target_size=8 * 1024,
                l0_compaction_trigger=4, l0_stop_writes_trigger=8,
                disable_auto_compaction=True)
    base.update(overrides)
    return Options(**base)


class TestManualCompaction:
    def test_level0_accumulates_without_auto_compaction(self):
        db = DB.open_memory(_options(l0_stop_writes_trigger=100))
        for i in range(200):
            db.put(f"k{i:05d}".encode(), b"x" * 40)
        counts = db.level_file_counts()
        assert counts[0] > db.options.l0_compaction_trigger
        assert all(count == 0 for count in counts[1:])
        db.close()

    def test_reads_correct_with_deep_level0(self):
        db = DB.open_memory(_options(l0_stop_writes_trigger=100))
        model = {}
        for i in range(200):
            key = f"k{i % 40:05d}".encode()
            value = f"v{i}".encode()
            db.put(key, value)
            model[key] = value
        assert dict(db.scan()) == model
        db.close()

    def test_write_stall_raised_at_limit(self):
        db = DB.open_memory(_options())
        with pytest.raises(WriteStallError):
            for i in range(10000):
                db.put(f"k{i:06d}".encode(), b"x" * 40)
        assert db.level_file_counts()[0] >= db.options.l0_stop_writes_trigger
        db.close()

    def test_manual_compaction_clears_the_stall(self):
        db = DB.open_memory(_options())
        with pytest.raises(WriteStallError):
            for i in range(10000):
                db.put(f"k{i:06d}".encode(), b"x" * 40)
        db.compact_range()
        db.put(b"after-compaction", b"ok")  # writes accepted again
        assert db.get(b"after-compaction") == b"ok"
        db.close()

    def test_auto_mode_never_stalls(self):
        db = DB.open_memory(_options(disable_auto_compaction=False))
        for i in range(3000):
            db.put(f"k{i:06d}".encode(), b"x" * 40)
        assert db.get(b"k000000") == b"x" * 40
        db.close()


class TestDebugString:
    def test_reports_state(self):
        db = DB.open_memory(_options(disable_auto_compaction=False))
        for i in range(500):
            db.put(f"k{i:05d}".encode(), b"x" * 40)
        text = db.debug_string()
        lines = {line.strip() for line in text.splitlines()}
        stats = db.stats()
        assert f"last_sequence: {db.versions.last_sequence}" in text
        assert f"memtable_entries: {stats['memtable_entries']}" in lines
        assert f"flush_count: {stats['compaction']['flush_count']}" in lines
        assert "io:" in text
        assert "L0:" in text or "L1:" in text
        db.close()

    def test_empty_database(self):
        db = DB.open_memory(_options())
        text = db.debug_string()
        assert "last_sequence: 0" in text
        db.close()
