"""Disk-full: clean read-only degradation, never a crash-loop.

ENOSPC on any write path flips the DB into read-only mode: the failed
write is not acknowledged, everything previously acknowledged stays
readable (MemTables included), later mutations fail fast with
:class:`ReadOnlyError`, and the background pipeline parks — its thread
stays alive for an orderly ``close()`` instead of dying into a sticky
background error or retrying a doomed flush forever.
"""

from __future__ import annotations

import pytest

from repro.lsm.compaction import pick_compaction
from repro.lsm.db import DB
from repro.lsm.errors import OutOfSpaceError, ReadOnlyError
from repro.lsm.faults import FaultInjectingVFS

from drill_utils import corruption_options, populate, wait_until


class TestInlineWrites:
    def test_enospc_flips_read_only_and_keeps_acked_data(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db, rows=100)
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises(OutOfSpaceError):
            db.put(b"late", b"write")
        assert db.read_only
        stats = db.stats()["corruption"]
        assert stats["read_only"]
        assert "OutOfSpaceError" in stats["read_only_reason"]
        # The failed write was never acknowledged and is not visible.
        assert db.get(b"late") is None
        # Everything acknowledged before the disk filled still reads.
        assert dict(db.scan()) == expected
        db.close()

    def test_later_mutations_fail_fast(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        populate(db, rows=50)
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises(OutOfSpaceError):
            db.put(b"x", b"y")
        # Read-only mode short-circuits before touching the device.
        ops_before = vfs.op_count
        for exc_type, mutate in [
            (ReadOnlyError, lambda: db.put(b"a", b"b")),
            (ReadOnlyError, lambda: db.delete(b"a")),
            (ReadOnlyError, db.flush),
            (ReadOnlyError, db.compact_range),
        ]:
            with pytest.raises(exc_type):
                mutate()
        assert vfs.op_count == ops_before
        db.close()

    def test_acked_writes_survive_reopen(self):
        """The WAL already holds every acknowledged write: after the disk
        is freed, recovery replays them all."""
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db, rows=80)
        db.put(b"in-memtable", b"acked-but-not-flushed")
        expected[b"in-memtable"] = b"acked-but-not-flushed"
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises(OutOfSpaceError):
            db.put(b"late", b"write")
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", corruption_options())
        assert dict(db.scan()) == expected
        assert not db.read_only  # fresh handle, disk has space again
        db.close()

    def test_enospc_during_flush_loses_nothing(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = {}
        for i in range(30):
            key = f"m{i:03d}".encode()
            db.put(key, b"v" * 20)
            expected[key] = b"v" * 20
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises(OutOfSpaceError):
            db.flush()
        assert db.read_only
        # The memtable was not reset: everything still reads in-memory.
        assert dict(db.scan()) == expected
        db.close()
        # And the WAL still covers it after reopen.
        vfs.clear_enospc()
        db = DB.open(vfs, "db", corruption_options())
        assert dict(db.scan()) == expected
        db.close()


    def test_enospc_during_manual_compaction_parks(self):
        _manual_compaction_hits_a_full_disk(corruption_options())


def _manual_compaction_hits_a_full_disk(options):
    """The disk fills two appends into ``compact_range()``'s first output
    (the MemTable is empty and the pipeline idle, so that output's create
    is the call's first mutating op): same parking as a flush's ENOSPC."""
    vfs = FaultInjectingVFS()
    db = DB.open(vfs, "db", options)
    expected = populate(db, rows=200)
    if options.background_compaction:
        wait_until(lambda: not db._bg_compacting
                   and pick_compaction(db.versions) is None,
                   "the pipeline to go idle")
    live = db.versions.live_file_numbers()
    vfs.schedule_enospc(vfs.op_count + 3)
    with pytest.raises(OutOfSpaceError):
        db.compact_range()
    assert db.read_only
    with pytest.raises(ReadOnlyError):
        db.put(b"late", b"write")
    # The compaction did not happen: inputs live, partial output deleted.
    assert db.versions.live_file_numbers() == live
    assert db.verify_integrity().ok
    assert dict(db.scan()) == expected
    db.close()
    vfs.clear_enospc()
    db = DB.open(vfs, "db", options)
    db.compact_range()
    assert dict(db.scan()) == expected
    db.close()


class TestBackgroundPipeline:
    def _options(self):
        return corruption_options(background_compaction=True)

    def test_enospc_during_manual_compaction_parks(self):
        _manual_compaction_hits_a_full_disk(self._options())

    def test_pipeline_parks_instead_of_dying(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", self._options())
        expected = populate(db, rows=100)
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises((OutOfSpaceError, ReadOnlyError)):
            for i in range(500):  # enough writes to force a rotation
                db.put(f"extra{i:04d}".encode(), b"x" * 50)
        assert db.read_only
        # The background thread parked; it did not die into _bg_error.
        assert db._bg_thread is not None and db._bg_thread.is_alive()
        assert db._bg_error is None
        # Acknowledged data (tables + any parked immutable memtable)
        # still serves reads.
        got = dict(db.scan())
        for key, value in expected.items():
            assert got[key] == value
        db.close()

    def test_close_is_orderly_while_parked(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", self._options())
        populate(db, rows=60)
        vfs.schedule_enospc(vfs.op_count + 1)
        with pytest.raises((OutOfSpaceError, ReadOnlyError)):
            for i in range(500):
                db.put(f"extra{i:04d}".encode(), b"x" * 50)
        thread = db._bg_thread
        db.close()  # must join the parked thread, not hang or raise
        assert thread is not None and not thread.is_alive()

    def test_acked_writes_survive_pipeline_enospc(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", self._options())
        expected = populate(db, rows=100)
        acked = {}
        vfs.schedule_enospc(vfs.op_count + 1)
        try:
            for i in range(500):
                key = f"extra{i:04d}".encode()
                db.put(key, b"x" * 50)
                acked[key] = b"x" * 50
        except (OutOfSpaceError, ReadOnlyError):
            pass
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", self._options())
        got = dict(db.scan())
        for key, value in {**expected, **acked}.items():
            assert got[key] == value, f"acked write {key!r} lost"
        db.close()
