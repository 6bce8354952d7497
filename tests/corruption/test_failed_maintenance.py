"""A failed flush or compaction did not happen — whoever asked for it.

One write fault (EIO) or a full disk (ENOSPC) a few mutating ops into a
merge, for each of the three drivers of a compaction — auto-compaction
inside an inline ``flush()``, the background thread, ``compact_range()``.
Afterwards the compaction's partial outputs are gone
(``verify_integrity().ok``), its inputs are still live, every key still
reads, ENOSPC has parked the DB read-only, and once the fault is cleared
(and the DB reopened where the mode requires it) a second
``compact_range()`` succeeds.

The sweep at the bottom moves one write fault over every mutating op of an
inline load, and a seeded drill scatters write faults over the same load.
"""

from __future__ import annotations

import os

import pytest

from repro.lsm.db import DB
from repro.lsm.errors import (
    FaultInjectedError,
    OutOfSpaceError,
    ReadOnlyError,
)
from repro.lsm.faults import FaultInjectingVFS, FaultSchedule
from repro.lsm.options import Options

from drill_utils import table_files, wait_until, wal_files

ROUNDS = 3
KEYS = 60


def _options(**overrides) -> Options:
    base = dict(block_size=1024, sstable_target_size=4 * 1024,
                memtable_budget=1 << 30,  # flushes are explicit below
                l0_compaction_trigger=ROUNDS, l1_target_size=64 * 1024,
                compression="none")
    base.update(overrides)
    return Options(**base)


def _write_round(db: DB, r: int) -> None:
    for i in range(KEYS):
        db.put(f"k{i:03d}".encode(), f"r{r}-{i:03d}".encode() * 6)


def _expected() -> dict[bytes, bytes]:
    return {f"k{i:03d}".encode(): f"r{ROUNDS - 1}-{i:03d}".encode() * 6
            for i in range(KEYS)}


# -- the three drivers ---------------------------------------------------------
#
# Each driver is ``prepare(vfs) -> state`` (fault-free, deterministic) and
# ``trigger(vfs, state) -> db``, the call whose compaction gets the fault.


def _prepare_flush(vfs):
    """Two level-0 tables and a third round in the MemTable: the next
    flush() reaches the trigger and compacts inline."""
    db = DB.open(vfs, "db", _options())
    for r in range(ROUNDS):
        _write_round(db, r)
        if r < ROUNDS - 1:
            db.flush()
    return db


def _trigger_flush(vfs, db):
    db.flush()
    return db


def _prepare_tables(vfs):
    """ROUNDS overlapping level-0 tables, no compaction run yet."""
    db = DB.open(vfs, "db", _options(disable_auto_compaction=True))
    for r in range(ROUNDS):
        _write_round(db, r)
        db.flush()
    return db


def _trigger_compact_range(vfs, db):
    db.compact_range()
    return db


def _prepare_background(vfs):
    _prepare_tables(vfs).close()
    return None


def _trigger_background(vfs, _state):
    """Reopen on the pipeline: the thread finds level 0 at the trigger and
    compacts; nothing else touches the filesystem meanwhile."""
    db = DB.open(vfs, "db", _options(background_compaction=True))
    wait_until(lambda: db.compactor.stats.compaction_count > 0
          or db._bg_error is not None or db.read_only,
          "the background compaction")
    return db


DRIVERS = {
    # name: (prepare, trigger, index of the merge's first output among the
    #        tables the trigger creates, does the error reach the caller)
    "inline_flush": (_prepare_flush, _trigger_flush, 1, True),
    "background": (_prepare_background, _trigger_background, 0, False),
    "compact_range": (_prepare_tables, _trigger_compact_range, 0, True),
}


def _ops_into_merge(driver: str, ops: int = 3) -> int:
    """Mutating ops from the trigger's start to ``ops`` ops into its merge,
    learnt from a fault-free run (the engine is deterministic)."""
    prepare, trigger, merge_table, _raises = DRIVERS[driver]
    vfs = FaultInjectingVFS()
    state = prepare(vfs)
    start = vfs.op_count
    db = trigger(vfs, state)
    assert db.compactor.stats.compaction_count > 0
    db.close()
    creates = [index for index, (kind, name)
               in enumerate(vfs.op_log[start:], start=1)
               if kind == "create" and name.endswith(".ldb")]
    return creates[merge_table] + ops


def _assert_nothing_happened(vfs, db: DB) -> None:
    report = db.verify_integrity()
    assert report.ok, report.problems
    assert db.level_file_counts()[0] == ROUNDS      # inputs still live
    assert db.level_file_counts()[1] == 0
    assert len(table_files(vfs)) == ROUNDS          # and nothing else
    assert db.compactor.stats.compaction_count == 0
    assert dict(db.scan()) == _expected()


def _assert_second_compaction_succeeds(db: DB) -> None:
    db.compact_range()
    assert db.level_file_counts()[0] == 0
    report = db.verify_integrity()
    assert report.ok, report.problems
    assert dict(db.scan()) == _expected()


@pytest.mark.parametrize("driver", sorted(DRIVERS))
class TestFailedMerge:
    def test_write_fault_leaves_no_orphans(self, driver):
        prepare, trigger, _merge_table, raises = DRIVERS[driver]
        offset = _ops_into_merge(driver)
        vfs = FaultInjectingVFS()
        state = prepare(vfs)
        vfs.schedule_write_error(vfs.op_count + offset)
        if raises:
            with pytest.raises(FaultInjectedError):
                trigger(vfs, state)
            db = state
            assert not db.read_only
        else:
            db = trigger(vfs, state)
            # Nobody to raise to: the next writer hears about it.
            assert isinstance(db._bg_error, FaultInjectedError)
            with pytest.raises(FaultInjectedError):
                db.put(b"late", b"write")
        _assert_nothing_happened(vfs, db)
        if not raises:  # the sticky background error needs a fresh handle
            db.close()
            db = DB.open(vfs, "db", _options(disable_auto_compaction=True))
        _assert_second_compaction_succeeds(db)
        db.close()

    def test_enospc_parks_read_only_and_leaves_no_orphans(self, driver):
        prepare, trigger, _merge_table, raises = DRIVERS[driver]
        offset = _ops_into_merge(driver)
        vfs = FaultInjectingVFS()
        state = prepare(vfs)
        vfs.schedule_enospc(vfs.op_count + offset)
        if raises:
            with pytest.raises(OutOfSpaceError):
                trigger(vfs, state)
            db = state
        else:
            db = trigger(vfs, state)
            # Parked, not dead.
            assert db._bg_error is None
            assert db._bg_thread is not None and db._bg_thread.is_alive()
        assert db.read_only
        with pytest.raises(ReadOnlyError):
            db.put(b"late", b"write")
        _assert_nothing_happened(vfs, db)
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", _options(disable_auto_compaction=True))
        assert not db.read_only
        _assert_second_compaction_succeeds(db)
        db.close()


class TestFailedFlush:
    """``Compactor.flush_memtable`` deletes its one output the same way,
    and the pre-rotation WAL — the restored MemTable's, which recovery
    needs — is no orphan until a later flush installs and deletes it."""

    @pytest.mark.parametrize("schedule, error", [
        ("schedule_write_error", FaultInjectedError),
        ("schedule_enospc", OutOfSpaceError),
    ])
    def test_failed_flush_deletes_its_table(self, schedule, error):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", _options())
        _write_round(db, ROUNDS - 1)
        # +1 is the rotated WAL's create, +2 the table's; fail inside it.
        getattr(vfs, schedule)(vfs.op_count + 5)
        with pytest.raises(error):
            db.flush()
        assert table_files(vfs) == []
        assert db.verify_integrity().ok
        assert dict(db.scan()) == _expected()  # the MemTable went back
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", _options())
        assert dict(db.scan()) == _expected()
        db.flush()
        assert db.verify_integrity().ok
        db.close()

    @staticmethod
    def _at_the_manifest_sync_of_a_flush():
        """``(vfs, db, at_op)``: a loaded MemTable and the mutating op at
        which its flush will sync the version edit."""
        probe = FaultInjectingVFS()
        db = DB.open(probe, "db", _options())
        _write_round(db, ROUNDS - 1)
        start = probe.op_count
        db.flush()
        db.close()
        at_op = next(index for index, (kind, name)
                     in enumerate(probe.op_log[start:], start=start + 1)
                     if kind == "sync" and "MANIFEST" in name)
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", _options())
        _write_round(db, ROUNDS - 1)
        return vfs, db, at_op

    def test_fault_in_the_install_deletes_the_table_and_settles_the_manifest(
            self):
        """The flush edit's manifest sync fails: the record is in the file,
        un-synced, and the table is deleted — a reopen must not replay it."""
        vfs, db, at_op = self._at_the_manifest_sync_of_a_flush()
        vfs.schedule_write_error(at_op)
        with pytest.raises(FaultInjectedError):
            db.flush()
        assert table_files(vfs) == []
        db.put(b"after", b"the-fault")  # a later edit syncs the manifest
        db.flush()
        assert len(wal_files(vfs)) == 1  # the failed flush's WAL went too
        assert db.verify_integrity().ok
        db.close()
        db = DB.open(vfs, "db", _options())
        assert dict(db.scan()) == {**_expected(), b"after": b"the-fault"}
        assert db.verify_integrity().ok
        db.close()

    def test_full_disk_in_the_install_keeps_the_table_it_may_have_named(self):
        """ENOSPC at the same sync: no fresh manifest can be written either,
        so whether a reopen replays the edit stays unknown and the table
        must stay for it."""
        vfs, db, at_op = self._at_the_manifest_sync_of_a_flush()
        vfs.schedule_enospc(at_op)
        with pytest.raises(OutOfSpaceError):
            db.flush()
        assert db.read_only
        assert len(table_files(vfs)) == 1
        assert dict(db.scan()) == _expected()
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", _options())
        assert dict(db.scan()) == _expected()
        assert db.verify_integrity().ok
        db.close()


class TestFailedRetire:
    """A delete fault on a retired compaction input: the edit that dropped
    it is applied, so the compaction stands and reports no error; the input
    waits as a zombie and the next sweep — the next retire, or ``close()``
    — deletes it without a reopen."""

    @staticmethod
    def _retire_fault():
        """``(vfs, db, name)``: a ``flush()`` whose inline compaction
        failed to delete its first retired input, ``name``."""
        probe = FaultInjectingVFS()
        db = _prepare_flush(probe)
        start = probe.op_count
        db.flush()
        db.close()
        at_op, name = next((index, name) for index, (kind, name)
                           in enumerate(probe.op_log[start:], start=start + 1)
                           if kind == "delete" and name.endswith(".ldb"))
        vfs = FaultInjectingVFS()
        db = _prepare_flush(vfs)
        vfs.schedule_write_error(at_op)
        db.flush()  # no error: the compaction installed
        assert db.compactor.stats.compaction_count == 1
        assert db.level_file_counts()[0] == 0
        assert vfs.exists(name)
        assert db.verify_integrity().problems == [
            f"orphaned table file {name}"]
        return vfs, db, name

    def test_next_retire_deletes_it(self):
        vfs, db, name = self._retire_fault()
        for r in range(ROUNDS):
            _write_round(db, r)
            db.flush()
        assert db.compactor.stats.compaction_count > 1
        assert not vfs.exists(name)
        report = db.verify_integrity()
        assert report.ok, report.problems
        assert dict(db.scan()) == _expected()
        db.close()

    def test_close_deletes_it(self):
        vfs, db, name = self._retire_fault()
        db.close()
        assert not vfs.exists(name)
        db = DB.open(vfs, "db", _options())
        report = db.verify_integrity()
        assert report.ok, report.problems
        assert dict(db.scan()) == _expected()
        db.close()


# -- one write fault at every mutating op of an inline load ------------------------


def _sweep_options() -> Options:
    return Options(memtable_budget=2048, sstable_target_size=4096,
                   l0_compaction_trigger=2, l1_target_size=8192)


def _sweep_key(i: int) -> bytes:
    return b"k%05d" % (i * 7919 % 300)


SWEEP_VALUE = b"v" * 40


def _sweep_run(vfs):
    """300 PUTs; returns ``(db, acked, report)`` — ``report`` is
    ``verify_integrity()`` read in the ``except`` of the first failing PUT
    (``None`` if no PUT failed), after which the load carries on."""
    db = DB.open(vfs, "db", _sweep_options())
    acked, report = [], None
    for i in range(300):
        try:
            db.put(_sweep_key(i), SWEEP_VALUE)
        except FaultInjectedError:
            if report is None:
                report = db.verify_integrity()
            continue
        acked.append(_sweep_key(i))
    return db, acked, report


def test_write_fault_sweep_never_orphans_a_table():
    clean = FaultInjectingVFS()
    db, acked, report = _sweep_run(clean)
    db.close()
    assert report is None and len(acked) == 300
    op_log = list(clean.op_log)

    failing_puts = 0
    orphaned_at = []
    for at_op, (kind, name) in enumerate(op_log, start=1):
        vfs = FaultInjectingVFS()
        vfs.schedule_write_error(at_op)
        try:
            db, acked, report = _sweep_run(vfs)
        except FaultInjectedError:
            continue  # the fault hit DB.open itself
        if report is not None:
            failing_puts += 1
            orphaned_at += [(at_op, kind, name, p) for p in report.problems
                            if p.startswith("orphaned table file")]
        if "MANIFEST" not in name and (kind, name[-4:]) != ("create", ".log"):
            continue
        # A failed version edit: nothing it named may come back on reopen.
        # A failed WAL rotation: the writer stayed on the old WAL, so every
        # later acknowledged PUT is replayable from it.
        try:
            db.close()
        except OSError:
            pass
        db = DB.open(vfs, "db", _sweep_options())
        assert all(db.get(key) == SWEEP_VALUE for key in acked), at_op
        report = db.verify_integrity()
        assert report.ok, (at_op, kind, name, report.problems)
        db.close()
    assert failing_puts > 500
    assert orphaned_at == []


def test_seeded_write_faults_keep_every_acked_put():
    """Random-but-seeded write faults (EIO) over the sweep's load, past
    ``DB.open``: every acknowledged PUT survives a fault-free reopen and the
    store verifies clean.  The failure message carries the seed so a red
    run replays exactly (``REPRO_CHAOS_SEED=...``)."""
    clean = FaultInjectingVFS()
    db, _acked, _report = _sweep_run(clean)
    db.close()
    probe = FaultInjectingVFS()
    DB.open(probe, "db", _sweep_options()).close()
    base_seed = int(os.environ.get("REPRO_CHAOS_SEED", "20260809"))
    rounds = 12 if os.environ.get("REPRO_DIST_DRILLS") == "full" else 4
    for seed in range(base_seed, base_seed + rounds):
        chaos = FaultSchedule.random(seed, writes=clean.op_count,
                                     fault_rate=0.02)
        vfs = FaultInjectingVFS(schedule=FaultSchedule(
            fault for fault in chaos.faults if fault[1] > probe.op_count))
        try:
            db, acked, _report = _sweep_run(vfs)
            assert vfs.schedule.injected  # the faults actually fired
            try:
                db.close()
            except OSError:
                pass
            vfs.schedule.disarm("write")
            db = DB.open(vfs, "db", _sweep_options())
            assert all(db.get(key) == SWEEP_VALUE for key in acked)
            report = db.verify_integrity()
            assert report.ok, report.problems
            db.close()
        except BaseException as exc:
            raise AssertionError(
                f"storage chaos round failed; replay with "
                f"REPRO_CHAOS_SEED={seed} (injected: "
                f"{vfs.schedule.injected!r})") from exc
