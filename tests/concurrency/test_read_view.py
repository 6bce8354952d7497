"""The read view's MemTable set is what the gauges and GetLite see.

A sealed MemTable still waiting for its flush is part of every read's view
(:class:`repro.lsm.db.ReadView`); ``DB.stats()`` and
``num_nonempty_levels()`` — the paper's *L*, fed to the cost model — must
count it too, and GetLite (:meth:`ReadView.newer_version`) must find a
newer version parked there.
"""

from __future__ import annotations

import threading

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.options import Options
from scheduling import DeterministicScheduler
from repro.lsm.vfs import MemoryVFS


def test_gauges_count_a_sealed_unflushed_memtable():
    # ``default="first"`` always resumes the first eligible task by name —
    # this thread — so the background thread never gets to flush: the
    # MemTable the leader seals stays pending for as long as the test looks.
    sched = DeterministicScheduler(default="first")
    db = DB.open_memory(Options(background_compaction=True, step_hook=sched,
                                memtable_budget=2048))
    written = 0
    while db.imm is None:
        db.put(b"k%05d" % written, b"v" * 40)
        written += 1
        assert written < 1000, "the leader never sealed the MemTable"
    sealed, active = db.imm, db.memtable
    assert len(sealed) == written and len(active) == 0
    assert db.level_file_counts() == [0] * db.options.max_levels
    stats = db.stats()
    assert stats["pipeline"]["imm_pending"] == 1
    assert stats["memtable_entries"] == written
    assert stats["memtable_bytes"] == sealed.approximate_memory_usage
    # Nothing on disk yet, an empty active MemTable — but the data exists,
    # in one in-memory component the cost model must count.
    assert db.num_nonempty_levels() == 1
    assert db.get(b"k00000") == b"v" * 40
    sched.shutdown()
    db.flush()
    assert db.stats()["memtable_entries"] == 0
    assert db.num_nonempty_levels() == 1  # now the level-0 table
    db.close()


def test_getlite_sees_a_newer_version_in_the_sealed_memtable():
    # An earlier, inline life of the store leaves one version on disk.
    vfs = MemoryVFS()
    db = DB.open(vfs, "db", Options())
    old_seq = db.put(b"t1", b"old")
    db.flush()
    db.close()
    # Same pattern as above: the leader seals, the background thread is
    # held at its next yield point, and the newer version of ``t1`` sits
    # in ``imm`` — neither in the active MemTable nor in any table.
    sched = DeterministicScheduler(default="first")
    db = DB.open(vfs, "db", Options(background_compaction=True,
                                    step_hook=sched, memtable_budget=2048))
    new_seq = db.put(b"t1", b"new")
    written = 0
    while db.imm is None:
        db.put(b"k%05d" % written, b"v" * 40)
        written += 1
        assert written < 1000, "the leader never sealed the MemTable"
    assert db.imm.get(b"t1").seq == new_seq and len(db.memtable) == 0
    assert db.level_file_counts()[0] == 1
    reads_before = vfs.stats.read_blocks
    with db.read_view() as view:
        assert view.newest_in_memory(b"t1")[1] == new_seq
        # GetLite on the on-disk version (found at level 0, so only the
        # MemTables can hold anything newer): stale.
        assert view.newer_version(b"t1", old_seq, 0, 0) == (True, 0, 1)
        assert view.newer_version(b"t1", new_seq, 0, 0) == (False, 0, 1)
    assert vfs.stats.read_blocks == reads_before  # resolved in memory
    sched.shutdown()
    db.close()


def test_getlite_ignores_a_version_not_yet_published():
    """A writer parked before it publishes its sequence has put its new
    version in the MemTable, but no read view includes it yet: GET returns
    the old document, and so must an Embedded LOOKUP, whose GetLite probe
    sees the same view."""
    writer_parked, release = threading.Event(), threading.Event()

    def hook(label: str) -> None:
        if label == "write:publish" \
                and threading.current_thread().name == "updater":
            writer_parked.set()
            release.wait(timeout=30)

    db = SecondaryIndexedDB.open_memory(
        {"u": IndexKind.EMBEDDED},
        Options(background_compaction=True, step_hook=hook))
    old_seq = db.put("t1", {"u": "alice"})
    db.flush()
    updater = threading.Thread(
        target=db.put, args=("t1", {"u": "bob"}), name="updater")
    updater.start()
    try:
        assert writer_parked.wait(timeout=30)
        assert db.get("t1") == {"u": "alice"}
        assert [(r.key, r.seq) for r in db.lookup("u", "alice")] == \
            [("t1", old_seq)]
        assert db.lookup("u", "bob") == []
    finally:
        release.set()
        updater.join(timeout=30)
    assert not updater.is_alive()
    assert [r.key for r in db.lookup("u", "bob")] == ["t1"]
    assert db.lookup("u", "alice") == []
    db.close()


def test_inline_view_is_reused_until_a_seal_or_an_install():
    """The inline scheduler reuses one pin-free view per DB; a write that
    seals the MemTable or installs a Version is seen by the very next
    read."""
    db = DB.open_memory(Options(memtable_budget=1 << 20,
                                disable_auto_compaction=True))
    db.put(b"a", b"1")
    db.put(b"b", b"1")
    assert db.get(b"a") == b"1"
    view = db._acquire_view()
    assert db._acquire_view() is view  # nothing changed: the same view
    db.flush()  # seals the MemTable
    db.put(b"a", b"2")  # lands in the new MemTable
    assert db.get(b"a") == b"2"
    assert db._acquire_view().memtables == (db.memtable,)
    db.flush()  # two overlapping level-0 tables; the MemTable is empty
    assert db.get(b"a") == b"2"
    memtable = db.memtable
    db.compact_range()  # installs a Version, deletes both tables, no seal
    assert db.memtable is memtable
    assert db.get(b"a") == b"2" and db.get(b"b") == b"1"
    assert db._acquire_view().version is db.versions.current
    db.close()
