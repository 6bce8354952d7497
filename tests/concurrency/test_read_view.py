"""The read view's MemTable set is what the gauges report.

A sealed MemTable still waiting for its flush is part of every read's view
(:meth:`DB._acquire_view`); ``DB.stats()`` and ``num_nonempty_levels()`` —
the paper's *L*, fed to the cost model — must count it too.
"""

from __future__ import annotations

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.testing import DeterministicScheduler


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
