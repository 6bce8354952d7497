"""Crash drills against the background pipeline.

The PR-1 fault harness cut power at every mutating op of an *inline*
engine.  Here the same :class:`FaultInjectingVFS` runs under a live
background thread, so the crash can land mid-background-flush or
mid-background-compaction.  After each crash the surviving image is
reopened with the default (inline) engine and audited: acknowledged
writes must have survived (``sync_writes=True``), nothing invented,
``verify_integrity`` clean.
"""

from __future__ import annotations

import contextlib

from repro.lsm.db import DB
from repro.lsm.errors import SimulatedCrashError
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.options import Options
from scheduling import DeterministicScheduler

SCRIPT = [(b"k%03d" % i, b"v%03d-" % i + b"x" * 12) for i in range(80)]

# With sync_writes=True and memtable_budget=512 the script produces a few
# hundred mutating ops spanning WAL appends, rotations, background flushes
# and compactions; the sampled crash points land in all of those phases.
CRASH_POINTS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]


def _run_crash_drill(at_op):
    vfs = FaultInjectingVFS()
    vfs.schedule_crash(at_op)
    acked = []
    opts = Options(background_compaction=True, sync_writes=True,
                   memtable_budget=512, l0_compaction_trigger=2)
    db = None
    try:
        db = DB.open(vfs, "db", opts)
        for key, value in SCRIPT:
            db.put(key, value)
            acked.append((key, value))
        db.flush()
        db.close()
    except Exception:  # noqa: BLE001 - the crash surfaces wherever it lands
        pass
    finally:
        if db is not None:
            # First close() always joins the background thread before any
            # further VFS op can raise, so this never leaks the thread.
            with contextlib.suppress(Exception):
                db.close()
    return vfs, acked


def _check_recovery(image, acked):
    db = DB.open(image, "db", Options())
    try:
        report = db.verify_integrity()
        assert report.ok, report
        recovered = dict(db.scan())
    finally:
        db.close()
    for key, value in acked:
        assert recovered.get(key) == value, f"lost acked write {key!r}"
    written = dict(SCRIPT)
    for key, value in recovered.items():
        assert written.get(key) == value, f"phantom data {key!r}"


def test_crash_drills_across_background_pipeline():
    crashed = 0
    for at_op in CRASH_POINTS:
        vfs, acked = _run_crash_drill(at_op)
        if not vfs.crashed:
            # Workload finished before the fuse: everything must be there.
            assert len(acked) == len(SCRIPT)
        else:
            crashed += 1
        for unsynced in ("drop", "torn"):
            _check_recovery(vfs.crash_image(unsynced), acked)
    assert crashed >= len(CRASH_POINTS) - 2, "fuse lengths need retuning"


def test_crash_mid_background_work_specifically():
    """Probe a dense band of crash points chosen to straddle the first
    background flush/compaction (table build + manifest install + WAL
    retirement), the window where the handoff invariants matter most."""
    # A full fault-free run of this workload performs a few hundred ops;
    # the first flush lands within the first ~120 of them.
    for at_op in range(60, 132, 6):
        vfs, acked = _run_crash_drill(at_op)
        _check_recovery(vfs.crash_image("drop"), acked)


def test_deterministic_crash_replay():
    """Same seed + same fuse => same acked prefix and identical image."""

    def run(seed, at_op):
        vfs = FaultInjectingVFS()
        vfs.schedule_crash(at_op)
        sched = DeterministicScheduler(seed=seed)
        acked = []
        opts = Options(background_compaction=True, sync_writes=True,
                       memtable_budget=400, l0_compaction_trigger=2,
                       step_hook=sched)
        db = None
        try:
            db = DB.open(vfs, "db", opts)

            def writer():
                try:
                    for i in range(40):
                        key = b"dk%02d" % i
                        db.put(key, b"x" * 16)
                        acked.append(key)
                except SimulatedCrashError:
                    pass

            thread = sched.spawn("w", writer)
            sched.wait_threads(thread)
            db.flush()
            db.close()
        except Exception:  # noqa: BLE001
            pass
        finally:
            if db is not None:
                with contextlib.suppress(Exception):
                    db.close()
            sched.shutdown()
        image = vfs.crash_image("drop")
        files = {name: image.read_whole(name)
                 for name in image.list_dir("")}
        return tuple(acked), files

    for seed, at_op in [(7, 25), (7, 60), (3, 90)]:
        first = run(seed, at_op)
        second = run(seed, at_op)
        assert first == second, f"crash replay diverged at {(seed, at_op)}"
