"""Background flush/compaction pipeline tests.

Real-thread tests exercise the pipeline the way production would (OS
scheduling, actual contention); deterministic-scheduler tests pin down
properties that depend on a specific interleaving — group commit forming,
bit-for-bit seed replay — that free-running threads can only hit by luck.
"""

from __future__ import annotations

import hashlib
import random
import threading

from repro.lsm.db import DB
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from scheduling import DeterministicScheduler
from repro.lsm.vfs import LocalVFS, MemoryVFS


def test_background_pipeline_smoke():
    opts = Options(background_compaction=True, memtable_budget=2048,
                   l0_compaction_trigger=2)
    db = DB.open_memory(opts)
    value = b"v" * 40
    for i in range(400):
        db.put(b"k%05d" % i, value)
    db.flush()
    pipe = db.stats()["pipeline"]
    assert pipe["background"] is True
    assert pipe["bg_flushes"] > 0
    assert pipe["imm_pending"] == 0  # flush() drains the handoff
    assert pipe["bg_error"] is None
    # Single client thread: every put is its own commit group.
    assert pipe["group_commit_batches"] == 400
    assert pipe["write_groups"] == 400
    assert db.get(b"k00000") == value
    assert sum(1 for _ in db.scan()) == 400
    report = db.verify_integrity()
    assert report.ok, report
    db.close()


def test_concurrent_writers_real_threads():
    opts = Options(background_compaction=True, memtable_budget=4096,
                   l0_compaction_trigger=2)
    db = DB.open_memory(opts)
    errors = []

    def writer(tid):
        try:
            for i in range(150):
                db.put(b"t%d-%04d" % (tid, i), b"x" * 30)
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(tid,))
               for tid in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    db.flush()
    assert sum(1 for _ in db.scan()) == 600
    for tid in range(4):
        assert db.get(b"t%d-0149" % tid) == b"x" * 30
    pipe = db.stats()["pipeline"]
    assert pipe["group_commit_batches"] == 600
    assert 1 <= pipe["write_groups"] <= 600
    assert pipe["max_group_batches"] >= 1
    assert pipe["bg_error"] is None
    report = db.verify_integrity()
    assert report.ok, report
    db.close()


#: Small zlib geometry: a few hundred puts per writer make flushes, merges
#: and trivial moves (level 1 into an empty level 2) all happen.
MAINTENANCE_HEAVY = dict(block_size=2048, sstable_target_size=16 * 1024,
                         memtable_budget=8 * 1024, l1_target_size=64 * 1024,
                         compression="zlib")


def _flush_threads(background, writers):
    """Run ``writers`` put streams on real threads.

    Returns the counters ``stats()["pipeline"]`` and ``["compaction"]``
    render, read once ``close()`` has joined the background thread (so no
    maintenance is mid-flight), and the name of the thread each flush ran
    on, recorded by a wrapper around the compactor's flush.
    """
    db = DB.open_memory(Options(background_compaction=background,
                                **MAINTENANCE_HEAVY))
    flushed_on = []
    flush_memtable = db.compactor.flush_memtable

    def recording_flush(*args, **kwargs):
        meta = flush_memtable(*args, **kwargs)
        flushed_on.append(threading.current_thread().name)
        return meta

    db.compactor.flush_memtable = recording_flush

    def writer(tid):
        rng = random.Random(tid)  # values zlib cannot shrink
        for i in range(600):
            db.put(b"t%d-%06d" % (tid, i), rng.randbytes(60 + i * 7919 % 80))

    threads = [threading.Thread(target=writer, args=(tid,),
                                name=f"writer-{tid}")
               for tid in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    assert sum(1 for _ in db.scan()) == 600 * writers
    db.close()
    return db.pipeline_stats, db.compactor.stats, flushed_on


def test_no_writer_pays_for_a_flush_or_a_merge():
    """The pipeline's tail-latency win, as the structure that earns it:
    every flush and every compaction ran on the background thread."""
    pipeline, compaction, flushed_on = _flush_threads(True, writers=4)
    assert flushed_on and set(flushed_on) == {"bg:db"}
    assert pipeline.bg_flushes == compaction.flush_count == len(flushed_on)
    assert compaction.compaction_count > 0
    assert compaction.trivial_moves > 0
    assert pipeline.bg_compactions == \
        compaction.compaction_count + compaction.trivial_moves


def test_inline_writer_pays_for_its_flushes():
    """The inline twin: the same load flushes on the caller's thread, so
    the test above can tell the two modes apart."""
    pipeline, compaction, flushed_on = _flush_threads(False, writers=1)
    assert flushed_on and set(flushed_on) == {"writer-0"}
    assert compaction.flush_count == len(flushed_on)
    assert pipeline.bg_flushes == pipeline.bg_compactions == 0
    assert compaction.compaction_count + compaction.trivial_moves > 0


def _identity_options(**overrides):
    base = dict(sstable_target_size=8 * 1024, memtable_budget=8 * 1024,
                l0_compaction_trigger=64, l0_slowdown_writes_trigger=80,
                l0_stop_writes_trigger=96)
    base.update(overrides)
    return Options(**base)


def _load(db, rounds=6, keys=120):
    """Deterministic overlapping L0 tables: overwrites, deletes, churn."""
    for r in range(rounds):
        for i in range(keys):
            db.put(f"k{i:04d}".encode(), f"r{r}-v{i}".encode() * 8)
        for i in range(0, keys, 7):
            db.delete(f"k{i:04d}".encode())
        db.flush()


def _expect(db, rounds=6, keys=120):
    last = rounds - 1
    for i in range(keys):
        value = db.get(f"k{i:04d}".encode())
        if i % 7 == 0:
            assert value is None, i
        else:
            assert value == f"r{last}-v{i}".encode() * 8, i


def _level_hashes(db):
    """Per-level multisets of table-content hashes (file numbers ignored)."""
    shapes = []
    for files in db.versions.current.levels:
        digests = sorted(
            hashlib.sha256(db.vfs.read_whole(
                table_file_name(db.name, meta.file_number))).hexdigest()
            for meta in files)
        shapes.append(digests)
    return shapes


def test_same_tables_inline_and_threaded(tmp_path):
    """The scheduler decides which thread merges, never what is written."""
    shapes = {}
    modes = {
        "inline": dict(background_compaction=False),
        "threaded": dict(background_compaction=True),
    }
    for mode, overrides in modes.items():
        vfs = LocalVFS(str(tmp_path / mode))
        db = DB.open(vfs, "db", _identity_options(**overrides))
        try:
            _load(db)
            db.compact_range()
            _expect(db)
            shapes[mode] = _level_hashes(db)
        finally:
            db.close()
    assert shapes["inline"] == shapes["threaded"]


def test_reopen_inline_after_background_run():
    vfs = MemoryVFS()
    opts = Options(background_compaction=True, memtable_budget=1024,
                   l0_compaction_trigger=2)
    db = DB.open(vfs, "db", opts)
    for i in range(300):
        db.put(b"r%04d" % i, b"val-%d" % i)
        if i % 3 == 0:
            db.delete(b"r%04d" % i)
    db.close()
    # The default (inline) engine must read what the pipeline wrote.
    db = DB.open(vfs, "db", Options())
    for i in range(300):
        expected = None if i % 3 == 0 else b"val-%d" % i
        assert db.get(b"r%04d" % i) == expected
    report = db.verify_integrity()
    assert report.ok, report
    db.close()


def test_write_stall_backpressure():
    # A tiny memtable and a low L0 ceiling force the foreground to wait on
    # the background stages: rotations outrun flushes (stall:memtable) and
    # flushes outrun compactions (slowdown / stall:stop).
    opts = Options(background_compaction=True, memtable_budget=256,
                   l0_compaction_trigger=2, l0_slowdown_writes_trigger=2,
                   l0_stop_writes_trigger=4,
                   slowdown_sleep_seconds=0.0001)
    db = DB.open_memory(opts)
    for i in range(500):
        db.put(b"s%04d" % i, b"y" * 30)
    db.flush()
    pipe = db.stats()["pipeline"]
    assert pipe["stall_events"] + pipe["slowdown_events"] > 0
    assert pipe["stall_seconds"] >= 0.0
    assert sum(1 for _ in db.scan()) == 500
    report = db.verify_integrity()
    assert report.ok, report
    db.close()


def test_group_commit_forms_under_scheduler():
    """Some interleaving must commit several queued writers in one group."""

    def run(seed):
        sched = DeterministicScheduler(seed=seed)
        opts = Options(background_compaction=True, step_hook=sched)
        db = DB.open_memory(opts)

        def writer(tid):
            db.put(b"gc%d" % tid, b"v%d" % tid)

        threads = [sched.spawn(f"w{tid}", writer, tid) for tid in range(3)]
        sched.wait_threads(*threads)
        pipe = db.stats()["pipeline"]
        data = sorted(db.scan())
        db.close()
        sched.shutdown()
        return pipe, data

    best_group = 0
    for seed in range(25):
        pipe, data = run(seed)
        assert data == [(b"gc0", b"v0"), (b"gc1", b"v1"), (b"gc2", b"v2")]
        assert pipe["group_commit_batches"] == 3
        assert 1 <= pipe["write_groups"] <= 3
        best_group = max(best_group, pipe["max_group_batches"])
    assert best_group >= 2, "no seed ever merged writers into one group"


def test_stalls_reachable_under_scheduler():
    """Across seeds, some schedule drives the engine into a stall wait."""
    labels = set()
    for seed in range(20):
        sched = DeterministicScheduler(seed=seed)
        opts = Options(background_compaction=True, memtable_budget=100,
                       l0_compaction_trigger=2,
                       l0_slowdown_writes_trigger=2,
                       l0_stop_writes_trigger=2,
                       slowdown_sleep_seconds=0.0,
                       step_hook=sched)
        db = DB.open_memory(opts)

        def writer():
            for i in range(12):
                db.put(b"z%02d" % i, b"w" * 16)

        thread = sched.spawn("w", writer)
        sched.wait_threads(thread)
        assert sum(1 for _ in db.scan()) == 12
        db.close()
        sched.shutdown()
        labels.update(label for _name, label in sched.trace)
    assert any(label.startswith("stall:") for label in labels), labels


def test_same_seed_is_bit_for_bit_identical():
    """Same seed => same schedule => byte-identical files on disk."""

    def run(seed):
        sched = DeterministicScheduler(seed=seed)
        vfs = MemoryVFS()
        opts = Options(background_compaction=True, memtable_budget=300,
                       l0_compaction_trigger=2, step_hook=sched)
        db = DB.open(vfs, "db", opts)

        def writer(tid):
            for i in range(15):
                db.put(b"t%d-%02d" % (tid, i), bytes([65 + tid]) * 20)

        t1 = sched.spawn("w1", writer, 1)
        t2 = sched.spawn("w2", writer, 2)
        sched.wait_threads(t1, t2)
        db.flush()
        data = tuple(db.scan())
        db.close()
        sched.shutdown()
        files = {name: vfs.read_whole(name) for name in vfs.list_dir("")}
        return tuple(sched.trace), data, files

    first = run(11)
    second = run(11)
    assert first == second  # trace, scan contents, and every file byte
    other = run(12)
    assert other[0] != first[0]  # a different seed takes a different path
    assert sorted(other[1]) == sorted(first[1])  # ...to the same data
