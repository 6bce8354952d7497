"""Multiprocess compaction: byte identity, crash drills, lifecycle.

Worker processes are spawned (slow-ish per spawn), so tests share DBs
where they can and keep datasets small.
"""

import hashlib
import os
import signal
import threading
import time

import pytest

from repro.core.posting import posting_merge_operator
from repro.lsm.checker import verify_integrity
from repro.lsm.compaction import InProcessExecutor
from repro.lsm.db import DB
from repro.lsm.errors import (
    CompactionWorkerError,
    FaultInjectedError,
    OutOfSpaceError,
)
from repro.lsm.faults import FaultSchedule
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.procpool import (
    create_executor,
    restore_options,
    snapshot_options,
)
from repro.lsm.vfs import LocalVFS, MemoryVFS


def _options(**overrides):
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


class TestByteIdentity:
    def test_same_tables_inline_threaded_multiprocess(self, tmp_path):
        shapes = {}
        modes = {
            "inline": dict(background_compaction=False),
            "threaded": dict(background_compaction=True),
            "process": dict(background_compaction=True,
                            compaction_processes=1,
                            shm_cache_bytes=256 * 1024),
        }
        for mode, overrides in modes.items():
            vfs = LocalVFS(str(tmp_path / mode))
            db = DB.open(vfs, "db", _options(**overrides))
            try:
                _load(db)
                db.compact_range()
                if mode == "process":
                    workers = db.stats()["pipeline"]["workers"]
                    assert workers["jobs_completed"] > 0
                    assert workers["jobs_failed"] == 0
                _expect(db)
                shapes[mode] = _level_hashes(db)
            finally:
                db.close()
        assert shapes["inline"] == shapes["threaded"]
        assert shapes["inline"] == shapes["process"]

    def test_merge_operator_folds_identically(self, tmp_path):
        from repro.core.posting import encode_posting_list

        shapes = {}
        for mode, processes in (("inline", 0), ("process", 1)):
            vfs = LocalVFS(str(tmp_path / mode))
            db = DB.open(vfs, "db", _options(
                merge_operator=posting_merge_operator,
                compaction_processes=processes))
            try:
                seq = 0
                for r in range(5):
                    for i in range(40):
                        seq += 1
                        db.merge(f"p{i:03d}".encode(), encode_posting_list(
                            [[f"doc-{r}-{i}", seq]]))
                    db.flush()
                db.compact_range()
                assert b"doc-0-7" in db.get(b"p007")
                assert b"doc-4-7" in db.get(b"p007")
                shapes[mode] = _level_hashes(db)
            finally:
                db.close()
        assert shapes["inline"] == shapes["process"]


class TestWorkerCrash:
    def test_planned_exit_retries_on_fresh_worker(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1))
        try:
            _load(db, rounds=4)
            # Kill the worker partway into writing the first output; the
            # retry must strip the plan and complete on a respawned worker.
            db._executor.arm_fault(FaultSchedule([("write", 3, "exit")]))
            db.compact_range()
            _expect(db, rounds=4)
            workers = db.stats()["pipeline"]["workers"]
            assert workers["jobs_retried"] >= 1
            assert workers["jobs_failed"] >= 1
            assert any(w["restarts"] >= 1 for w in workers["per_worker"])
            assert verify_integrity(db).ok
        finally:
            db.close()

    def test_sigkill_mid_job_retries_and_leaves_no_orphans(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1))
        try:
            _load(db, rounds=4)
            # A real SIGKILL, not a cooperative exit: fire it from a timer
            # while the coordinator blocks on the job.
            pid = db._executor.worker_pids()[0]
            threading.Timer(0.05, os.kill, args=(pid, signal.SIGKILL)).start()
            db.compact_range()  # retried on the respawned worker
            _expect(db, rounds=4)
            assert verify_integrity(db).ok
        finally:
            db.close()

    def test_repeated_deaths_abandon_cleanly(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1))
        try:
            _load(db, rounds=3)
            from repro.lsm import procpool

            original = procpool.MAX_JOB_RETRIES
            procpool.MAX_JOB_RETRIES = 0
            try:
                db._executor.arm_fault(FaultSchedule([("write", 3, "exit")]))
                with pytest.raises(CompactionWorkerError):
                    db.compact_range()
            finally:
                procpool.MAX_JOB_RETRIES = original
            # Inputs stay live, no orphan outputs, DB fully usable.
            _expect(db, rounds=3)
            assert verify_integrity(db).ok
            db.compact_range()
            _expect(db, rounds=3)
        finally:
            db.close()

    def test_write_fault_in_worker_abandons_without_orphans(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1))
        try:
            _load(db, rounds=3)
            db._executor.arm_fault(FaultSchedule([("write", 5, "error")]))
            with pytest.raises(FaultInjectedError):
                db.compact_range()
            _expect(db, rounds=3)
            assert verify_integrity(db).ok
            db.compact_range()  # plan was one-shot; now clean
            assert verify_integrity(db).ok
        finally:
            db.close()

    def test_worker_enospc_maps_to_out_of_space(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1))
        try:
            _load(db, rounds=3)
            db._executor.arm_fault(
                FaultSchedule([("write", 4, "enospc", None)]))
            with pytest.raises(OutOfSpaceError):
                db.compact_range()
            assert db.read_only
            assert verify_integrity(db).ok
        finally:
            db.close()

    def test_close_never_hangs_on_dead_workers(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=2))
        _load(db, rounds=2)
        for pid in db._executor.worker_pids():
            os.kill(pid, signal.SIGKILL)
        started = time.monotonic()
        db.close()
        assert time.monotonic() - started < 10.0


class TestExecutorGating:
    def test_memory_vfs_falls_back_inline(self):
        db = DB.open(MemoryVFS(), "db",
                     _options(compaction_processes=2))
        try:
            assert db._executor is None
            _load(db, rounds=2)
            db.compact_range()
            _expect(db, rounds=2)
        finally:
            db.close()

    def test_lambda_merge_operator_falls_back(self, tmp_path):
        options = _options(compaction_processes=1,
                           merge_operator=lambda key, ops: ops[-1])
        db = DB.open(LocalVFS(str(tmp_path)), "db", options)
        try:
            assert db._executor is None
            assert isinstance(db.compactor.executor, InProcessExecutor)
        finally:
            db.close()

    def test_default_stays_in_process(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db", _options())
        try:
            assert db._executor is None
            assert db.stats()["pipeline"]["workers"] is None
            assert db.stats()["pipeline"]["shm_cache"] is None
        finally:
            db.close()


    def test_a_trivial_move_is_never_shipped(self, tmp_path):
        """Disjoint tables at a level-0 trigger of one: every compaction is
        a relabel, decided before there is a job — the worker stays idle."""
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1,
                              l0_compaction_trigger=1))
        try:
            for r in range(4):
                for i in range(40):
                    db.put(b"t%02d-%03d" % (r, i), b"v" * 60)
                db.flush()
            assert db.stats()["compaction"]["trivial_moves"] >= 4
            assert db.stats()["pipeline"]["workers"]["jobs_dispatched"] == 0
            assert db.level_file_counts()[0] == 0
            assert db.get(b"t00-000") == b"v" * 60
        finally:
            db.close()


class TestInterference:
    def test_reads_complete_while_a_worker_merges(self, tmp_path):
        """The coordinator does not hold the DB across its wait on the
        worker pipe: GETs begin and end while a merge is in a worker."""
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(background_compaction=True,
                              compaction_processes=2))
        try:
            _load(db, rounds=6, keys=400)
            in_worker = threading.Event()
            run_job = db._executor.run_job

            def watched_run_job(job, allocate):
                in_worker.set()
                try:
                    return run_job(job, allocate)
                finally:
                    in_worker.clear()

            db._executor.run_job = watched_run_job
            stop = threading.Event()
            reads = {"total": 0, "during_merge": 0}

            def reader():
                i = 0
                while not stop.is_set():
                    began_during = in_worker.is_set()
                    db.get(b"k%04d" % (i % 400))
                    reads["total"] += 1
                    if began_during and in_worker.is_set():
                        reads["during_merge"] += 1
                    i += 7

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                deadline = time.monotonic() + 30.0
                while reads["total"] == 0:  # reading before the compaction
                    assert time.monotonic() < deadline, "reader never read"
                    time.sleep(0.001)
                db.compact_range()
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert reads["during_merge"] > 0
            workers = db.stats()["pipeline"]["workers"]
            assert workers["jobs_completed"] >= 1
            assert workers["worker_cpu_seconds"] > 0
            _expect(db, rounds=6, keys=400)
        finally:
            db.close()


class TestOptionsSnapshot:
    def test_roundtrip_preserves_engine_fields(self):
        options = _options(compression="none", block_size=2048,
                           paranoid_checks=False)
        doc, reason = snapshot_options(options)
        assert reason is None
        restored = restore_options(doc)
        assert restored.compression == "none"
        assert restored.block_size == 2048
        assert restored.paranoid_checks is False
        assert restored.sstable_target_size == options.sstable_target_size
        # Worker-side snapshots never recurse into more processes.
        assert restored.compaction_processes == 0
        assert restored.background_compaction is False

    def test_importable_merge_operator_ships_by_reference(self):
        doc, reason = snapshot_options(
            _options(merge_operator=posting_merge_operator))
        assert reason is None
        assert restore_options(doc).merge_operator is posting_merge_operator

    def test_closure_merge_operator_is_rejected(self):
        doc, reason = snapshot_options(
            _options(merge_operator=lambda key, ops: ops[-1]))
        assert doc is None
        assert "merge_operator" in reason

    def test_create_executor_requires_local_root(self):
        executor = create_executor(MemoryVFS(), "db", _options(), 1)
        assert executor is None


class TestObservability:
    def test_worker_gauges_populate(self, tmp_path):
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1,
                              shm_cache_bytes=128 * 1024))
        try:
            _load(db, rounds=3)
            db.compact_range()
            pipeline = db.stats()["pipeline"]
            workers = pipeline["workers"]
            assert workers["processes"] == 1
            assert workers["jobs_completed"] == workers["jobs_dispatched"] > 0
            assert workers["jobs_failed"] == 0
            assert workers["worker_cpu_seconds"] > 0
            per = workers["per_worker"][0]
            assert per["pid"] is not None
            assert per["shm_stores"] > 0
            shm = pipeline["shm_cache"]
            assert shm["slot_count"] > 0
        finally:
            db.close()

    def test_shm_cache_serves_coordinator_reads(self, tmp_path):
        # Blocks written by the worker should be readable without disk I/O:
        # compact, then GET with a cold table cache and check shm hits.
        db = DB.open(LocalVFS(str(tmp_path)), "db",
                     _options(compaction_processes=1,
                              shm_cache_bytes=1 << 20,
                              block_cache_size=0))
        try:
            _load(db, rounds=3)
            db.compact_range()
            _expect(db, rounds=3)
            assert db._shm_cache.hits > 0
        finally:
            db.close()
