"""Multiprocess compaction: ship merge work out of the GIL (DESIGN.md §11).

Compaction is the engine's CPU hog — varint decoding, CRC32, zlib and a
pure-Python k-way merge — and in threaded mode all of it contends with
foreground GETs for one interpreter lock.  SSTables are immutable and the
manifest is the only mutable truth, which makes compaction embarrassingly
exportable: a *job* is just the input files' metadata, the snapshot
horizon, deeper-level key bounds and an options snapshot.  A worker
process re-opens the inputs through its own :class:`~repro.lsm.vfs.LocalVFS`
handle, runs the one merge body
(:func:`repro.lsm.compaction.run_compaction_job`) and reports
manifest-ready :class:`~repro.lsm.version.FileMetaData` back; the
coordinator installs the version edit under its existing locks.  While the
worker burns CPU, the coordinator thread sits in ``Connection.poll`` —
which releases the GIL — so foreground reads keep their interpreter.

Protocol (one ``multiprocessing`` pipe per worker, strictly half-duplex
within a job)::

    coordinator -> worker   ("job",   {...})         dispatch
    worker -> coordinator   ("alloc", None)          request a file number
    coordinator -> worker   ("alloc", n)             ... from VersionSet
    worker -> coordinator   ("done",  {...result})   terminal
    worker -> coordinator   ("fail",  {...error})    terminal
    coordinator -> worker   ("quit",  None)          shutdown

File numbers are allocated by the coordinator *during* the job (workers
write real ``NNNNNN.ldb`` names directly — no temp-file rename pass), so a
job that dies can leave orphans only among the numbers ``allocate`` handed
out; :meth:`repro.lsm.compaction.Compactor.run` records them and deletes
whichever did not become live — the same discard path an in-process merge
takes — which is what keeps ``verify_integrity()`` clean through worker
crashes.  A coordinator that itself crashes mid-job leaves non-live
``.ldb`` files, and recovery's ``_delete_obsolete_files`` already collects
those.

Workers are spawned (never forked — the coordinator runs threads) and are
daemonic: a dying coordinator cannot leak them.
"""

from __future__ import annotations

import importlib
import logging
import multiprocessing
import threading
import time
from dataclasses import fields as dataclass_fields

from repro.lsm import errors as lsm_errors
from repro.lsm.compaction import run_compaction_job
from repro.lsm.errors import CompactionWorkerError, LSMError
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable
from repro.lsm.vfs import LocalVFS

logger = logging.getLogger(__name__)

#: Times a job is re-dispatched to a fresh worker after a worker *death*
#: (reported exceptions are deterministic and never retried).
MAX_JOB_RETRIES = 1

#: Seconds between liveness checks while waiting on a worker pipe.  The
#: wait itself releases the GIL — this is the multiprocess mode's entire
#: point — so the poll granularity only bounds death-detection latency.
_POLL_SECONDS = 0.05


# -- options snapshot ---------------------------------------------------------

#: Options fields excluded from the worker snapshot: process-local hooks
#: (shipped by reference below or meaningless in a worker).
_UNPICKLED_FIELDS = frozenset({
    "attribute_extractor", "merge_operator", "sequence_oracle", "step_hook",
})


def _callable_ref(fn) -> str | None:
    """``"module:qualname"`` if ``fn`` is importable by that path, else None."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    try:
        resolved = _resolve_ref(f"{module}:{qualname}")
    except Exception:
        return None
    return f"{module}:{qualname}" if resolved is fn else None


def _resolve_ref(ref: str):
    module, _sep, qualname = ref.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def snapshot_options(options: Options) -> tuple[dict | None, str | None]:
    """``(document, None)`` or ``(None, reason)`` when not exportable.

    Plain fields ship by value; the merge operator and attribute extractor
    ship as import paths (a lambda or closure cannot cross a spawn
    boundary, so such configurations fall back to in-process compaction).
    """
    doc = {}
    for field in dataclass_fields(Options):
        if field.name in _UNPICKLED_FIELDS:
            continue
        value = getattr(options, field.name)
        if field.name == "indexed_attributes":
            value = list(value)
        doc[field.name] = value
    # Workers never open a DB, but keep the snapshot honest anyway.
    doc["background_compaction"] = False
    doc["compaction_processes"] = 0
    doc["shm_cache_bytes"] = 0
    if options.merge_operator is not None:
        ref = _callable_ref(options.merge_operator)
        if ref is None:
            return None, ("merge_operator is not importable by path; "
                          "worker processes cannot apply it")
        doc["merge_operator_ref"] = ref
    if options.indexed_attributes:
        ref = _callable_ref(options.attribute_extractor)
        if ref is None:
            return None, ("attribute_extractor is not importable by path; "
                          "worker processes cannot run it")
        doc["attribute_extractor_ref"] = ref
    return doc, None


def restore_options(doc: dict) -> Options:
    doc = dict(doc)
    merge_ref = doc.pop("merge_operator_ref", None)
    extractor_ref = doc.pop("attribute_extractor_ref", None)
    doc["indexed_attributes"] = tuple(doc.get("indexed_attributes", ()))
    options = Options(**doc)
    if merge_ref is not None:
        options.merge_operator = _resolve_ref(merge_ref)
    if extractor_ref is not None:
        options.attribute_extractor = _resolve_ref(extractor_ref)
    return options


# -- worker side --------------------------------------------------------------


def _worker_main(conn) -> None:
    """Worker process entry point: serve jobs until ``quit`` or EOF."""
    shm_cache = None
    shm_name_attached = None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "quit":
                return
            if kind != "job":  # stray alloc reply from an aborted job
                continue
            job = message[1]
            shm_name = job.get("shm_name")
            if shm_name and shm_name != shm_name_attached:
                from repro.lsm.shmcache import SharedBlockCache

                try:
                    shm_cache = SharedBlockCache.attach(shm_name)
                    shm_name_attached = shm_name
                except (OSError, ValueError) as exc:
                    logger.warning("worker: shm attach failed: %s", exc)
                    shm_cache = None
            started = time.process_time()
            try:
                result = _execute_job(conn, job, shm_cache)
            except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
                try:
                    conn.send(("fail", {
                        "kind": type(exc).__name__,
                        "errno": getattr(exc, "errno", None),
                        "message": str(exc),
                    }))
                except (OSError, ValueError):
                    return
                continue
            result["cpu_seconds"] = time.process_time() - started
            if shm_cache is not None:
                result["shm"] = {"hits": shm_cache.hits,
                                 "misses": shm_cache.misses,
                                 "stores": shm_cache.stores,
                                 "evictions": shm_cache.evictions}
                shm_cache.hits = shm_cache.misses = 0
                shm_cache.stores = shm_cache.evictions = 0
            try:
                conn.send(("done", result))
            except (OSError, ValueError):
                return
    finally:
        if shm_cache is not None:
            shm_cache.close()


def _execute_job(conn, job: dict, shm_cache) -> dict:
    options = restore_options(job["options"])
    vfs = LocalVFS(job["root"])
    if job.get("faults"):
        from repro.lsm.faults import FaultInjectingVFS, FaultSchedule

        vfs = FaultInjectingVFS(vfs, FaultSchedule(job["faults"]))
    db_name = job["db_name"]

    block_cache = None
    if shm_cache is not None:
        from repro.lsm.shmcache import ShmBackedBlockCache

        block_cache = ShmBackedBlockCache(shm_cache, local=None)

    tables = []

    def open_table(file_number: int) -> SSTable:
        table = SSTable.open(vfs, db_name, options, file_number)
        tables.append(table)
        table._block_cache = block_cache
        return table

    def open_output():
        conn.send(("alloc", None))
        reply = conn.recv()
        assert reply[0] == "alloc", reply
        file_number = reply[1]
        out = vfs.create(table_file_name(db_name, file_number))
        observer = None
        if shm_cache is not None:
            def observer(offset, payload, _n=file_number):
                shm_cache.put((_n, offset), payload)
        return file_number, out, observer

    try:
        return run_compaction_job(job, options, open_table, open_output)
    finally:
        for table in tables:
            try:
                table.file.close()
            except OSError:
                pass


# -- coordinator side ---------------------------------------------------------


class _Worker:
    """One spawned worker process and its per-worker gauges."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.proc = None
        self.conn = None
        self.stats = {
            "pid": None,
            "restarts": -1,  # first spawn brings it to 0
            "jobs_dispatched": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "cpu_seconds": 0.0,
            "shm_hits": 0,
            "shm_misses": 0,
            "shm_stores": 0,
            "shm_evictions": 0,
        }


class ProcessCompactionExecutor:
    """Owns the worker pool and runs the coordinator half of the protocol.

    ``run_job`` is serialized by a lock: the engine runs at most one
    compaction at a time anyway (the background thread and the manual
    compaction slot are mutually exclusive), so the pool provides crash
    redundancy and round-robin reuse rather than job parallelism.
    """

    def __init__(self, root: str, db_name: str, options_doc: dict,
                 processes: int, shm_name: str | None = None) -> None:
        self.root = root
        self.db_name = db_name
        self.options_doc = options_doc
        self.shm_name = shm_name
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._closed = False
        self._armed_fault: list | None = None
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_retried = 0
        self._workers = [_Worker(slot) for slot in range(max(1, processes))]
        self._next_slot = 0
        for worker in self._workers:
            self._spawn(worker)

    # -- pool management ----------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True,
            name=f"compaction-worker-{worker.slot}")
        proc.start()
        child_conn.close()
        worker.proc = proc
        worker.conn = parent_conn
        worker.stats["pid"] = proc.pid
        worker.stats["restarts"] += 1

    def _respawn(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
        self._spawn(worker)

    def worker_pids(self) -> list[int]:
        return [worker.proc.pid for worker in self._workers
                if worker.proc is not None]

    def arm_fault(self, schedule) -> None:
        """Attach ``schedule`` (a :class:`~repro.lsm.faults.FaultSchedule`)
        to the next dispatched job — the crash-drill hook."""
        self._armed_fault = schedule.to_json()

    # -- job execution -------------------------------------------------------

    def run_job(self, job: dict, allocate) -> dict:
        """Dispatch ``job``; returns the worker's result document.

        ``allocate()`` must return a fresh file number and remember it:
        the caller deletes whatever a failed attempt wrote under the numbers
        it handed out.  Worker deaths are retried on a fresh process up to
        :data:`MAX_JOB_RETRIES` times; worker-reported exceptions are
        re-raised here (mapped back onto engine error types) without retry.
        """
        with self._lock:
            if self._closed:
                raise CompactionWorkerError("executor is closed")
            job = dict(job, db_name=self.db_name, root=self.root,
                       options=self.options_doc, shm_name=self.shm_name)
            if self._armed_fault is not None:
                job["faults"] = self._armed_fault
                self._armed_fault = None
            deaths = 0
            while True:
                worker = self._workers[self._next_slot % len(self._workers)]
                self._next_slot += 1
                if worker.proc is None or not worker.proc.is_alive():
                    self._respawn(worker)
                try:
                    return self._attempt(worker, job, allocate)
                except _WorkerDied:
                    worker.stats["jobs_failed"] += 1
                    self.jobs_failed += 1
                    self._respawn(worker)
                    deaths += 1
                    if deaths > MAX_JOB_RETRIES:
                        raise CompactionWorkerError(
                            f"compaction worker died {deaths} times on one "
                            f"job (level {job.get('level')}); abandoning")
                    self.jobs_retried += 1
                    # A crashed attempt must not re-run the fault schedule
                    # that (deliberately, in drills) killed it.
                    job.pop("faults", None)

    def _attempt(self, worker: _Worker, job: dict, allocate) -> dict:
        worker.stats["jobs_dispatched"] += 1
        self.jobs_dispatched += 1
        try:
            worker.conn.send(("job", job))
            while True:
                if not worker.conn.poll(_POLL_SECONDS):
                    if self._closed:
                        raise _WorkerDied("executor closed mid-job")
                    if not worker.proc.is_alive() \
                            and not worker.conn.poll(0.0):
                        raise _WorkerDied("worker process died")
                    continue
                message = worker.conn.recv()
                kind = message[0]
                if kind == "alloc":
                    worker.conn.send(("alloc", allocate()))
                elif kind == "done":
                    result = message[1]
                    worker.stats["jobs_completed"] += 1
                    worker.stats["cpu_seconds"] += result.get(
                        "cpu_seconds", 0.0)
                    for key, value in result.get("shm", {}).items():
                        worker.stats[f"shm_{key}"] += value
                    self.jobs_completed += 1
                    return result
                elif kind == "fail":
                    worker.stats["jobs_failed"] += 1
                    self.jobs_failed += 1
                    _raise_worker_failure(message[1])
                else:  # pragma: no cover - protocol violation
                    raise _WorkerDied(f"unexpected message {kind!r}")
        except LSMError:
            # A worker-*reported* failure (deterministic).  Some engine
            # errors double as OSError — e.g. FaultInjectedError(LSMError,
            # IOError) — so this must outrank the pipe-error clause below or
            # a clean failure report would masquerade as a worker death and
            # be retried.
            raise
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise _WorkerDied(str(exc)) from exc

    # -- observability & shutdown -------------------------------------------

    def stats(self) -> dict:
        return {
            "processes": len(self._workers),
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_retried": self.jobs_retried,
            "worker_cpu_seconds": round(
                sum(w.stats["cpu_seconds"] for w in self._workers), 6),
            "per_worker": [dict(w.stats) for w in self._workers],
        }

    def close(self, timeout: float = 2.0) -> None:
        """Stop every worker; never blocks unboundedly on a dead one."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            if worker.conn is not None:
                try:
                    worker.conn.send(("quit", None))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for worker in self._workers:
            proc = worker.proc
            if proc is None:
                continue
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - kill-resistant worker
                proc.kill()
                proc.join(timeout=timeout)
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass


class _WorkerDied(Exception):
    """Internal: the worker process vanished mid-job (retryable)."""


def _raise_worker_failure(info: dict) -> None:
    """Re-raise a worker-reported exception as the nearest engine error.

    Known :mod:`repro.lsm.errors` types rebuild as themselves, so the
    coordinator's existing handling (ENOSPC parks read-only, fault drills
    catch :class:`FaultInjectedError`) behaves as if the compaction had
    failed inline; anything else becomes :class:`CompactionWorkerError`.
    """
    kind = info.get("kind", "")
    message = info.get("message", "")
    error_cls = getattr(lsm_errors, kind, None)
    if isinstance(error_cls, type) and issubclass(error_cls, LSMError):
        raise error_cls(f"[worker] {message}")
    raise CompactionWorkerError(f"worker job failed: {kind}: {message}")


def create_executor(vfs, db_name: str, options: Options, processes: int,
                    shm_name: str | None = None
                    ) -> ProcessCompactionExecutor | None:
    """Build an executor for ``vfs``, or ``None`` when it cannot apply.

    Worker processes need a real filesystem to open the tables from, so
    only a VFS exposing a local ``root`` qualifies; memory and
    fault-injecting filesystems compact in-process (the deterministic test
    harness depends on that).
    """
    root = getattr(vfs, "root", None)
    if root is None:
        logger.warning(
            "compaction_processes=%d ignored: %s has no local root; "
            "compacting in-process", processes, type(vfs).__name__)
        return None
    options_doc, reason = snapshot_options(options)
    if options_doc is None:
        logger.warning(
            "compaction_processes=%d ignored: %s; compacting in-process",
            processes, reason)
        return None
    return ProcessCompactionExecutor(
        root, db_name, options_doc, processes, shm_name=shm_name)
