"""The database: LevelDB's public surface, plus the probes LevelDB++ needs.

:class:`DB` wires together the MemTable, WAL, SSTables, versioned manifest
and compactor into a single-node key-value store with the three base
operations of the paper's Table 1 — ``PUT(k, v)``, ``GET(k)``, ``DEL(k)`` —
plus:

* ``merge(k, operand)``: RocksDB-style merge writes, the mechanism behind
  the Lazy index's append-only posting-list updates;
* ``scan(lo, hi)``: user-visible range iteration (the "range query API on
  primary key" the Eager index uses for RANGELOOKUP);
* ``scan_level`` / ``fragments_by_level``: raw per-level access, which the
  Lazy and Composite indexes need for level-at-a-time traversal;
* ``read_view``: a :class:`ReadView` held across the Embedded index's
  probes — its walk, its MemTable postings and GetLite.

Every write goes through LevelDB's writer queue (DESIGN.md §8): the queue
head leads a group, makes room (the write-stall ladder), appends and syncs
the group's batches in one WAL write, inserts them and only then publishes
their sequence numbers.  A MemTable that fills is sealed into an
*immutable* MemTable behind a fresh WAL, and its flush and the due
compactions go to one scheduler seam (:meth:`DB._schedule`, LevelDB's
``MaybeScheduleCompaction``).  The *inline* scheduler, the default, runs
that job at once in the writing thread: the synchronous engine the paper
chose LevelDB for, whose outputs the golden vectors pin byte for byte.
With ``options.background_compaction`` the *threaded* scheduler hands it
to a maintenance thread while a fresh MemTable absorbs writes, level-0
pileups slow and then stop writers, and every read's *view*
(:class:`ReadView`: both MemTables, a pinned Version, the published
sequence number) is a consistent snapshot it reads without the mutex.
Under the inline scheduler the same view is taken lock- and pin-free.
"""

from __future__ import annotations

import errno
import heapq
import logging
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import Any, Callable, Iterable, Iterator

from repro.lsm.batch import (
    WriteBatch,
    decode_table_directory,
    encode_table_directory,
    is_table_directory,
    table_label,
)
from repro.lsm.compaction import Compaction, Compactor, pick_compaction
from repro.lsm.errors import (
    CorruptionError,
    DBClosedError,
    InvalidArgumentError,
    ReadOnlyError,
    SimulatedCrashError,
    WriteStallError,
)
from repro.lsm.keys import (
    KIND_FOR_SEEK,
    KIND_MERGE,
    KIND_VALUE,
    InternalKey,
    MAX_SEQUENCE,
    pack_internal_key,
)
from repro.lsm.manifest import (
    ManifestWriter,
    list_db_files,
    log_file_name,
    manifest_file_name,
    recover_version_set,
    table_file_name,
)
from repro.lsm.memtable import MemTable, column_slots
from repro.lsm.options import Options
from repro.lsm.tablecache import TableCache
from repro.lsm.vfs import Category, MemoryVFS, VFS, counter_dict
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import LogReader, LogWriter

#: Group commit stops coalescing queued writers once the combined encoded
#: batches reach this size (LevelDB caps groups at 1 MiB).
MAX_WRITE_GROUP_BYTES = 1 << 20

logger = logging.getLogger(__name__)


class Snapshot:
    """A consistent read point (all writes with ``seq <= self.seq``)."""

    def __init__(self, db: "DB", seq: int) -> None:
        self._db = db
        self.seq = seq
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._db._release_snapshot(self)
            self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


def _approximate_batch_bytes(batch: "WriteBatch") -> int:
    """Upper-bound WAL size of ``batch``, for sizing write groups.

    Counting exact varint widths would mean encoding twice; keys and
    values dominate, so a fixed per-op overhead is plenty.
    """
    return 16 + sum(len(key) + 12
                    + (len(value) if isinstance(value, bytes) else 16)
                    for _kind, key, value, _table in batch.ops)


class _Writer:
    """One queued write (LevelDB's ``Writer`` struct).

    Writers park in ``DB._writers``; the one at the head becomes the group
    leader, commits a prefix of the queue in a single WAL append, and marks
    every member ``done`` with its last assigned sequence (or the shared
    error).  ``batch is None`` marks a flush sentinel: it claims the head
    slot so no leader can insert into the MemTable while ``flush()``
    rotates it, but it never commits anything itself.  A queued writer
    with a nonzero ``seq`` must commit at that sequence, so it commits
    alone.
    """

    __slots__ = ("batch", "done", "seq", "error")

    def __init__(self, batch: "WriteBatch | None", seq: int = 0) -> None:
        self.batch = batch
        self.done = False
        self.seq = seq
        self.error: BaseException | None = None


@dataclass
class CorruptionStats:
    """Containment counters (``DB.stats()["corruption"]``).

    Every contained :class:`~repro.lsm.errors.CorruptionError` is counted:
    quarantine must leave an auditable trail, never silently narrow
    results.
    """

    events: int = 0              # contained corruption errors
    tables_quarantined: int = 0  # cumulative quarantine decisions


@dataclass
class PipelineStats:
    """Write-pipeline counters (``DB.stats()["pipeline"]``): the groups
    count every write, ``bg_*`` the background thread's work alone."""

    stall_events: int = 0          # writer waits at the stop/rotation gates
    stall_seconds: float = 0.0     # wall time spent in those waits
    slowdown_events: int = 0       # one-step L0 slowdown pauses
    write_groups: int = 0          # leader rounds (one WAL append+sync each)
    group_commit_batches: int = 0  # batches committed through those rounds
    group_commit_ops: int = 0      # ops committed through those rounds
    max_group_batches: int = 0     # largest single group
    bg_flushes: int = 0            # immutable-MemTable flushes by the thread
    bg_compactions: int = 0        # compactions run by the thread


class DB:
    """A LevelDB-style LSM key-value store over a metered VFS.

    Several tables can share one WAL and one sequence space (RocksDB's
    column families): the *host* owns the log, and each WAL-less table
    (:meth:`open_table`) attached to it (``DB.open(..., tables=...)``)
    keeps its own MemTable, levels, files, compaction, meters and manifest.
    One :class:`WriteBatch` then commits to several tables with one append
    and one sync.  Each table's flush edit records the oldest WAL it still
    needs; the host deletes a WAL once every table has flushed past it, and
    recovery sends each logged op to its table, skipping those the table's
    files already hold (DESIGN.md §2.2, the index tables' write path).
    """

    def __init__(self, vfs: VFS, name: str, options: Options,
                 tables: Iterable["DB"] = (), wal: bool = True) -> None:
        """Use :meth:`open` / :meth:`open_memory` / :meth:`open_table`
        instead of direct construction."""
        self.vfs = vfs
        self.name = name
        self.options = options
        # -- the shared log (see the class docstring) ----------------------
        self._has_wal = wal
        self._host: DB | None = None      # a WAL-less table's host
        self._log_id = 0                  # its id in the host's WAL records
        self._tables: list[DB] = []       # a host's WAL-less tables
        #: Whether this table or an attached one has indexed attributes.
        self._derives_slots = bool(options.indexed_attributes)
        self._wal_need = 0                # oldest WAL holding unflushed data
        self._imm_wal_need = 0            # the need once ``imm`` is flushed
        # A log holding records of a table not attached here is kept.
        self._foreign_floor: int | None = None
        self.versions = VersionSet(options)
        self.table_cache = TableCache(vfs, name, options)
        self.memtable = self._new_memtable()
        self._manifest: ManifestWriter | None = None
        self._log: LogWriter | None = None
        self._log_number = 0
        self._closed = False
        self._snapshots: list[Snapshot] = []
        # -- corruption containment (see DESIGN.md §9) ----------------------
        self._quarantined: set[int] = set()  # table files served around
        self.corruption_stats = CorruptionStats()
        self._read_only = False          # ENOSPC flipped the DB read-only
        self._read_only_reason: str | None = None
        self._scrubber = None            # lazily created by DB.scrub()
        # -- write pipeline state (all guarded by _mutex) -------------------
        self._mutex = threading.RLock()
        self._work_cv = threading.Condition(self._mutex)   # bg thread waits
        self._stall_cv = threading.Condition(self._mutex)  # writers wait
        self.imm: MemTable | None = None     # sealed MemTable being flushed
        # WALs a rotation closed, deleted once every table logging here has
        # flushed past them (_retire_logs).
        self._closed_logs: list[int] = []
        self._writers: deque[_Writer] = deque()
        self._pending_seq = 0  # last *allocated* seq; published lags behind
        self._version_pins: dict[int, list] = {}  # id(version) -> [v, refs]
        # The inline scheduler's pin-free view, reused while the MemTable
        # and the Version it names are still current (_acquire_view).
        self._inline_view: ReadView | None = None
        self._zombie_tables: set[int] = set()  # retired but pinned files
        # The scheduler (:meth:`_schedule`): a maintenance thread, or None
        # for the inline scheduler, which runs the job in the writer's thread.
        self._bg_thread = threading.Thread(
            target=self._background_main, name=f"bg:{name}", daemon=True) \
            if options.background_compaction else None
        self._bg_stop = False
        self._bg_error: BaseException | None = None
        self._bg_compacting = False
        self._manual_compaction = False
        self.pipeline_stats = PipelineStats()
        self.compactor = Compactor(
            vfs, name, options, self.versions, self.table_cache,
            self._log_and_apply, self._oldest_snapshot_seq,
            retire_files=self._retire_table_files,
            discard_outputs=self._discard_table_files)
        for table in tables:
            self._attach_locked(table)
        self._recover()
        self._pending_seq = self.versions.last_sequence
        if self._bg_thread is not None:
            self._bg_thread.start()
            # Under the deterministic scheduler this lets the spawner wait
            # for the new task to reach its first yield point.
            self._step(f"spawn:bg:{name}")

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def open(cls, vfs: VFS, name: str = "db",
             options: Options | None = None,
             tables: Iterable["DB"] = ()) -> "DB":
        """Open (creating if necessary) the database ``name`` on ``vfs``.

        ``tables`` (from :meth:`open_table`) log through this database's
        WAL; recovery replays their records into them.
        """
        return cls(vfs, name, options or Options(), tables)

    @classmethod
    def open_table(cls, vfs: VFS, name: str,
                   options: Options | None = None) -> "DB":
        """Open a WAL-less table; it accepts writes once a host attaches it
        (:meth:`open` with ``tables=``), and they commit through the host's
        WAL.  Its logged records are replayed when the host opens."""
        return cls(vfs, name, options or Options(), wal=False)

    @classmethod
    def open_memory(cls, options: Options | None = None,
                    name: str = "db") -> "DB":
        """Open a fresh database on a private in-memory VFS."""
        return cls(MemoryVFS(), name, options or Options())

    def _recover(self) -> None:
        existed = recover_version_set(self.vfs, self.name, self.versions)
        if existed:
            self._replay_logs()
            if not self.memtable.is_empty():
                # Persist replayed writes as a level-0 table *before* the
                # fresh manifest below advances the log number and the old
                # WALs are deleted.  Without this, recovered writes lived
                # only in the MemTable while their WAL was already gone —
                # a second crash (or even a clean close without a flush)
                # lost them permanently.  LevelDB likewise writes level-0
                # tables from recovered logs during open.
                self.compactor.flush_memtable(self.memtable)
                self.memtable = self._new_memtable()
        self._manifest = ManifestWriter(self.vfs, self.name,
                                        self.versions.new_file_number())
        if self._has_wal:
            log_number = self.versions.new_file_number()
            # The attached tables' replayed records go to level 0 too, each
            # table's edit naming the new WAL as the oldest it needs.
            for table in self._tables:
                if not table.memtable.is_empty():
                    table.compactor.flush_memtable(table.memtable,
                                                   log_number=log_number)
                    table.memtable = table._new_memtable()
                table._wal_need = log_number
            self._wal_need = log_number
            self.versions.log_number = self._wal_floor(log_number)
        # A WAL-less table keeps its log number until its host attaches it.
        self._manifest.log_edit(self._snapshot_edit(self.versions.log_number))
        self._manifest.install_as_current()
        if self._has_wal:
            self._open_wal(log_number)
        self._delete_obsolete_files()

    def _snapshot_edit(self, log_number: int, version=None,
                       compact_pointers: bool = True) -> VersionEdit:
        """One self-contained edit describing ``version`` (default: current).

        A manifest holding just this edit reopens to the same tree
        (LevelDB writes a similar "snapshot" record on reopen and when it
        rolls a grown manifest).
        """
        edit = VersionEdit(
            log_number=log_number,
            next_file_number=self.versions.next_file_number,
            last_sequence=self.versions.last_sequence)
        for level, meta in (version or self.versions.current).all_files():
            edit.add_file(level, meta)
        if compact_pointers:
            for level, pointer in enumerate(self.versions.compact_pointers):
                if pointer is not None:
                    edit.compact_pointers.append((level, pointer))
        return edit

    def _open_wal(self, log_number: int) -> None:
        """Make ``log_number`` the WAL that writes append to from now on.

        The previous WAL is closed but stays on disk: only the flush edit
        that records a newer log number makes it obsolete.  It is closed
        only once the new one exists, so a failed rotation leaves the
        writer on the old WAL and the next write retries the rotation.
        """
        log = LogWriter(
            self.vfs.create(log_file_name(self.name, log_number)),
            sync=self.options.sync_writes)
        if self._tables:
            # The ids the records below use: every WAL names its tables.
            try:
                log.add_record(encode_table_directory(
                    [table_label(table.name) for table in self._tables]))
            except BaseException:
                log.close()
                raise
        if self._log is not None:
            self._log.close()
        self._log = log
        self._log_number = log_number

    def _attach_locked(self, table: "DB") -> None:
        """Make the WAL-less ``table`` log through this DB; it replaces an
        attached table of the same name (a rebuilt index)."""
        if table._has_wal or table._host not in (None, self):
            raise InvalidArgumentError(
                f"{table.name} is not a WAL-less table free to attach")
        label = table_label(table.name)
        for position, attached in enumerate(self._tables):
            if table_label(attached.name) == label:
                self._tables[position] = table
                break
        else:
            if self._log is not None:
                # The open WAL's directory record is already written.
                raise InvalidArgumentError(
                    f"{self.name} is open: it can only swap {label!r} for "
                    f"a fresh table of that name")
            self._tables.append(table)
        table._host = self
        self._derives_slots = any(attached.options.indexed_attributes
                                  for attached in (self, *self._tables))
        table._log_id = self._tables.index(table) + 1
        table._wal_need = self._log_number
        table.versions.last_sequence = max(table.versions.last_sequence,
                                           self.versions.last_sequence)

    def attach_table(self, table: "DB") -> None:
        """Attach a WAL-less table (:meth:`open_table`) to an open host."""
        self._check_open()
        with self._mutex:
            self._attach_locked(table)

    def _wal_floor(self, need: int) -> int:
        """The oldest WAL still needed, by this table (``need``) or by any
        table logging through it that holds unflushed records."""
        floor = min([need, *(table._wal_need for table in self._tables
                             if table.imm is not None
                             or not table.memtable.is_empty())])
        if self._foreign_floor is not None:
            floor = min(floor, self._foreign_floor)
        return floor

    @staticmethod
    def _flushed_seq(table: "DB") -> int:
        """Every op of ``table`` up to this sequence is in its files."""
        return max((meta.max_seq for _level, meta
                    in table.versions.current.all_files()), default=0)

    def _replay_logs(self) -> None:
        """Replay the WALs into this DB and its attached tables.

        Each op goes to its table unless that table's files already hold
        it: a WAL is kept until every table flushed past it, so it may hold
        ops one table flushed and another did not (re-adding a merge
        operand would fold it twice).  A record of a table that is not
        attached keeps its WAL (:attr:`_foreign_floor`).  A WAL-less table
        replays only logs found in its own directory.
        """
        start = 0
        if self._has_wal:
            start = min([self.versions.log_number,
                         *(table.versions.log_number
                           for table in self._tables)])
        by_label = {table_label(table.name): table for table in self._tables}
        flushed = {table: self._flushed_seq(table)
                   for table in (self, *self._tables)}
        # One sequence space: new writes go above every table's history.
        last = max([self.versions.last_sequence,
                    *(table.versions.last_sequence for table in self._tables)])
        logs = list_db_files(self.vfs, self.name).logs
        for number, name in sorted(logs.items()):
            if number < start:
                continue
            directory: list[DB | None] = []
            for payload in LogReader(self.vfs.open_random(name)):
                if is_table_directory(payload):
                    directory = [by_label.get(label) for label
                                 in decode_table_directory(payload)]
                    continue
                batch, start_seq = WriteBatch.decode(payload)
                seqs = WriteBatch.sequences(start_seq,
                                            (op[3] for op in batch.ops))
                for (kind, key, value, log_id), seq in zip(batch.ops, seqs):
                    table = self
                    if log_id is not None:
                        if not 0 < log_id <= len(directory):
                            raise CorruptionError(
                                f"{name}: record names table {log_id}, "
                                f"which no directory record defines")
                        table = directory[log_id - 1]
                        if table is None:
                            self._foreign_floor = min(
                                number, self._foreign_floor or number)
                            continue
                    if seq > flushed[table]:
                        table.memtable.add(seq, kind, key, value)
                last = max(last, start_seq + batch.span() - 1)
        for table in (self, *self._tables):
            table.versions.last_sequence = max(table.versions.last_sequence,
                                               last)
        if self._foreign_floor is not None:
            logger.warning("%s: keeping WALs from %06d on: they hold "
                           "records of tables not attached", self.name,
                           self._foreign_floor)

    def _delete_obsolete_files(self) -> None:
        assert self._manifest is not None
        files = list_db_files(self.vfs, self.name)
        if files.unrecognized:
            logger.warning("ignoring unrecognized files %s",
                           files.unrecognized)
        # A WAL-less table's own directory holds no log it needs: any there
        # was replayed into its files above.
        obsolete = files.obsolete(self.versions.live_file_numbers(),
                                  self.versions.log_number if self._has_wal
                                  else MAX_SEQUENCE,
                                  self._manifest.number)
        for number in obsolete.tables:
            self.table_cache.evict(number)
        for name in obsolete.names():
            self.vfs.delete_if_exists(name)

    def close(self) -> None:
        if self._closed:
            return
        if self._host is not None and not self._host._closed \
                and not self._read_only and self._bg_error is None \
                and (self.imm is not None or not self.memtable.is_empty()) \
                and self._wal_need < self._host._log_number:
            # The host keeps every WAL from this table's oldest unflushed
            # record on; flushing lets it delete the closed ones, so a
            # closed store holds about one MemTable's worth of WAL.
            try:
                self.flush()
            except OSError as exc:  # its records stay in the host's WAL
                logger.warning("%s: flush at close failed (%s)",
                               self.name, exc)
        if self._bg_thread is not None:
            with self._mutex:
                self._bg_stop = True
                self._work_cv.notify_all()
            thread = self._bg_thread
            while self.options.step_hook is not None and thread.is_alive():
                # Cooperative join: keep yielding to the scheduler so it can
                # run the background task to completion instead of
                # deadlocking on a real join while the task is parked.  The
                # guard keeps this loop out of the schedule until the thread
                # has actually exited (a plain park would add an unbounded
                # "poll again" branch to every explored schedule).
                self._park("close:join", lambda: not thread.is_alive())
            thread.join()
        with self._mutex:
            if self._zombie_tables:
                self._sweep_retired_locked(sorted(self._zombie_tables))
        if self._log is not None:
            # A clean shutdown must not lose acknowledged writes even with
            # sync_writes off: push the WAL tail to stable storage first.
            # In read-only mode the WAL writer may be mid-rotation (or the
            # disk still full); acknowledged records were already appended,
            # so a failing final sync must not abort the close.
            try:
                self._log.sync()
                self._log.close()
            except (OSError, ValueError) as exc:
                if not self._read_only:
                    raise
                logger.warning("read-only close: WAL sync skipped (%s)", exc)
        if self._manifest is not None:
            self._manifest.close()
        self.table_cache.close()
        self._inline_view = None
        self._closed = True

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("database is closed")

    # -- pipeline plumbing ----------------------------------------------------

    def _step(self, label: str) -> None:
        """Deterministic-scheduler yield point (no-op without a hook).

        Never call this while holding ``_mutex``: a parked task must not
        block every other task on the lock.
        """
        hook = self.options.step_hook
        if hook is not None:
            hook(label)

    def _await_locked(self, cv: threading.Condition,
                      predicate: Callable[[], bool], label: str) -> None:
        """Wait until ``predicate()`` holds; ``_mutex`` must be held (once).

        With no step hook this is a plain condition wait.  Under the
        deterministic scheduler, condition variables would park a task
        outside the scheduler's control, so the wait is rewritten as a
        yield loop that releases the mutex, parks at ``label``, then
        reacquires and rechecks — the scheduler decides who runs next.
        The predicate doubles as the park's *guard* (when the hook
        supports guards): the scheduler will not pick this task again
        until the predicate reads true, keeping futile wake-recheck-park
        cycles out of the explored schedules.  Guard evaluation happens
        without the mutex, so predicates must be cheap pure reads; the
        recheck under the mutex here stays authoritative.
        """
        if self.options.step_hook is None:
            cv.wait_for(predicate)
            return
        while not predicate():
            self._mutex.release()
            try:
                self._park(label, predicate)
            finally:
                self._mutex.acquire()

    def _park(self, label: str, guard: Callable[[], bool]) -> None:
        """Park at ``label`` under the step hook, not to be picked again
        until ``guard()`` holds if the hook supports guards."""
        hook = self.options.step_hook
        park_until = getattr(hook, "park_until", None)
        if park_until is not None:
            park_until(label, guard)
        else:
            hook(label)

    def _raise_if_bg_failed(self) -> None:
        if self._bg_error is not None:
            raise self._bg_error

    # -- corruption containment -------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True once a write-path ENOSPC parked the DB in read-only mode."""
        return self._read_only

    def is_quarantined(self, file_number: int) -> bool:
        return file_number in self._quarantined

    def quarantined_tables(self) -> list[int]:
        """File numbers of quarantined tables, sorted."""
        with self._mutex:
            return sorted(self._quarantined)

    def _quarantine_table(self, file_number: int, exc: BaseException) -> None:
        """Serve around ``file_number`` from now on; purge it from caches.

        The table stays on disk (repair may salvage most of it); reads
        simply stop consulting it.  Every cache that may hold its bytes —
        the open-reader table cache, the decompressed-block cache, and the
        OS-page-cache model — is purged so nothing decoded from rotten
        bytes outlives the quarantine decision.
        """
        with self._mutex:
            if file_number in self._quarantined:
                return
            self._quarantined.add(file_number)
            self.corruption_stats.tables_quarantined += 1
        self.table_cache.evict(file_number)  # its blocks go with it
        invalidate = getattr(self.vfs, "invalidate_file", None)
        if invalidate is not None:
            invalidate(table_file_name(self.name, file_number))
        logger.warning("quarantined corrupt table %06d: %s", file_number, exc)

    def _contain(self, file_number: int, exc: CorruptionError) -> None:
        """A table read failed: apply ``options.on_corruption``.

        The one place the policy is consulted.  ``"raise"`` propagates the
        error; ``"quarantine"`` counts it, quarantines the table and
        returns, so the read that hit it carries on without the table.
        Every table access of the read path uses one idiom around this::

            if file_number in self._quarantined: <serve around it>
            try: <open the table through the table cache and read it>
            except CorruptionError as exc: self._contain(file_number, exc)

        so a quarantined table reads as absent, a table whose *open* fails
        (bad footer/index) is quarantined whole on the spot, and entries
        already decoded from a table that fails later stay served.  Under
        ``"raise"`` the quarantine set is empty and ``try`` costs nothing.
        """
        if self.options.on_corruption != "quarantine":
            raise exc
        self.corruption_stats.events += 1
        self._quarantine_table(file_number, exc)

    def _park_if_disk_full(self, exc: BaseException) -> bool:
        """Flip into clean read-only mode if ``exc`` is a write-path ENOSPC.

        The failed operation installed or acknowledged nothing, so reads
        keep working against everything already acknowledged (MemTables
        included); every later mutation raises
        :class:`~repro.lsm.errors.ReadOnlyError`; the background pipeline
        parks (no crash-loop of doomed flush retries) but its thread stays
        alive so ``close()`` remains orderly.  Returns whether it parked;
        the caller decides whether its own caller still sees ``exc``.
        """
        if getattr(exc, "errno", None) != errno.ENOSPC:
            return False
        with self._mutex:
            if not self._read_only:
                self._read_only = True
                self._read_only_reason = f"{type(exc).__name__}: {exc}"
                logger.warning("entering read-only mode: %s", exc)
            self._stall_cv.notify_all()
            self._work_cv.notify_all()
        return True

    def _check_writable(self) -> None:
        """Raise the sticky background error, or :class:`ReadOnlyError`
        once a full disk parked the DB."""
        self._raise_if_bg_failed()
        if self._read_only:
            raise ReadOnlyError(
                f"database is read-only ({self._read_only_reason})")

    def scrub(self, block_budget: int | None = None):
        """Run (or resume) the CRC scrubber; see
        :class:`repro.lsm.checker.Scrubber`.

        The scrubber object persists across calls, so repeated budgeted
        invocations walk the whole database incrementally — usable inline
        or from a background maintenance loop.
        """
        self._check_open()
        if self._scrubber is None:
            from repro.lsm.checker import Scrubber

            self._scrubber = Scrubber(self)
        return self._scrubber.run(block_budget)

    # -- writes -----------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> int:
        """Insert or overwrite ``key`` (Table 1's PUT); returns its seq.

        The returned sequence number is the one assigned to *this* write
        by the commit itself — callers that need to attribute the write
        (secondary indexes, replication) must use it rather than read
        ``versions.last_sequence`` afterwards, which a concurrent writer
        may have advanced in between.
        """
        return self.write(WriteBatch().put(key, value))

    def delete(self, key: bytes) -> int:
        """Remove ``key`` if present (Table 1's DEL): writes a tombstone.

        Returns the tombstone's sequence number (see :meth:`put`).
        """
        return self.write(WriteBatch().delete(key))

    def merge(self, key: bytes, operand: bytes) -> int:
        """Append a merge operand; requires ``options.merge_operator``.

        Returns the operand's sequence number (see :meth:`put`).
        """
        if self.options.merge_operator is None:
            raise InvalidArgumentError(
                "DB.merge requires options.merge_operator")
        return self.write(WriteBatch().merge(key, operand))

    def write(self, batch: WriteBatch, seq: int = 0) -> int:
        """Apply ``batch`` atomically; returns the last assigned sequence.

        LevelDB's leader/follower group commit, the one write path: the
        queue head makes room (:meth:`_make_room_for_write`), claims one
        sequence range for a prefix of the queue, then — mutex released:
        it alone owns the WAL and the active MemTables — appends every
        batch in one WAL write, inserts them, and only then publishes
        ``last_sequence``, so a half-applied group is never visible.  It
        seals each MemTable the group filled before the next leader can
        insert, and hands it to the scheduler (:meth:`_schedule`).

        A nonzero ``seq`` is the batch's first sequence, fixed by the
        caller (a replica applying the write its leader committed, a
        split replaying a journaled one): the batch draws none and commits
        as a group of its own, and a ``seq`` at or below one already taken
        is refused.  A value whose indexed attribute no column holds fails
        this write alone, before it queues (:meth:`_derive_slots`).
        """
        if not self._has_wal:
            # A WAL-less table's own writes commit through its host's WAL.
            self._check_open()
            return self._queue_host().write(batch.retarget({None: self}),
                                            seq)
        if self in batch.tables:
            # Ops naming this DB are its own: an index whose table logs
            # for itself (the cluster's global index shards) gets the
            # same batches as one attached to a host.
            batch = batch.retarget({self: None})
        self._check_open()
        if not batch.ops:
            return self.versions.last_sequence
        if self._derives_slots:
            self._derive_slots(batch)
        writer = _Writer(batch, seq)
        writers = self._writers
        options = self.options
        hook = options.step_hook
        mutex = self._mutex
        # The mutex is taken by hand, not with ``with``, on this path: a
        # lone writer pays for every step here (DESIGN.md §8).
        mutex.acquire()
        try:
            writers.append(writer)
            if writers[0] is not writer:
                self._await_locked(
                    self._stall_cv,
                    lambda: writer.done or writers[0] is writer,
                    "write:queue")
                if writer.done:
                    if writer.error is not None:
                        raise writer.error
                    return writer.seq
            # This writer is now the leader.
            try:
                if self._bg_error is not None or self._read_only \
                        or self.memtable.approximate_memory_usage \
                        >= options.memtable_budget \
                        or len(self.versions.current.levels[0]) \
                        >= options.l0_slowdown_writes_trigger:
                    self._make_room_for_write()
                if batch.tables:
                    self._check_tables(batch.tables)
                if len(writers) == 1 or seq:
                    group, tables = (writer,), batch.tables
                    total_seqs, total_ops = batch.span(), len(batch.ops)
                else:
                    group, tables, total_seqs, total_ops = \
                        self._write_group(writer)
                oracle = options.sequence_oracle
                start_seq = seq or (self._pending_seq + 1 if oracle is None
                                    else oracle(total_seqs))
                if start_seq <= self._pending_seq:
                    raise InvalidArgumentError(
                        f"sequence went backwards: {start_seq} <= "
                        f"{self._pending_seq}")
                self._pending_seq = last = start_seq + total_seqs - 1
            except BaseException:
                writers.remove(writer)
                self._stall_cv.notify_all()
                raise
            memtable = self.memtable
            log = self._log
        finally:
            mutex.release()
        # -- mutex released: only the leader runs here ---------------------
        error: BaseException | None = None
        payloads: list[bytes] = []
        seq = start_seq
        for member in group:
            member.seq = seq  # its first; its last once done
            member.batch.stamp(seq)
            payloads.append(member.batch.encode(seq))
            seq += member.batch.span()
        if hook is not None:
            hook("write:wal")
        try:
            assert log is not None
            log.add_records(payloads)
            if hook is not None:
                hook("write:memtable")
            for member in group:
                self._apply(member.batch, member.seq, memtable)
        except BaseException as exc:  # noqa: BLE001 - propagated to the group
            error = exc
        if hook is not None:
            hook("write:publish")
        sealed: tuple[DB, ...] = ()
        mutex.acquire()
        try:
            if error is None:
                if last > self.versions.last_sequence:
                    self.versions.last_sequence = last
                # The attached tables' readers see the group only now too
                # (a plain store: an int assignment needs no table mutex).
                for table in tables:
                    if last > table.versions.last_sequence:
                        table.versions.last_sequence = last
            else:
                # Disk full during the group's WAL append: nothing in the
                # group was acknowledged.  Park read-only so queued writers
                # fail fast instead of each rediscovering the full disk.
                self._park_if_disk_full(error)
            stats = self.pipeline_stats
            stats.write_groups += 1
            stats.group_commit_batches += len(group)
            stats.group_commit_ops += total_ops
            if len(group) > stats.max_group_batches:
                stats.max_group_batches = len(group)
            for member in group:
                popped = writers.popleft()
                assert popped is member
                member.seq += member.batch.span() - 1
                member.error = error
                member.done = True
            if len(group) > 1 or writers:
                self._stall_cv.notify_all()
            if error is not None:
                raise error
            # Seal each full MemTable now, before the next leader can
            # insert into it; the scheduler takes it from there.
            if self.memtable.approximate_memory_usage \
                    >= options.memtable_budget and self._seal_full_memtable():
                self._schedule()
            for table in tables:
                if table.memtable.approximate_memory_usage \
                        >= table.options.memtable_budget \
                        and table._seal_full_memtable():
                    sealed += (table,)
        finally:
            mutex.release()
        for table in sealed:
            with table._mutex:
                table._schedule()
        return writer.seq

    def _write_group(self, leader: _Writer
                     ) -> tuple[list[_Writer], dict["DB", int], int, int]:
        """The writers the leader commits, the tables their batches name,
        and how many sequence numbers and ops they take; mutex held.
        Queued writers join up to a flush sentinel,
        ``MAX_WRITE_GROUP_BYTES``, or one whose tables cannot take writes
        (it leads its own group and fails)."""
        batch = leader.batch
        group = [leader]
        tables = dict(batch.tables)
        total_seqs = batch.span()
        total_ops = len(batch.ops)
        group_bytes = _approximate_batch_bytes(batch)
        for candidate in list(self._writers)[1:]:
            if candidate.batch is None or candidate.seq:
                break  # a flush sentinel, or a write at a fixed sequence
            size = _approximate_batch_bytes(candidate.batch)
            if group_bytes + size > MAX_WRITE_GROUP_BYTES:
                break
            try:
                self._check_tables(candidate.batch.tables)
            except Exception:  # noqa: BLE001 - it leads its own try
                break
            group.append(candidate)
            group_bytes += size
            tables.update(candidate.batch.tables)
            total_seqs += candidate.batch.span()
            total_ops += len(candidate.batch.ops)
        return group, tables, total_seqs, total_ops

    def _derive_slots(self, batch: WriteBatch) -> None:
        """Set ``batch.slots``: each op's column slots for a table with
        indexed attributes, else ``None``.  In the group, after its WAL
        append, a ``TypeError`` (a list- or object-valued attribute) would
        fail every member and leave some in the MemTable."""
        own = self.options
        slots: list[tuple[bytes, ...] | None] = []
        for kind, _key, value, table in batch.ops:
            options = own if table is None else table.options
            attributes = options.indexed_attributes
            slots.append(column_slots(
                attributes, options.attribute_extractor, kind, value)
                if attributes else None)
        batch.slots = slots

    @staticmethod
    def _apply(batch: WriteBatch, start_seq: int, memtable: MemTable) -> None:
        """Insert ``batch``'s ops: this DB's into ``memtable``, each other
        table's into that table's active MemTable (which only the writer
        holding the queue head may rotate)."""
        add = memtable.add
        slots = batch.slots or repeat(None)
        if not batch.tables:
            for offset, ((kind, key, value, _table), entry_slots) in \
                    enumerate(zip(batch.ops, slots)):
                add(start_seq + offset, kind, key, value, entry_slots)
        else:
            # An indexed PUT names each table once: every op takes start_seq.
            seqs = repeat(start_seq) if batch.span() == 1 else \
                WriteBatch.sequences(start_seq, (op[3] for op in batch.ops))
            for (kind, key, value, table), seq, entry_slots in \
                    zip(batch.ops, seqs, slots):
                (add if table is None else table.memtable.add)(
                    seq, kind, key, value, entry_slots)

    def _check_tables(self, tables) -> None:
        """A batch may name only tables attached here that can still take
        writes."""
        for table in tables:
            if table._host is not self:
                raise InvalidArgumentError(
                    f"{table.name} does not log through {self.name}")
            if table._closed or table._bg_error is not None \
                    or table._read_only:
                table._check_open()
                table._check_writable()

    def _queue_host(self) -> "DB":
        """The DB whose writer queue and WAL this one's writes go through."""
        if not self._has_wal and self._host is None:
            raise InvalidArgumentError(
                f"{self.name} has no WAL and is attached to no host")
        return self._host or self

    def _make_room_for_write(self) -> None:
        """LevelDB's write-stall ladder; called by the leader, mutex held.

        In order: a one-step *slowdown* pause when level 0 approaches the
        stop trigger (spreads delay across writers instead of one long
        stall); then, if the active MemTable is full, a stall until the
        sealed one is flushed and one until level 0 is below the stop
        trigger, each through :meth:`_schedule` (the inline scheduler runs
        the job then and there).  With ``disable_auto_compaction`` nothing
        would ever drain level 0: the stop condition raises
        :class:`~repro.lsm.errors.WriteStallError` instead.
        """
        options = self.options
        allow_delay = True
        stats = self.pipeline_stats
        while True:
            self._check_writable()
            l0_files = self.versions.current.num_files(0)
            if l0_files >= options.l0_stop_writes_trigger \
                    and options.disable_auto_compaction:
                raise WriteStallError(
                    f"level 0 holds {l0_files} files (stop trigger "
                    f"{options.l0_stop_writes_trigger}); run compact_range() "
                    f"or enable auto compaction")
            if allow_delay and not options.disable_auto_compaction \
                    and options.l0_slowdown_writes_trigger <= l0_files \
                    < options.l0_stop_writes_trigger:
                allow_delay = False  # at most one pause per write
                stats.slowdown_events += 1
                self._mutex.release()
                try:
                    if self.options.step_hook is not None:
                        self.options.step_hook("stall:slowdown")
                    else:
                        time.sleep(options.slowdown_sleep_seconds)
                finally:
                    self._mutex.acquire()
                continue
            if self.memtable.approximate_memory_usage \
                    < options.memtable_budget:
                return
            if self.imm is not None:
                done, label = (lambda: self.imm is None), "stall:memtable"
            elif l0_files >= options.l0_stop_writes_trigger:
                done, label = (lambda: self.versions.current.num_files(0)
                               < options.l0_stop_writes_trigger), "stall:stop"
            else:
                return  # the publish seals the full MemTable
            started = time.perf_counter()
            stats.stall_events += 1
            self._schedule(done, label)
            stats.stall_seconds += time.perf_counter() - started

    def _schedule(self, done: Callable[[], bool] | None = None,
                  label: str = "") -> None:
        """Hand a sealed MemTable's flush and the due compactions to the
        scheduler (LevelDB's ``MaybeScheduleCompaction``); given ``done``,
        return once it holds.  Mutex held once.

        The one place that decides who runs maintenance.  The threaded
        scheduler wakes the background thread and waits for ``done()`` —
        or until it never will (``_bg_error``, read-only: callers recheck
        both).  The inline one never waits: unless ``done()`` holds, it
        runs the job (:meth:`_maintain`) now, in this thread, unlocked.
        """
        if self._bg_thread is not None:
            self._work_cv.notify_all()
            if done is not None:
                self._await_locked(
                    self._stall_cv,
                    lambda: (done() or self._bg_error is not None
                             or self._read_only),
                    label)
        elif done is None or not done():
            self._mutex.release()
            try:
                self._maintain()
            finally:
                self._mutex.acquire()

    def _maintain(self) -> None:
        """The inline scheduler's job: flush the sealed MemTable, then run
        every due compaction, in the caller's thread.  It runs right after
        the seal, so nothing was written since: a flush that fails before
        its table is installed puts the sealed MemTable back into service,
        readable, and replayable from the WAL the flush did not retire."""
        if self.imm is not None:
            try:
                self._flush_imm()
            except BaseException as exc:
                if self.imm is not None:
                    self.imm.unseal()
                    self.memtable, self.imm = self.imm, None
                if isinstance(exc, OSError):
                    self._park_if_disk_full(exc)  # no doomed retries
                raise
        if not self.options.disable_auto_compaction:
            while (compaction := pick_compaction(self.versions)) is not None:
                self._run_compaction(compaction)

    def _new_memtable(self) -> MemTable:
        options = self.options
        return MemTable(options.indexed_attributes,
                        options.attribute_extractor)

    def _rotate_memtable_locked(self) -> None:
        """Seal the active MemTable into ``imm`` and switch to a new WAL.

        Mutex held; ``self.imm`` must be ``None``.  The old WAL stays on
        disk until :meth:`_flush_imm` durably installs the level-0 table
        whose edit records the *new* log number.
        """
        assert self.imm is None
        if self._has_wal:
            closed_log = self._log_number
            try:
                self._open_wal(self.versions.new_file_number())
            except OSError as exc:
                self._park_if_disk_full(exc)
                raise
            self._closed_logs.append(closed_log)
            self._imm_wal_need = self._log_number
        else:
            # The new MemTable's records go to the host's current WAL on.
            self._imm_wal_need = self._host._log_number
        self.memtable.seal()
        self.imm = self.memtable
        self.memtable = self._new_memtable()
        # The reused inline view names the sealed MemTable: let it go with
        # its flush, not with this table's next read.
        self._inline_view = None

    def _seal_full_memtable(self) -> bool:
        """Seal the full MemTable unless the last one is still being flushed
        (then it grows a while); a write leader's step.  Whether it did."""
        with self._mutex:
            if self.imm is not None:
                return False
            self._rotate_memtable_locked()
            return True

    def _flush_imm(self, background: bool = False) -> None:
        """Flush the sealed MemTable to level 0, then retire its WAL.

        The steps every flush runs, on the background thread or — inline —
        on the caller's.  One edit makes the table live AND retires the old
        WAL: two edits would open a crash window where the table is live
        but the manifest still points at the old log, and recovery would
        replay writes already in the table, folding merge operands twice.
        """
        imm = self.imm
        assert imm is not None
        need = self._imm_wal_need
        self.compactor.flush_memtable(imm, log_number=self._wal_floor(need))
        with self._mutex:
            self.imm = None
            self._wal_need = need
            if background:
                self.pipeline_stats.bg_flushes += 1
            self._stall_cv.notify_all()
        (self._host or self)._retire_logs()

    def _retire_logs(self) -> None:
        """Delete the closed WALs every table has flushed past.

        Runs after a flush edit is durable, without any table's mutex held
        on entry.  A crash-interrupted earlier flush (or recovery's own
        cleanup) may have removed one already.
        """
        with self._mutex:
            floor = self._wal_floor(self._wal_need)
            obsolete = [n for n in self._closed_logs if n < floor]
            self._closed_logs = [n for n in self._closed_logs if n >= floor]
        for number in obsolete:
            self.vfs.delete_if_exists(log_file_name(self.name, number))

    # -- background thread -----------------------------------------------------

    def _background_work_ready(self) -> bool:
        # Mutex held (predicate of _await_locked).
        if self._bg_stop:
            return True
        if self._read_only:
            # Read-only (disk full): every flush/compaction is doomed, so
            # park instead of crash-looping.  The thread stays alive for an
            # orderly close(); _bg_stop above still wakes it.
            return False
        if self.imm is not None:
            return True
        if self._manual_compaction or self.options.disable_auto_compaction:
            return False
        return pick_compaction(self.versions) is not None

    def _background_main(self) -> None:
        """Main loop of the maintenance thread: flush ``imm``, then compact.

        Any exception (including a simulated crash from the fault-injecting
        VFS) is captured into ``_bg_error`` and re-raised to the next
        foreground writer/flush, mirroring LevelDB's sticky background
        error.
        """
        try:
            while True:
                imm = None
                compaction = None
                with self._mutex:
                    self._await_locked(
                        self._work_cv, self._background_work_ready, "bg:idle")
                    if self._bg_stop:
                        return
                    imm = self.imm
                    if imm is None and not self._manual_compaction \
                            and not self.options.disable_auto_compaction:
                        compaction = pick_compaction(self.versions)
                        if compaction is not None:
                            self._bg_compacting = True
                try:
                    if imm is not None:
                        self._step("bg:flush")
                        self._flush_imm(background=True)
                    elif compaction is not None:
                        self._step("bg:compact")
                        self._run_compaction(compaction)
                except OSError as exc:
                    # Disk full: a failed flush or compaction installed
                    # nothing (the imm stays readable in memory and its
                    # WAL on disk; compaction inputs stay live), so
                    # nothing acknowledged is lost.  Park read-only
                    # instead of dying into a sticky background error.
                    if not self._park_if_disk_full(exc):
                        raise
        except BaseException as exc:  # noqa: BLE001 - surfaced as _bg_error
            with self._mutex:
                self._bg_error = exc
                self._bg_compacting = False
                self._stall_cv.notify_all()

    def _run_compaction(self, compaction: Compaction) -> None:
        """Run one compaction — the only caller of ``compactor.run``.

        The inline scheduler's job (:meth:`_maintain`), the background
        thread and :meth:`compact_range` all come through here, so what a failed
        compaction does never depends on who asked for it: it installed
        nothing, its inputs stay live and the compactor has deleted what it
        wrote; a full disk parks the DB read-only; the error goes to the
        asker (the background thread has none, so an error that did not
        park becomes the sticky ``_bg_error`` in :meth:`_background_main`);
        and the background thread's claim on the compaction slot is
        released so :meth:`compact_range` and stalled writers move on.
        """
        try:
            self.compactor.run(compaction)
        except OSError as exc:
            self._park_if_disk_full(exc)
            raise
        finally:
            if self._bg_compacting:
                with self._mutex:
                    self._bg_compacting = False
                    self.pipeline_stats.bg_compactions += 1
                    self._stall_cv.notify_all()

    def _retire_table_files(self, file_numbers: list[int]) -> None:
        """Dispose of compaction-input tables, honoring pinned versions;
        zombies left by an earlier sweep get another try."""
        with self._mutex:
            self._sweep_retired_locked(
                [*file_numbers, *sorted(self._zombie_tables)])

    def _sweep_retired_locked(self, file_numbers) -> None:
        """Delete each retired table that no version references any more.

        A pinned read view holds the Version it started from; deleting a
        table that version names would yank blocks out from under the
        read.  Such files wait as *zombies* and are swept again when a pin
        drops (:meth:`_release_view`), at the next retire and at
        :meth:`close`.  With no pins — always the case inline — every
        retired table is deleted on the spot.  A delete that fails leaves
        a zombie too: the edit that dropped the table is already applied,
        so the compaction stands and only the disposal waits.
        """
        current_live = self.versions.current.live_file_numbers()
        pinned = [entry[0].live_file_numbers()
                  for entry in self._version_pins.values()]
        for file_number in file_numbers:
            self._zombie_tables.discard(file_number)
            if file_number in current_live:
                continue  # resurrected by a racing edit; keep it
            if any(file_number in live for live in pinned):
                self._zombie_tables.add(file_number)
            else:
                self.table_cache.evict(file_number)
                try:
                    self.vfs.delete_if_exists(
                        table_file_name(self.name, file_number))
                except SimulatedCrashError:
                    raise  # a crash unwinds everything, as a panic would
                except OSError as exc:
                    logger.error("retired table %d not deleted (%s); "
                                 "retrying at the next sweep",
                                 file_number, exc)
                    self._zombie_tables.add(file_number)

    def _discard_table_files(self, file_numbers: list[int]) -> None:
        """Delete the outputs of a flush or compaction that did not install.

        These files were allocated numbers but never entered any version,
        so there are no pins to honor — they must simply not survive as
        orphans for ``verify_integrity`` to flag.  A file the current
        version does name stays: its edit was applied before the failure (a
        manifest roll that failed after it).

        If the failure was the edit's own manifest write, its record may
        sit in the manifest un-synced, where a later sync would make it
        durable and a reopen would replay it — naming these files.  A fresh
        manifest written from the in-memory state settles that first; if
        it cannot be written either, this raises and nothing is deleted.
        """
        with self._mutex:
            if self._manifest is not None and self._manifest.in_doubt:
                self._roll_manifest()
            live = self.versions.current.live_file_numbers()
        for file_number in file_numbers:
            if file_number in live:
                continue
            self.table_cache.evict(file_number)
            self.vfs.delete_if_exists(table_file_name(self.name, file_number))

    # -- the read view --------------------------------------------------------

    def _acquire_view(self) -> "ReadView":
        """What one read sees (:class:`ReadView`); release it once.

        This is the one place the read path looks at the scheduler.  Under
        the inline one, callers take one thread at a time, so the view is
        taken lock- and pin-free and everything written is visible.  Under
        the threaded one it is captured under the mutex in one short
        critical section, after which the read runs lock-free: the Version
        is refcounted so compaction defers deleting table files the read
        may still touch, and ``max_seq`` is the *published* sequence — a
        committing group publishes only after all its MemTable inserts, so
        no torn (half-a-batch) read is possible.
        """
        if self._closed:
            raise DBClosedError("database is closed")
        if self._bg_thread is None:
            # Pin-free and unbounded, so one view serves every read until
            # a seal or a Version install replaces what it names.
            view = self._inline_view
            if view is None or view.memtables[0] is not self.memtable \
                    or view.version is not self.versions.current:
                view = self._inline_view = ReadView(
                    self, (self.memtable,), self.versions.current,
                    MAX_SEQUENCE, None)
            return view
        # The one scheduling point of the read path: once pinned, snapshot
        # isolation makes the rest of the read independent of concurrent
        # writers, so yielding *here* lets the deterministic harness explore
        # every distinct read outcome.
        self._step("read:pin")
        with self._mutex:
            memtables = self._memtables_locked()
            version = self.versions.current
            entry = self._version_pins.setdefault(id(version), [version, 0])
            entry[1] += 1
            return ReadView(self, memtables, version,
                            self.versions.last_sequence, version)

    def _memtables_locked(self) -> tuple[MemTable, ...]:
        """The view's MemTables; also all that gauges need (no pin, and no
        scheduling point in the middle of a ``stats()`` call)."""
        return (self.memtable,) if self.imm is None \
            else (self.memtable, self.imm)

    def _release_view(self, pin) -> None:
        """Drop a view's pin; the last one out sweeps the zombie tables."""
        with self._mutex:
            entry = self._version_pins[id(pin)]
            entry[1] -= 1
            if entry[1] > 0:
                return
            del self._version_pins[id(pin)]
            if self._zombie_tables:
                self._sweep_retired_locked(sorted(self._zombie_tables))

    def read_view(self) -> "ReadView":
        """A :class:`ReadView` for a read of several probes that must agree
        on the MemTables and the tables (the Embedded index: a walk, then
        GetLite per match); the caller releases it on every way out
        (``with db.read_view() as view:``).  Under the threaded scheduler,
        writes made while it is held are not visible through it.
        """
        view = self._acquire_view()
        try:
            # The holder runs client code between its probes: a scheduling
            # point, so the deterministic harness puts maintenance there.
            self._step("read:held")
        except BaseException:
            view.release()
            raise
        return view

    def flush(self) -> None:
        """Flush the MemTable to a level-0 SSTable and run due compactions;
        returns once everything acknowledged so far is in level 0.

        A sentinel claims the writer-queue head (a WAL-less table's is its
        host's), so no leader is inserting while the active MemTable is
        sealed; the scheduler (:meth:`_schedule`) then flushes it in this
        thread, or the background thread does while this one waits.
        """
        self._check_open()
        host = self._queue_host()
        sentinel = _Writer(None)
        with host._mutex:
            self._check_writable()
            host._writers.append(sentinel)
            host._await_locked(
                host._stall_cv,
                lambda: host._writers[0] is sentinel,
                "flush:queue")
        try:
            with self._mutex:
                if not self.memtable.is_empty():
                    self._schedule(lambda: self.imm is None, "flush:room")
                    self._check_writable()
                    self._rotate_memtable_locked()
        finally:
            with host._mutex:
                popped = host._writers.popleft()
                assert popped is sentinel
                host._stall_cv.notify_all()
        with self._mutex:
            self._schedule(lambda: self.imm is None, "flush:drain")
            self._raise_if_bg_failed()
            if self.imm is not None:
                # Read-only parked the background thread with the immutable
                # MemTable undrained; its data is still fully readable (and
                # still in its WAL), but this flush cannot complete.
                self._check_writable()

    def _log_and_apply(self, edit: VersionEdit) -> None:
        # The mutex serializes a foreground manual compaction against the
        # background thread's flush installs, and makes each manifest
        # log+apply atomic with respect to readers pinning the current
        # version.  Inline (single-threaded) it is uncontended.
        with self._mutex:
            edit.next_file_number = self.versions.next_file_number
            edit.last_sequence = self.versions.last_sequence
            if self._manifest is None:
                # Recovery-time flush: the manifest does not exist yet.  The
                # self-contained snapshot edit written right after captures
                # the applied state, so nothing is lost by skipping the log.
                self.versions.apply(edit)
                return
            if self._manifest.in_doubt:
                self._roll_manifest()  # no edit may follow a doubtful record
            self._manifest.log_edit(edit)
            self.versions.apply(edit)
            if self._manifest.size > self.options.max_manifest_size:
                self._roll_manifest()
            # New level-0 files may unblock stalled writers or create work.
            self._stall_cv.notify_all()
            self._work_cv.notify_all()

    def _roll_manifest(self) -> None:
        """Replace the grown manifest with one snapshot-edit manifest.

        The manifest gains an edit per flush/compaction forever; rolling
        rewrites it as a single self-contained snapshot of the current
        version (LevelDB does the same on reopen and past a size limit).
        """
        old_manifest = self._manifest
        assert old_manifest is not None
        new_manifest = ManifestWriter(self.vfs, self.name,
                                      self.versions.new_file_number())
        # The *manifest's* log number, not the WAL being appended to: a
        # sealed MemTable whose flush has not installed still needs its WAL.
        new_manifest.log_edit(self._snapshot_edit(self.versions.log_number))
        new_manifest.install_as_current()
        old_manifest.close()
        self.vfs.delete_if_exists(
            manifest_file_name(self.name, old_manifest.number))
        self._manifest = new_manifest

    # -- point reads ---------------------------------------------------------

    def get(self, key: bytes, snapshot: Snapshot | None = None) -> bytes | None:
        """Newest visible value of ``key``, or ``None`` (Table 1's GET)."""
        result = self.get_with_seq(key, snapshot)
        if result is None:
            return None
        return result[0]

    def get_with_seq(self, key: bytes, snapshot: Snapshot | None = None
                     ) -> tuple[bytes, int] | None:
        """Like :meth:`get` but also reports the resolving sequence number.

        For a merge chain the sequence of the newest operand is reported:
        it is the "time" the value last changed.
        """
        view = self._acquire_view()  # no ``with``: the GET hot path
        try:
            return view.resolve(
                key, view.max_seq if snapshot is None else snapshot.seq)
        finally:
            view.release()

    def get_many_with_seq(self, keys: Iterable[bytes]
                          ) -> dict[bytes, tuple[bytes, int] | None]:
        """:meth:`get_with_seq` of every key — answer and corruption
        containment alike — under one read view.  Keys are resolved in
        sorted order, so each table's data blocks are visited in
        non-decreasing order and holding the last block read per table
        (``held``) lets keys that share a block read it once."""
        view = self._acquire_view()
        try:
            held: dict = {}
            return {key: view.resolve(key, view.max_seq, held)
                    for key in sorted(set(keys))}
        finally:
            view.release()

    def _fold(self, key: bytes, operands_newest_first: list[bytes],
              base: bytes | None) -> bytes:
        operator = self.options.merge_operator
        if operator is None:
            raise InvalidArgumentError(
                "merge entries present but no merge_operator configured")
        oldest_first = list(reversed(operands_newest_first))
        if base is not None:
            oldest_first.insert(0, base)
        return operator(key, oldest_first)

    # -- LevelDB++ probes -------------------------------------------------------

    def fragments_by_level(
            self, key: bytes, max_seq: int = MAX_SEQUENCE
    ) -> Iterator[tuple[int, list[tuple[int, int, bytes]]]]:
        """Per-level version lists for ``key``, one non-empty level at a
        time: ``(level, [(kind, seq, value)])``.

        Level ``-1`` is the MemTable.  Within a level, entries come newest
        first.  This is the access path of the Lazy index's LOOKUP
        (Algorithm 3): "it checks the MemTable and then the SSTables, and
        moves down in the storage hierarchy one level at a time" — GET's
        walk (:meth:`ReadView.level_walk`), charged to ``Category.INDEX``.
        A level is read only when the caller asks for it, so a walk that
        stops early never reads the levels below.  The generator holds its
        view from its first item until it is exhausted, closed or
        abandoned, as :meth:`scan_with_seq` does.
        """
        with self._acquire_view() as view:
            if max_seq == MAX_SEQUENCE:
                max_seq = view.max_seq  # implicit snapshot, as in get()
            for level, entries in view.level_walk(key, max_seq,
                                                  Category.INDEX, None):
                found = list(entries)
                if found:
                    yield level, found

    def key_maybe_in_levels(self, key: bytes, below_level: int) -> bool:
        """In-memory-only probe: could ``key`` exist in the MemTables or in
        levels < ``below_level``?

        Uses the MemTables (exact) and, per candidate SSTable, the
        in-memory index block and primary bloom filters — zero I/O.  May
        return false positives at the bloom rate; never false negatives.
        """
        with self._acquire_view() as view:
            if any(memtable.get(key, view.max_seq) is not None
                   for memtable in view.memtables):
                return True
            return any(
                self._newest_in_table(meta, key, False) is not None
                for level in range(min(below_level, self.options.max_levels))
                for meta in view.version.files_containing_key(level, key))

    def _newest_in_table(self, meta, key: bytes, confirm: bool) -> int | None:
        """What one table knows of ``key``.

        ``None``: its index block and primary blooms (zero I/O) say it is
        not there.  Otherwise ``MAX_SEQUENCE`` — only a read could tell —
        or, with ``confirm``, what the read found: the newest sequence, 0
        for a bloom false positive.  Conservative: a quarantined (or
        unreadable) table *may* hold a newer version we can no longer
        prove absent, so it answers ``MAX_SEQUENCE`` too and GetLite
        treats the row as stale — missing-but-detected, never a silently
        wrong value.
        """
        file_number = meta.file_number
        if file_number in self._quarantined:
            return MAX_SEQUENCE
        try:
            table = self.table_cache.get(file_number)
            if not table.may_contain_user_key(key):
                return None
            if not confirm:
                return MAX_SEQUENCE
            newest = next(table.versions_raw(key, MAX_SEQUENCE), None)
        except CorruptionError as exc:
            self._contain(file_number, exc)
            return MAX_SEQUENCE
        return newest[1] if newest else 0

    def blocks_admitting(self, meta, attribute: str, low: bytes, high: bytes,
                         value_hash: tuple[int, int] | None = None
                         ) -> tuple[int, Iterable]:
        """One table of a held view, opened for the Embedded index: its
        data-block count (each costs the caller a filter probe) and its
        :meth:`~repro.lsm.sstable.SSTable.blocks_admitting` — ``(block,
        column, boundary_key)`` triples — read under
        :meth:`_contain`'s idiom — a quarantined or unopenable table has
        no blocks, a rotten block ends the stream."""
        file_number = meta.file_number
        if file_number not in self._quarantined:
            try:
                table = self.table_cache.get(file_number)
                return table.num_data_blocks, self._contained(
                    file_number,
                    table.blocks_admitting(attribute, low, high, value_hash))
            except CorruptionError as exc:
                self._contain(file_number, exc)
        return 0, ()

    def _contained(self, file_number: int, entries: Iterator) -> Iterator:
        try:
            yield from entries
        except CorruptionError as exc:
            self._contain(file_number, exc)

    # -- range reads ------------------------------------------------------------

    def scan(self, lo: bytes | None = None, hi: bytes | None = None,
             snapshot: Snapshot | None = None,
             category: Category = Category.DATA, fill_cache: bool = True
             ) -> Iterator[tuple[bytes, bytes]]:
        """User-visible ordered iteration over ``lo <= key <= hi``;
        ``fill_cache=False`` leaves the block cache as it found it (an
        audit's pass over everything)."""
        return map(itemgetter(0, 1),
                   self.scan_with_seq(lo, hi, snapshot, category, fill_cache))

    def scan_with_seq(self, lo: bytes | None = None, hi: bytes | None = None,
                      snapshot: Snapshot | None = None,
                      category: Category = Category.DATA,
                      fill_cache: bool = True
                      ) -> Iterator[tuple[bytes, bytes, int]]:
        """Like :meth:`scan` but yields ``(key, value, seq)``.

        This is a fused fast path over the reference pipeline of
        :mod:`repro.lsm.iterator` (which the equivalence tests pin it
        against): one loop does the k-way heap
        merge and the version resolution directly on ``(sort_key, value)``
        pairs, so no :class:`InternalKey` is allocated per entry and no
        per-entry generator hand-off happens between pipeline stages.
        """
        # Released when the scan is exhausted, closed, or abandoned
        # (generator finalization leaves the ``with`` block).
        with self._acquire_view() as view:
            max_seq = view.max_seq if snapshot is None else snapshot.seq
            streams = view._range_streams(
                range(-1, self.options.max_levels), lo, hi, category,
                fill_cache)

            # Seed the heap: (sort_key, stream_index, value, advance).  The
            # stream index breaks sort-key ties, so the newest component wins
            # (streams are listed memtable first, then levels top-down).
            heap: list[tuple[tuple[bytes, int], int, bytes, Any]] = []
            for index, stream in enumerate(streams):
                advance = stream.__next__
                try:
                    sort_key, value = advance()
                except StopIteration:
                    continue
                heap.append((sort_key, index, value, advance))
            heapq.heapify(heap)
            heappop, heapreplace = heapq.heappop, heapq.heapreplace

            current_key: bytes | None = None
            operands: list[bytes] = []  # newest-first merge operands
            operand_seq = 0
            done_with_key = False
            while heap:
                sort_key, index, value, advance = heap[0]
                try:
                    nxt = advance()
                except StopIteration:
                    heappop(heap)
                else:
                    heapreplace(heap, (nxt[0], index, nxt[1], advance))
                user_key = sort_key[0]
                if user_key != current_key:
                    if operands:
                        yield (current_key,
                               self._fold(current_key, operands, None),
                               operand_seq)
                        operands = []
                    if hi is not None and user_key > hi:
                        return
                    current_key = user_key
                    done_with_key = False
                if done_with_key or (lo is not None and user_key < lo):
                    continue
                tag = -sort_key[1]
                seq = tag >> 8
                if seq > max_seq:
                    continue
                kind = tag & 0xFF
                if kind == KIND_MERGE:
                    if not operands:
                        operand_seq = seq
                    operands.append(value)
                    continue
                done_with_key = True
                if operands:
                    base = value if kind == KIND_VALUE else None
                    yield (current_key,
                           self._fold(current_key, operands, base),
                           operand_seq)
                    operands = []
                elif kind == KIND_VALUE:
                    yield current_key, value, seq
                # KIND_DELETE with no pending operands: key is simply hidden.
            if operands:
                yield (current_key, self._fold(current_key, operands, None),
                       operand_seq)

    def _table_entries(self, files, entries: Callable[[Any], Iterator]
                       ) -> Iterator:
        """``entries(table)`` of each of ``files`` in turn, as one stream.

        The scan paths' form of :meth:`_contain`'s idiom: a quarantined
        table contributes nothing, and a decode error ends *that table's*
        part of the stream (its later blocks are unreachable once it is
        quarantined) instead of killing the whole scan; entries from blocks
        that decoded cleanly have already been served and stay valid.
        """
        quarantined = self._quarantined
        for meta in files:
            file_number = meta.file_number
            if file_number in quarantined:
                continue
            try:
                yield from entries(self.table_cache.get(file_number))
            except CorruptionError as exc:
                self._contain(file_number, exc)

    def scan_level(self, level: int, lo: bytes | None = None,
                   hi: bytes | None = None,
                   category: Category = Category.INDEX
                   ) -> Iterator[tuple[InternalKey, bytes]]:
        """:meth:`ReadView.scan_level` on a view of its own, held as
        :meth:`scan_with_seq` holds its view."""
        with self._acquire_view() as view:
            yield from view.scan_level(level, lo, hi, category)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current sequence number for consistent reads."""
        self._check_open()
        with self._mutex:
            # The *published* sequence: an in-flight write group's data is
            # never included, even mid-commit.
            snap = Snapshot(self, self.versions.last_sequence)
            self._snapshots.append(snap)
            return snap

    def _release_snapshot(self, snap: Snapshot) -> None:
        with self._mutex:
            self._snapshots = [s for s in self._snapshots if s is not snap]

    def _oldest_snapshot_seq(self) -> int:
        # Called from the background thread (compaction's drop criterion)
        # and from foreground compactions alike.
        with self._mutex:
            if not self._snapshots:
                return MAX_SEQUENCE
            return min(snap.seq for snap in self._snapshots)

    # -- maintenance & introspection ---------------------------------------------

    def compact_range(self) -> None:
        """Flush, then push every level's data downward once (manual, full).

        Under the threaded scheduler the manual compaction runs on the
        calling thread but first takes the *manual-compaction slot*: the
        background thread stops picking automatic compactions (flushes still
        run) so the two never install conflicting edits over the same input
        files.
        """
        self._check_open()
        self._check_writable()
        self.flush()
        with self._compaction_slot():
            self._compact_range_levels()

    @contextmanager
    def _compaction_slot(self, audit: bool = False):
        """Hold the manual-compaction slot: the background thread finishes
        the compaction it runs and starts no other until the block ends.
        A sticky background error raises, unless an ``audit`` waits."""
        with self._mutex:
            self._manual_compaction = True
            self._work_cv.notify_all()
            try:
                self._await_locked(
                    self._stall_cv,
                    lambda: not self._bg_compacting
                    or self._bg_error is not None,
                    "manual:exclusive")
                if not audit:
                    self._raise_if_bg_failed()
            except BaseException:
                self._manual_compaction = False
                self._work_cv.notify_all()
                raise
        try:
            yield
        finally:
            with self._mutex:
                self._manual_compaction = False
                self._work_cv.notify_all()

    def _compact_range_levels(self) -> None:
        for level in range(self.options.max_levels - 1):
            files = list(self.versions.current.levels[level])
            if not files:
                continue
            lo = min(meta.smallest_user_key for meta in files)
            hi = max(meta.largest_user_key for meta in files)
            inputs1 = self.versions.current.overlapping_files(level + 1, lo, hi)
            self._run_compaction(
                Compaction(level, files, inputs1, manual=True))

    def checkpoint(self, dest_vfs: VFS, dest_name: str) -> int:
        """Write a consistent, independently openable copy of the database.

        SSTables are immutable, so a checkpoint is: flush the MemTable,
        then copy every live table byte-for-byte and write a fresh
        self-contained manifest describing them (RocksDB's Checkpoint
        mechanism).  Later writes to this database never touch the copy.
        Returns the number of files copied.
        """
        self._check_open()
        self.flush()
        # The view's pin keeps background compaction from deleting a table
        # file mid-copy (it becomes a zombie until we release).
        with self._acquire_view() as view:
            copied = 0
            for _level, meta in view.version.all_files():
                payload = self.vfs.read_whole(
                    table_file_name(self.name, meta.file_number),
                    Category.OTHER)
                dest_vfs.write_whole(
                    table_file_name(dest_name, meta.file_number), payload,
                    Category.OTHER)
                copied += 1
            manifest = ManifestWriter(dest_vfs, dest_name, 1)
            manifest.log_edit(self._snapshot_edit(0, view.version,
                                                  compact_pointers=False))
            manifest.install_as_current()
            manifest.close()
            return copied

    def verify_integrity(self):
        """Audit the database's persistent state; see :mod:`repro.lsm.checker`.

        Checks everything a scrub checks (the CRC of every live block, the
        WAL and the manifest) plus manifest-vs-filesystem agreement
        (including orphaned engine files left by an interrupted crash
        recovery) and per-table logical invariants.  Returns an
        :class:`~repro.lsm.checker.IntegrityReport`; ``report.ok`` means the
        database is sound.
        """
        self._check_open()
        from repro.lsm.checker import verify_integrity

        # A compaction in flight has outputs not yet live and inputs not
        # yet deleted: the audit would call them orphans.
        with self._compaction_slot(audit=True):
            return verify_integrity(self)

    def approximate_size(self) -> int:
        """Total bytes of all files belonging to this database."""
        return self.vfs.total_size(self.name + "/")

    def num_nonempty_levels(self) -> int:
        """The paper's L: populated on-disk levels, plus the MemTable if any."""
        with self._mutex:
            memtables = self._memtables_locked()
            levels = self.versions.current.num_nonempty_levels()
        if not all(memtable.is_empty() for memtable in memtables):
            levels += 1
        return levels

    def stats(self) -> dict[str, Any]:
        """Operational counters, one JSON-friendly tree (RocksDB's
        ``GetProperty``, condensed): each group is its counter dataclass
        as a dict plus the gauges read under the same mutex acquisition.
        """
        self._check_open()
        block_cache = self.table_cache.block_cache
        with self._mutex:
            memtables = self._memtables_locked()
            imm_pending = 1 if self.imm is not None else 0
            levels_due = sum(score >= 1.0 for score
                             in self.versions.current.level_scores())
            pipeline = self.pipeline_stats
            groups = pipeline.write_groups
            return {
                "levels": self.level_file_counts(),
                "last_sequence": self.versions.last_sequence,
                "memtable_entries": sum(len(m) for m in memtables),
                "memtable_bytes": sum(m.approximate_memory_usage
                                      for m in memtables),
                "compaction": counter_dict(self.compactor.stats),
                "table_cache": self.table_cache.stats(),
                "block_cache": (None if block_cache is None
                                else block_cache.stats()),
                "io": counter_dict(self.vfs.stats),
                "pipeline": {
                    "background": self._bg_thread is not None,
                    "imm_pending": imm_pending,
                    # The work the background thread still owes.
                    "compaction_queue_depth": imm_pending + levels_due,
                    **counter_dict(pipeline),
                    "mean_group_batches": (
                        pipeline.group_commit_batches / groups
                        if groups else 0.0),
                    "bg_error": (None if self._bg_error is None
                                 else repr(self._bg_error)),
                },
                "corruption": {
                    **counter_dict(self.corruption_stats),
                    "quarantined": sorted(self._quarantined),
                    "filter_degradations":
                        self.table_cache.filter_degradations,
                    "read_only": self._read_only,
                    "read_only_reason": self._read_only_reason,
                },
            }

    def level_file_counts(self) -> list[int]:
        return [len(files) for files in self.versions.current.levels]

    def debug_string(self) -> str:
        """The :meth:`stats` tree as text; ``python -m repro stats`` prints it.

        One ``key: value`` line per leaf, indented under its group, plus a
        files / bytes / entries line for every populated level.
        """
        lines = [f"-- DB {self.name} --",
                 f"total size: {self.approximate_size():,} bytes"]
        for key, value in self.stats().items():
            lines.extend(_tree_lines(key, value, ""))
            if key != "levels":
                continue
            version = self.versions.current
            for level, files in enumerate(version.levels):
                if files:
                    entries = sum(meta.num_entries for meta in files)
                    lines.append(
                        f"  L{level}: {len(files):3d} files  "
                        f"{version.level_size(level):>10,} bytes  "
                        f"{entries:>8,} entries")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        files = sum(self.level_file_counts())
        return (f"DB(name={self.name!r}, files={files}, "
                f"last_seq={self.versions.last_sequence})")


class ReadView:
    """What one read sees: ``memtables`` newest first (the active one, then
    a sealed one still being flushed), the pinned ``version``, and
    ``max_seq``, the implicit snapshot of a read that names none.

    Taken by :meth:`DB._acquire_view` and released once, on every way out
    (``with`` or :meth:`release`).  Its methods are the reads of one view:
    the per-key walk, GetLite, the MemTable postings, the range streams.
    """

    __slots__ = ("memtables", "version", "max_seq", "_db", "_pin")

    def __init__(self, db: DB, memtables: tuple[MemTable, ...], version,
                 max_seq: int, pin) -> None:
        self._db = db
        self.memtables = memtables
        self.version = version
        self.max_seq = max_seq
        self._pin = pin

    def __enter__(self) -> "ReadView":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def release(self) -> None:
        """Drop the view's pin, if it has one; a second call does nothing."""
        pin = self._pin
        if pin is not None:
            self._pin = None
            self._db._release_view(pin)

    # -- the per-key walk -----------------------------------------------------

    def resolve(self, key: bytes, max_seq: int, held: dict | None = None
                ) -> tuple[bytes, int] | None:
        """GET: fold ``key``'s versions, newest first, down to a base or
        tombstone; ``(value, seq)`` or ``None``."""
        operands: list[bytes] = []
        newest_seq: int | None = None
        for _level, entries in self.level_walk(key, max_seq, Category.DATA,
                                               held):
            for kind, seq, value in entries:
                if newest_seq is None:
                    newest_seq = seq
                if kind == KIND_MERGE:
                    operands.append(value)
                    continue
                if kind == KIND_VALUE:
                    if operands:
                        return self._db._fold(key, operands, value), newest_seq
                    return value, seq
                # Tombstone: stop — older versions are dead.
                if operands:
                    return self._db._fold(key, operands, None), newest_seq
                return None
        if operands:
            assert newest_seq is not None
            return self._db._fold(key, operands, None), newest_seq
        return None

    def level_walk(self, key: bytes, max_seq: int, category: Category,
                   held: dict | None
                   ) -> Iterator[tuple[int, Iterable[tuple[int, int, bytes]]]]:
        """The one per-key walk: ``(level, entries)`` per component level
        that may hold ``key``, top down, each level's ``(kind, seq, value)``
        entries newest first.

        Level ``-1`` is the view's MemTables (the active one first: its
        sequences are strictly newer than the sealed one's).  Level 0's
        files overlap, so their versions are read together and interleaved
        by sequence; a deeper level has at most one candidate file, whose
        entries stream lazily, so a GET that resolves in an upper component
        never opens the tables below it.  Tables are read under
        :meth:`DB._table_entries`'s form of :meth:`DB._contain`'s idiom.
        """
        in_memory = []
        for memtable in self.memtables:
            for entry in memtable.versions(key, max_seq):
                in_memory.append((entry.kind, entry.seq, entry.value))
        if in_memory:
            yield -1, in_memory
        db, version = self._db, self.version
        read = methodcaller("versions_raw", key, max_seq, category, held)
        for level in range(db.options.max_levels):
            files = version.files_containing_key(level, key)
            if not files:
                continue
            if level:
                yield level, db._table_entries(files, read)
            else:
                yield 0, sorted(db._table_entries(files, read),
                                key=itemgetter(1), reverse=True)

    # -- GetLite ----------------------------------------------------------------

    def newer_version(self, key: bytes, seq: int, level: int, position: int
                      ) -> tuple[bool, int, int]:
        """GetLite: is there a version of ``key`` newer than ``seq``, found
        in file ``position`` of ``level`` (the paper's ``currentLevel``)?

        One pass over what may hold one: a level-0 match's overlapping
        siblings, then the MemTables, then levels ``0 .. level-1`` down to
        the first deeper level that holds the key.  A table answers through
        :meth:`DB._newest_in_table`: in memory, with a read only to confirm
        a positive; what it cannot read counts as newer.  Returns
        ``(newer, memory_only, confirm_reads)``: ``memory_only`` is 1 if
        nothing above the level admitted the key, and a confirm read is
        counted per sibling read, plus one if anything above admitted it.
        """
        db, version = self._db, self.version
        newest_in_table = db._newest_in_table
        reads = 0
        if level == 0:
            # In a tree the engine built, the files newer than the match are
            # those before ``position``: flushes give level 0 ordered,
            # disjoint sequence ranges.  Repair puts every table in level 0
            # by file number, and a table it rewrote gets a new number —
            # ahead of newer ones; asking by sequence range keeps GetLite
            # right there too, with no extra read elsewhere.
            for index, meta in enumerate(version.levels[0]):
                if index != position and meta.seq_upper_bound > seq and \
                        meta.contains_user_key(key):
                    newest = newest_in_table(meta, key, True)
                    if newest is not None:
                        reads += 1
                        if newest > seq:
                            return True, 0, reads
        for memtable in self.memtables:
            entry = memtable.get(key, self.max_seq)
            if entry is not None:
                return entry.seq > seq, 0, reads + 1
        admitted = False
        best = 0
        for above in range(min(level, db.options.max_levels)):
            for meta in version.files_containing_key(above, key):
                newest = newest_in_table(meta, key, True)
                if newest is None:
                    continue
                if newest == MAX_SEQUENCE:
                    return True, 0, reads + 1
                admitted = True
                best = max(best, newest)
            if best and above:
                break  # deeper levels are older still
        return best > seq, int(not admitted), reads + admitted

    # -- the Embedded index's MemTable component ---------------------------------

    def newest_in_memory(self, key: bytes) -> tuple[int, int, bytes] | None:
        """``(kind, seq, value)`` of ``key``'s newest version in the view's
        MemTables."""
        for memtable in self.memtables:
            entry = memtable.get(key, self.max_seq)
            if entry is not None:
                return entry.kind, entry.seq, entry.value
        return None

    def memtable_postings(self, attribute: str, low: bytes,
                          high: bytes) -> list[tuple[int, bytes]]:
        """``(seq, key)`` postings of the view's MemTables whose encoded
        ``attribute`` lies in ``[low, high]`` (:meth:`MemTable.postings`).
        Unchecked — a posting may be superseded or past the view's
        sequence; a caller confirms each with :meth:`newest_in_memory`."""
        return [posting for memtable in self.memtables
                for posting in memtable.postings(attribute, low, high)]

    # -- range reads ------------------------------------------------------------

    def scan_level(self, level: int, lo: bytes | None = None,
                   hi: bytes | None = None,
                   category: Category = Category.INDEX
                   ) -> Iterator[tuple[InternalKey, bytes]]:
        """Raw versions stored in one level, in internal-key order.

        ``level == -1`` scans the MemTables.  No version resolution and no
        tombstone hiding happens here: the Lazy and Composite indexes
        interpret per-level entries themselves (Algorithms 3-4, 6-7).
        Entries outside ``[lo, hi]`` (user keys) are excluded; every table
        read is charged to ``category``.
        """
        streams = self._range_streams((level,), lo, hi, category)
        stream = streams[0] if len(streams) == 1 \
            else heapq.merge(*streams, key=itemgetter(0))
        for (user_key, negated_tag), value in stream:
            if lo is not None and user_key < lo:
                continue
            if hi is not None and user_key > hi:
                return
            tag = -negated_tag
            yield InternalKey(user_key, tag >> 8, tag & 0xFF), value

    def _range_streams(self, levels: Iterable[int], lo: bytes | None,
                       hi: bytes | None, category: Category,
                       fill_cache: bool = True
                       ) -> list[Iterator[tuple[tuple[bytes, int], bytes]]]:
        """The one range-stream builder: sorted ``(sort_key, value)``
        streams of ``levels`` (``-1``: the view's MemTables) from ``lo`` on,
        newest component first.

        One stream per MemTable and per level-0 file, since those overlap.
        Deeper levels are disjoint and sorted, so a whole level concatenates
        into a single stream (LevelDB's concatenating iterator): a merge
        heap holds one entry per *level*, not per file, keeping each sift
        logarithmic in the number of components rather than of files.
        """
        table_entries, version = self._db._table_entries, self.version
        entries = methodcaller(
            "sorted_entries",
            None if lo is None else
            pack_internal_key(lo, MAX_SEQUENCE, KIND_FOR_SEEK),
            category, fill_cache)
        streams = []
        for level in levels:
            if level == -1:
                streams.extend(_memtable_sorted(lo, memtable)
                               for memtable in self.memtables)
            elif level == 0:
                streams.extend(table_entries((meta,), entries)
                               for meta in version.overlapping_files(0, lo, hi))
            else:
                files = version.overlapping_files(level, lo, hi)
                if files:
                    streams.append(table_entries(files, entries))
        return streams


def _memtable_sorted(lo: bytes | None, memtable: MemTable
                     ) -> Iterator[tuple[tuple[bytes, int], bytes]]:
    """MemTable entries from ``lo`` on, as the scan path's
    ``(sort_key, value)`` pairs (``b""`` sorts before every key)."""
    for entry in memtable.entries_from(lo or b""):
        yield ((entry.user_key, -((entry.seq << 8) | entry.kind)),
               entry.value)


def _tree_lines(key: Any, value: Any, indent: str) -> list[str]:
    """``key: value`` for a leaf; a non-empty dict nests one indent deeper."""
    if not isinstance(value, dict) or not value:
        return [f"{indent}{key}: {value}"]
    lines = [f"{indent}{key}:"]
    for child, item in value.items():
        lines.extend(_tree_lines(child, item, indent + "  "))
    return lines
