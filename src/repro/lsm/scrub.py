"""Background CRC scrubber: finds silent bit rot before a query does.

With ``paranoid_checks`` off (the default — the paper's I/O accounting
reads data blocks without a per-read checksum pass), a flipped bit in a
data block sits undetected until a scan or compaction happens to decode
it.  The :class:`Scrubber` closes that window: it walks every live
SSTable, the WAL tail and the manifest, re-reading every block with
``verify_crc=True`` — always, regardless of ``paranoid_checks`` — and
reports (and, under ``on_corruption="quarantine"``, contains) whatever
it finds.

The walk is *budgeted* and *resumable*: ``Scrubber.run(block_budget=N)``
verifies about ``N`` blocks and remembers where it stopped, so a
maintenance loop can amortize a full-database pass over many small slices
instead of stalling the world.  The cursor is table-granular (a table,
once started, is always finished — so any budget makes forward progress,
and resumption stays correct across compactions that rewrite the file
set mid-cycle); the budget may therefore overshoot by up to one table's
block count.

Every read here bypasses the table cache, the block cache and (via a
fresh file handle) any already-decoded state: the scrubber's job is to
check the *bytes on disk*, not the caches' memory of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lsm.errors import CorruptionError, NotFoundError
from repro.lsm.manifest import (
    list_db_files,
    manifest_file_name,
    read_current_manifest_number,
    table_file_name,
)
from repro.lsm.version import VersionEdit
from repro.lsm.wal import LogReader


@dataclass
class ScrubReport:
    """Outcome of one :meth:`Scrubber.run` slice."""

    tables_scanned: int = 0
    blocks_verified: int = 0
    wal_files_verified: int = 0
    manifest_verified: bool = False
    problems: list[str] = field(default_factory=list)
    quarantined: list[int] = field(default_factory=list)
    #: True when this run finished a full cycle (all tables + WAL +
    #: manifest); False when the block budget ran out mid-cycle.
    complete: bool = False

    @property
    def clean(self) -> bool:
        return not self.problems


class Scrubber:
    """Budgeted, resumable CRC verification over one :class:`~repro.lsm.db.DB`.

    Persist the instance (``DB.scrub()`` does) and call :meth:`run`
    repeatedly; each call continues where the previous budget ran out.
    """

    def __init__(self, db) -> None:
        self.db = db
        self._cursor = 0       # first file_number not yet fully verified
        self.cycles_completed = 0

    def run(self, block_budget: int | None = None) -> ScrubReport:
        """Verify up to ``block_budget`` blocks (None = the whole cycle)."""
        db = self.db
        report = ScrubReport()
        with db._mutex:
            live = sorted(
                (meta.file_number for _lvl, meta in
                 db.versions.current.all_files()),
                )
        for file_number in live:
            if file_number < self._cursor:
                continue
            if db.is_quarantined(file_number):
                continue  # already known bad; repair handles it
            # The budget is enforced at table boundaries, and only once a
            # table is verified: a table, once started, is always finished
            # (so every budget, 0 included, makes forward progress — a
            # per-block cursor would go stale when a compaction rewrote the
            # file mid-cycle).
            if block_budget is not None and report.tables_scanned and \
                    report.blocks_verified >= block_budget:
                self._cursor = file_number
                return report
            self._scrub_table(file_number, report)
        # Tables done; the WAL tail and manifest are small — always finish
        # them within the run that completes the table walk.
        self._scrub_wal(report)
        self._scrub_manifest(report)
        self._cursor = 0
        self.cycles_completed += 1
        report.complete = True
        return report

    # -- pieces -------------------------------------------------------------

    def _contain(self, file_number: int, exc: CorruptionError,
                 report: ScrubReport) -> None:
        db = self.db
        if db.options.on_corruption == "quarantine":
            db.corruption_stats.events += 1
            db._quarantine_table(file_number, exc)
            report.quarantined.append(file_number)

    def _scrub_table(self, file_number: int, report: ScrubReport) -> None:
        from repro.lsm.sstable import SSTable

        db = self.db
        name = table_file_name(db.name, file_number)
        try:
            handle = db.vfs.open_random(name)
        except NotFoundError:
            return  # compacted away since the file list was taken
        try:
            # Opening verifies footer, index block and every meta block
            # (meta CRCs are always checked; under the quarantine policy a
            # bad one degrades into degraded_filters instead of raising).
            try:
                table = SSTable(db.options, handle, file_number)
            except CorruptionError as exc:
                report.problems.append(
                    f"table {file_number}: unreadable ({exc})")
                self._contain(file_number, exc, report)
                return
            report.tables_scanned += 1
            report.blocks_verified += 1  # footer + index, charged as one
            for degraded in table.degraded_filters:
                report.problems.append(
                    f"table {file_number}: corrupt meta block {degraded!r}")
            bad_blocks = 0
            for block_index, payload in table.verified_blocks():
                report.blocks_verified += 1
                if isinstance(payload, CorruptionError):
                    bad_blocks += 1
                    report.problems.append(
                        f"table {file_number} block {block_index}: "
                        f"{payload}")
            if bad_blocks or table.degraded_filters:
                self._contain(
                    file_number,
                    CorruptionError(
                        f"scrub found {bad_blocks} bad data blocks and "
                        f"{len(table.degraded_filters)} bad meta blocks"),
                    report)
        finally:
            handle.close()

    def _scrub_wal(self, report: ScrubReport) -> None:
        db = self.db
        logs = list_db_files(db.vfs, db.name).logs
        for _number, name in sorted(logs.items()):
            try:
                reader = LogReader(db.vfs.open_random(name))
            except NotFoundError:
                continue
            report.wal_files_verified += 1
            try:
                for _payload in reader:
                    pass  # CRCs verified by iteration; a torn tail is fine
            except CorruptionError as exc:
                report.problems.append(f"WAL {name}: {exc}")

    def _scrub_manifest(self, report: ScrubReport) -> None:
        db = self.db
        try:
            number = read_current_manifest_number(db.vfs, db.name)
        except CorruptionError as exc:
            report.problems.append(f"CURRENT: {exc}")
            return
        if number is None:
            return
        name = manifest_file_name(db.name, number)
        try:
            reader = LogReader(db.vfs.open_random(name))
        except NotFoundError:
            report.problems.append(f"manifest {name}: missing")
            return
        try:
            for payload in reader:
                VersionEdit.decode(payload)
        except CorruptionError as exc:
            report.problems.append(f"manifest {name}: {exc}")
            return
        report.manifest_verified = True
