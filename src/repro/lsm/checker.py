"""The integrity audit: verify, scrub and repair read the files one way.

Three shared pieces read what a database holds on disk, so a finding is
worded the same whichever tool made it (DESIGN.md §9):

* :class:`TableAudit` reads one table: opened with rotten meta blocks
  degraded, whatever the corruption policy (blooms, zone maps and columns
  are data derived from the immutable run, so a rotten one is a finding,
  not the end of the walk), and every data block re-read and re-checksummed
  past every cache and ``paranoid_checks``;
* :class:`EntrySummary` recomputes a table's manifest record from its
  entries;
* :func:`_audit_wal` CRC-checks every WAL, and :func:`_audit_manifest`
  replays the manifest as a reopen would.

:class:`Scrubber` uses them CRC-only, on a budget.  :func:`verify_integrity`
adds what only an offline pass affords, the way LevelDB's paranoid mode and
``ldb verify`` do: manifest vs filesystem, orphaned files, key order, each
table's summary against its manifest record, and the Embedded index's
soundness — every attribute value a block holds passes the block's bloom
filter and zone map (a filter that could reject a present value would
silently lose query results), and the block's column holds, entry by entry,
the encoding recomputed from the entry itself.  Level order is the version
set's invariant, checked on every install and so by the manifest replay.
:func:`repro.lsm.repair.repair_db` keeps or rewrites tables from them.

Findings are human-readable problem strings; none means the files are sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

# Looked up through the module at call time, so a test can substitute the
# class the audit opens tables with.
import repro.lsm.sstable as sstable
from repro.lsm.block import Block
from repro.lsm.bloom import bloom_may_contain
from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError, NotFoundError
from repro.lsm.keys import KIND_VALUE, internal_sort_key, unpack_internal_key
from repro.lsm.manifest import (
    list_db_files,
    recover_version_set,
    table_file_name,
)
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, VersionSet
from repro.lsm.vfs import VFS
from repro.lsm.wal import LogReader
from repro.lsm.zonemap import ZoneMapBuilder, column_entry


@dataclass
class IntegrityReport:
    """Outcome of one :func:`verify_integrity` run."""

    tables_checked: int = 0
    entries_checked: int = 0
    blocks_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def problem(self, text: str) -> None:
        self.problems.append(text)


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


class TableAudit:
    """One audit read of table ``file_number``; findings go to ``problems``.

    ``table`` is ``None`` when the file is gone (compacted away since the
    file list was taken; verify reports a missing live table from the
    manifest) or failed to open (``error``).  Otherwise exhaust
    :meth:`blocks` or :meth:`entries` once, which closes the file (a
    caller that reads no block closes ``table.file`` itself).
    """

    def __init__(self, vfs: VFS, db_name: str, options: Options,
                 file_number: int, problems: list[str]) -> None:
        self.file_number = file_number
        self.problems = problems
        self.error: CorruptionError | None = None
        self.blocks_read = 0
        self.bad_blocks = 0
        self.table = None
        try:
            self.table = sstable.SSTable.open(
                vfs, db_name, replace(options, on_corruption="quarantine"),
                file_number)
        except NotFoundError:
            return
        except CorruptionError as exc:
            self.error = exc
            problems.append(f"table {file_number}: unreadable ({exc})")
            return
        for name in self.table.degraded_filters:
            problems.append(
                f"table {file_number}: corrupt meta block {name!r}")

    def blocks(self) -> Iterator[tuple[int, bytes]]:
        """``(block_index, payload)`` of every data block that passes its
        CRC; a block that fails is reported and skipped."""
        try:
            for block_index, payload in self.table.verified_blocks():
                self.blocks_read += 1
                if isinstance(payload, CorruptionError):
                    self._bad_block(block_index, payload)
                else:
                    yield block_index, payload
        finally:
            self.table.file.close()

    def entries(self) -> Iterator[tuple[int, list[tuple[bytes, bytes]]]]:
        """:meth:`blocks`, decoded: a block that fails to is reported."""
        for block_index, payload in self.blocks():
            try:
                entries = list(Block(payload))
            except CorruptionError as exc:
                self._bad_block(block_index, exc)
                continue
            yield block_index, entries

    def _bad_block(self, block_index: int, exc: CorruptionError) -> None:
        self.bad_blocks += 1
        self.problems.append(
            f"table {self.file_number} block {block_index}: {exc}")


class EntrySummary:
    """A table's manifest record recomputed from its entries, fed in table
    order (:class:`~repro.lsm.sstable.TableProperties`, as the builder sums
    them): verify compares it with the manifest, repair installs it."""

    def __init__(self, attributes: tuple[str, ...],
                 extractor: Callable[[bytes], Any]) -> None:
        self.attributes = attributes
        self._extractor = extractor
        self._zonemaps = [ZoneMapBuilder() for _attribute in attributes]
        self.props = sstable.TableProperties()

    def add(self, ikey_bytes: bytes, value: bytes) -> list[bytes]:
        """Count one entry; returns its column slot for each attribute."""
        ikey = unpack_internal_key(ikey_bytes)
        self.props.track(ikey_bytes, ikey.seq)
        if not self.attributes:
            return []
        attrs = self._extractor(value) if ikey.kind == KIND_VALUE else None
        slots = [column_entry(attrs, attribute)
                 for attribute in self.attributes]
        for builder, slot in zip(self._zonemaps, slots):
            if slot:
                builder.add(slot)
        return slots

    def finish(self) -> sstable.TableProperties:
        self.props.secondary_zonemaps = {
            attribute: builder.finish()
            for attribute, builder in zip(self.attributes, self._zonemaps)}
        return self.props

    def mismatches(self, meta: FileMetaData) -> Iterator[str]:
        """How the manifest record ``meta`` disagrees with the entries."""
        found = self.finish()
        if found.num_entries != meta.num_entries:
            yield (f"manifest records {meta.num_entries} entries, found "
                   f"{found.num_entries}")
        if found.smallest is None:
            return
        if found.smallest != meta.smallest:
            yield "smallest key mismatch"
        if found.largest != meta.largest:
            yield "largest key mismatch"
        if not (meta.min_seq <= found.min_seq
                and found.max_seq <= meta.max_seq):
            yield (f"sequence range [{found.min_seq}, {found.max_seq}] "
                   f"outside manifest [{meta.min_seq}, {meta.max_seq}]")
        for attribute, zone in found.secondary_zonemaps.items():
            recorded = meta.secondary_zonemaps.get(attribute)
            if recorded is not None and not zone.is_empty and not (
                    recorded.contains(zone.min_value)
                    and recorded.contains(zone.max_value)):
                yield (f"file-level zone map for {attribute!r} excludes a "
                       f"present value")


def _audit_wal(db: DB, problems: list[str]) -> int:
    """CRC-check every WAL (a torn tail is fine); returns how many."""
    verified = 0
    for _number, name in sorted(list_db_files(db.vfs, db.name).logs.items()):
        try:
            reader = LogReader(db.vfs.open_random(name))
        except NotFoundError:
            continue
        verified += 1
        try:
            for _payload in reader:
                pass
        except CorruptionError as exc:
            problems.append(f"WAL {name}: {exc}")
    return verified


def _audit_manifest(db: DB, problems: list[str]) -> bool:
    """Replay the manifest ``CURRENT`` names into a scratch version set, as
    a reopen would; returns whether there is one and it is sound."""
    try:
        return recover_version_set(db.vfs, db.name, VersionSet(db.options))
    except (CorruptionError, NotFoundError) as exc:
        problems.append(f"manifest: {exc}")
        return False


# -- verify ------------------------------------------------------------------


def verify_integrity(db: DB) -> IntegrityReport:
    """Audit every live table, the WAL and the manifest of ``db``; returns
    an :class:`IntegrityReport`."""
    report = IntegrityReport()
    _check_orphans(db, report)
    for _level, meta in db.versions.current.all_files():
        _check_table(db, meta, report)
    _audit_wal(db, report.problems)
    _audit_manifest(db, report.problems)
    return report


def _check_orphans(db: DB, report: IntegrityReport) -> None:
    """Flag engine files that recovery should have cleaned up.

    Non-engine-shaped names (a user's stray notes, say) are outside the
    engine's purview and are ignored, matching recovery's skip-with-warning
    policy.
    """
    obsolete = list_db_files(db.vfs, db.name).obsolete(
        db.versions.live_file_numbers(), db.versions.log_number,
        db._manifest.number)
    if obsolete.current_tmp is not None:
        report.problem("stranded CURRENT.tmp (interrupted install)")
    for kind, files in (("table", obsolete.tables), ("log", obsolete.logs),
                        ("manifest", obsolete.manifests)):
        for name in files.values():
            report.problem(f"orphaned {kind} file {name}")


def _check_table(db: DB, meta: FileMetaData, report: IntegrityReport) -> None:
    report.tables_checked += 1
    name = table_file_name(db.name, meta.file_number)
    if not db.vfs.exists(name):
        report.problem(f"live table {meta.file_number} missing from "
                       f"filesystem")
        return
    size = db.vfs.file_size(name)
    if size != meta.file_size:
        report.problem(f"table {meta.file_number}: manifest size "
                       f"{meta.file_size} != file size {size}")
    audit = TableAudit(db.vfs, db.name, db.options, meta.file_number,
                       report.problems)
    table = audit.table
    if table is None:
        return
    summary = EntrySummary(table.indexed_attributes,
                           db.options.attribute_extractor)
    previous_key: bytes | None = None
    for block_index, entries in audit.entries():
        for position, (ikey_bytes, value) in enumerate(entries):
            if previous_key is not None and \
                    internal_sort_key(ikey_bytes) <= \
                    internal_sort_key(previous_key):
                report.problem(
                    f"table {meta.file_number} block {block_index}: "
                    f"keys out of order")
            previous_key = ikey_bytes
            slots = summary.add(ikey_bytes, value)
            if slots:
                _check_embedded_soundness(
                    table, meta.file_number, block_index, position,
                    zip(summary.attributes, slots), report)
        for attribute, columns in table.secondary_columns.items():
            if len(columns[block_index]) != len(entries):
                report.problem(
                    f"table {meta.file_number} block {block_index}: column "
                    f"for {attribute!r} holds {len(columns[block_index])} "
                    f"entries, the block {len(entries)}")
    report.blocks_checked += audit.blocks_read
    report.entries_checked += summary.props.num_entries
    for text in summary.mismatches(meta):
        report.problem(f"table {meta.file_number}: {text}")


def _check_embedded_soundness(table, file_number: int, block_index: int,
                              position: int, slots,
                              report: IntegrityReport) -> None:
    """For each ``(attribute, encoded)`` of ``slots`` (the entry's encoding,
    recomputed from the entry), the column must hold it, and a present
    value must pass its block's bloom and zone map."""
    for attribute, encoded in slots:
        columns = table.secondary_columns.get(attribute)
        if columns is not None and position < len(columns[block_index]) \
                and columns[block_index][position] != encoded:
            report.problem(
                f"table {file_number} block {block_index}: column "
                f"for {attribute!r} disagrees with entry {position}")
        if not encoded:
            continue
        blooms = table.secondary_filters.get(attribute, [])
        if block_index < len(blooms) and blooms[block_index] and \
                not bloom_may_contain(blooms[block_index], encoded):
            report.problem(
                f"table {file_number} block {block_index}: bloom "
                f"filter for {attribute!r} rejects a present value")
        zonemaps = table.secondary_zonemaps.get(attribute, [])
        if block_index < len(zonemaps) and \
                not zonemaps[block_index].contains(encoded):
            report.problem(
                f"table {file_number} block {block_index}: zone map "
                f"for {attribute!r} excludes a present value")


# -- scrub -------------------------------------------------------------------


class Scrubber:
    """Budgeted, resumable CRC verification over one :class:`DB`.

    With ``paranoid_checks`` off (the default), a flipped bit in a data
    block sits undetected until a scan or compaction happens to decode it.
    The scrubber closes that window: it CRC-checks every live table, the
    WAL and the manifest, decoding no data block and calling no attribute
    extractor, and reports (and, under ``on_corruption="quarantine"``,
    contains) whatever it finds.

    Persist the instance (``DB.scrub()`` does) and call :meth:`run`
    repeatedly; each call continues where the previous budget ran out, so
    a maintenance loop can amortize a full pass over many small slices.
    """

    def __init__(self, db: DB) -> None:
        self.db = db
        self._cursor = 0       # first file_number not yet fully verified
        self.cycles_completed = 0

    def run(self, block_budget: int | None = None) -> ScrubReport:
        """Verify up to ``block_budget`` blocks (None = the whole cycle)."""
        db = self.db
        report = ScrubReport()
        with db._mutex:
            live = sorted(db.versions.live_file_numbers())
        for file_number in live:
            if file_number < self._cursor:
                continue
            if db.is_quarantined(file_number):
                continue  # already known bad; repair handles it
            # The budget is enforced at table boundaries, and only once a
            # table is verified: a table, once started, is always finished
            # (so every budget, 0 included, makes forward progress — a
            # per-block cursor would go stale when a compaction rewrote the
            # file mid-cycle).  It may overshoot by one table's blocks.
            if block_budget is not None and report.tables_scanned and \
                    report.blocks_verified >= block_budget:
                self._cursor = file_number
                return report
            self._scrub_table(file_number, report)
        # Tables done; the WAL tail and manifest are small — always finish
        # them within the run that completes the table walk.
        report.wal_files_verified = _audit_wal(db, report.problems)
        report.manifest_verified = _audit_manifest(db, report.problems)
        self._cursor = 0
        self.cycles_completed += 1
        report.complete = True
        return report

    def _scrub_table(self, file_number: int, report: ScrubReport) -> None:
        db = self.db
        before = len(report.problems)
        audit = TableAudit(db.vfs, db.name, db.options, file_number,
                           report.problems)
        if audit.table is not None:
            for _block in audit.blocks():
                pass
            report.tables_scanned += 1
            # Footer + index, charged as one block, then the data blocks.
            report.blocks_verified += 1 + audit.blocks_read
        found = len(report.problems) - before
        if found and db.options.on_corruption == "quarantine":
            db._contain(file_number, audit.error or CorruptionError(
                f"scrub found {found} problems in table {file_number}"))
            report.quarantined.append(file_number)
