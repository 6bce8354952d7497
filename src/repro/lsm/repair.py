"""``RepairDB``: rebuild a consistent database from whatever survives.

LevelDB ships a repair tool for the worst case — a manifest that no
longer describes the files on disk, tables with rotten blocks, a WAL
with a mangled middle.  :func:`repair_db` reproduces that salvage
strategy:

* The manifest and ``CURRENT`` are **ignored as authority**: the
  directory listing is the ground truth, exactly as in LevelDB's
  ``RepairDB`` ("we abandon the contents of the descriptor").
* Every table file is audited block by block, by the walk verify and
  the scrubber share (:class:`~repro.lsm.checker.TableAudit`).  Clean
  tables are kept as-is (their manifest record recomputed from the actual
  entries, :class:`~repro.lsm.checker.EntrySummary`); tables with
  some bad blocks, or a rotten meta block (filters and columns are
  derived data), are *salvaged* — the cleanly decoding entries are
  rewritten into a fresh table, dropping **only the provably-bad
  blocks**; tables whose footer or index is unreadable are dropped
  whole.
* The Embedded index's metadata survives: options that name no indexed
  attributes (the CLI passes none) take them from the tables themselves
  (their ``filter.secondary.<attr>`` meta blocks), so file-level zone maps
  are recomputed and salvaged tables get their blooms and columns back.
* Every WAL file is salvaged with the log reader's report-and-continue
  mode: a bad fragment loses at most the rest of its 32 KiB block, a
  broken fragment chain only its own record, and every intact
  record is replayed into a new level-0 table (LevelDB likewise
  "convert[s] logs to tables").  A WAL shared with WAL-less tables (an
  indexed store's primary, docs/FORMAT.md §3.1) also holds their records,
  which repair cannot put into another directory's tables: a WAL that
  reads clean is kept for them (the next open replays it, skipping what
  the salvage table holds), and one that does not is reported with the
  records it drops.
* A fresh manifest is written with **everything at level 0** and a
  ``log_number`` above every existing WAL but the kept ones, so the next
  open replays nothing twice (a WAL whose contents were salvaged into a table must
  never be replayed on top of it — merge operands would fold twice).
  Level-0 placement is always safe: per-entry sequence numbers order
  overlapping tables, and ordinary compaction will re-sort the tree.
  Repair deliberately does **not** compact — it does the minimum to
  make the database openable and consistent.

``dry_run=True`` performs the full audit and reports what *would*
happen without writing or deleting a single byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.lsm.batch import (
    WriteBatch,
    decode_table_directory,
    is_table_directory,
)
from repro.lsm.checker import EntrySummary, TableAudit
from repro.lsm.compaction import finish_table
from repro.lsm.manifest import ManifestWriter, list_db_files, table_file_name
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder
from repro.lsm.version import FileMetaData, VersionEdit
from repro.lsm.vfs import VFS, Category
from repro.lsm.wal import LogReader


@dataclass
class RepairReport:
    """What :func:`repair_db` found and (unless ``dry_run``) did."""

    dry_run: bool = False
    tables_kept: int = 0
    tables_salvaged: int = 0
    tables_dropped: int = 0
    blocks_dropped: int = 0
    entries_salvaged: int = 0
    wal_records_salvaged: int = 0
    last_sequence: int = 0
    problems: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    def action(self, text: str) -> None:
        self.actions.append(text)


class _Repairer:
    def __init__(self, vfs: VFS, name: str, options: Options,
                 dry_run: bool) -> None:
        self.vfs = vfs
        self.name = name
        self.options = options
        self.report = RepairReport(dry_run=dry_run)
        self.tables: list[FileMetaData] = []
        self.max_seq = 0
        #: WALs kept for the records of other tables they hold.
        self.kept_logs: dict[int, str] = {}
        # Inputs, classified from the directory listing.
        self.files = list_db_files(vfs, name)
        self._next_number = max([*self.files.tables, *self.files.logs,
                                 *self.files.manifests], default=0)

    # -- plumbing -----------------------------------------------------------

    def new_file_number(self) -> int:
        self._next_number += 1
        return self._next_number

    # -- tables -------------------------------------------------------------

    def _infer_indexed_attributes(self) -> None:
        """Options naming no indexed attributes take those of the tables,
        opened as the audit opens them (a rotten meta block hides only its
        own attribute; what fails to open is reported by the audit)."""
        attributes: set[str] = set()
        for file_number in sorted(self.files.tables):
            table = TableAudit(self.vfs, self.name, self.options,
                               file_number, []).table
            if table is not None:
                attributes.update(table.indexed_attributes)
                table.file.close()
        if attributes:
            self.options = replace(
                self.options, indexed_attributes=tuple(sorted(attributes)))

    def _audit_table(self, file_number: int) -> None:
        report = self.report
        name = table_file_name(self.name, file_number)
        audit = TableAudit(self.vfs, self.name, self.options, file_number,
                           report.problems)
        table = audit.table
        good = [] if table is None else [
            entry for _block_index, entries in audit.entries()
            for entry in entries]
        bad_blocks = audit.bad_blocks
        report.blocks_dropped += bad_blocks
        if table is not None and not bad_blocks and \
                not table.degraded_filters:
            summary = EntrySummary(self.options.indexed_attributes,
                                   self.options.attribute_extractor)
            for ikey_bytes, value in good:
                summary.add(ikey_bytes, value)
            props = summary.finish()
            props.file_size = self.vfs.file_size(name)
            meta = props.file_meta(file_number)
            self.max_seq = max(self.max_seq, meta.max_seq)
            self.tables.append(meta)
            report.tables_kept += 1
            report.action(f"keep table {file_number} "
                          f"({meta.num_entries} entries)")
            return
        # Partly bad (or its advisory meta blocks are rotten): rewrite the
        # surviving entries into a fresh, fully consistent table.
        if not good:
            why = "unreadable" if table is None else "no salvageable entries"
            report.tables_dropped += 1
            report.action(f"drop table {file_number} ({why})")
            if not self.report.dry_run:
                self.vfs.delete_if_exists(name)
            return
        report.tables_salvaged += 1
        report.entries_salvaged += len(good)
        if self.report.dry_run:
            report.action(
                f"would salvage {len(good)} entries of table "
                f"{file_number} (dropping {bad_blocks} bad blocks)")
            return
        meta = self._build_table(good)
        self.tables.append(meta)
        report.action(
            f"salvaged table {file_number} -> {meta.file_number} "
            f"({len(good)} entries, {bad_blocks} blocks dropped)")
        self.vfs.delete_if_exists(name)

    def _build_table(self, entries: list[tuple[bytes, bytes]]
                     ) -> FileMetaData:
        """Write ``entries`` (already in internal-key order) as a new table."""
        from repro.lsm.compression import compressor_for

        file_number = self.new_file_number()
        name = table_file_name(self.name, file_number)
        out = self.vfs.create(name)
        builder = TableBuilder(self.options, out,
                               compressor_for(self.options.compression),
                               Category.OTHER)
        for ikey_bytes, value in entries:
            builder.add(ikey_bytes, value)
        meta = finish_table(builder, out, file_number)
        self.max_seq = max(self.max_seq, meta.max_seq)
        return meta

    # -- WAL ----------------------------------------------------------------

    def _salvage_logs(self) -> None:
        report = self.report
        memtable = MemTable()
        for number, name in sorted(self.files.logs.items()):
            def problem(text: str) -> None:
                report.problems.append(f"WAL {name}: {text}")

            problems_before = len(report.problems)
            try:
                reader = LogReader(self.vfs.open_random(name), problem)
            except OSError as exc:
                problem(f"unreadable ({exc})")
                continue
            labels: list[str] = []
            others: dict[str, int] = {}
            for payload in reader:
                try:
                    if is_table_directory(payload):
                        labels = decode_table_directory(payload)
                        continue
                    batch, start_seq = WriteBatch.decode(payload)
                except Exception:  # noqa: BLE001 - salvage must not die
                    report.problems.append(
                        f"WAL {name}: undecodable record, dropped")
                    continue
                seqs = WriteBatch.sequences(start_seq,
                                            (op[3] for op in batch.ops))
                for (kind, key, value, log_id), seq in zip(batch.ops, seqs):
                    if log_id is None:
                        memtable.add(seq, kind, key, value)
                    else:
                        label = labels[log_id - 1] \
                            if 0 < log_id <= len(labels) else f"#{log_id}"
                        others[label] = others.get(label, 0) + 1
                report.wal_records_salvaged += 1
                self.max_seq = max(self.max_seq,
                                   start_seq + batch.span() - 1)
            if others:
                counts = ", ".join(f"{count} of table {label!r}"
                                   for label, count in sorted(others.items()))
                if len(report.problems) == problems_before:
                    self.kept_logs[number] = name
                    report.action(f"keep WAL {name} for the records of "
                                  f"other tables it holds ({counts})")
                else:
                    problem(f"dropped the records of other tables it holds "
                            f"({counts}); rebuild their indexes")
        if memtable.is_empty():
            return
        if self.report.dry_run:
            report.action(
                f"would write {len(memtable)} WAL entries to a new "
                f"level-0 table")
            return
        from repro.lsm.keys import pack_internal_key

        entries = [(pack_internal_key(e.user_key, e.seq, e.kind), e.value)
                   for e in memtable]
        meta = self._build_table(entries)
        self.tables.append(meta)
        report.action(
            f"wrote {meta.num_entries} salvaged WAL entries to table "
            f"{meta.file_number}")

    # -- manifest -----------------------------------------------------------

    def _install_manifest(self) -> None:
        report = self.report
        # A log_number above every existing WAL: their surviving records
        # now live in tables, so no log may ever be replayed again — but
        # for a kept one (its records of this table are skipped by
        # sequence on replay).
        new_log_number = self.new_file_number()
        manifest_number = self.new_file_number()
        log_number = min([new_log_number, *self.kept_logs])
        if self.report.dry_run:
            report.action(
                f"would write manifest MANIFEST-{manifest_number:06d} with "
                f"{len(self.tables)} tables at level 0, "
                f"log_number={log_number}")
            return
        edit = VersionEdit(
            log_number=log_number,
            next_file_number=self._next_number + 1,
            last_sequence=self.max_seq)
        for meta in sorted(self.tables, key=lambda m: m.file_number):
            edit.add_file(0, meta)
        manifest = ManifestWriter(self.vfs, self.name, manifest_number)
        manifest.log_edit(edit)
        manifest.install_as_current()
        manifest.close()
        # The WALs' content (whatever was salvageable) now lives in level-0
        # tables; leaving the files behind would only confuse the next
        # repair.  Recovery would ignore them (log_number is higher) and
        # delete them anyway, as it would the old manifests.
        obsolete = list_db_files(self.vfs, self.name).obsolete(
            {meta.file_number for meta in self.tables}, new_log_number,
            manifest_number)
        for number in self.kept_logs:
            del obsolete.logs[number]
        for name in obsolete.names():
            self.vfs.delete_if_exists(name)
        report.action(
            f"installed MANIFEST-{manifest_number:06d}: "
            f"{len(self.tables)} tables at level 0, "
            f"last_sequence={self.max_seq}")

    # -- driver -------------------------------------------------------------

    def run(self) -> RepairReport:
        if not self.options.indexed_attributes:
            self._infer_indexed_attributes()
        for file_number in sorted(self.files.tables):
            self._audit_table(file_number)
        self._salvage_logs()
        self._install_manifest()
        self.report.last_sequence = self.max_seq
        return self.report


def repair_db(vfs: VFS, name: str, options: Options | None = None,
              dry_run: bool = False) -> RepairReport:
    """Salvage-rebuild the database ``name`` on ``vfs``; see module docs.

    The database must be closed.  Returns a :class:`RepairReport`;
    with ``dry_run=True`` nothing on disk is created, modified or
    deleted.
    """
    return _Repairer(vfs, name, options or Options(), dry_run).run()
