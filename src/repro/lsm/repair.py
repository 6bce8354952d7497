"""``RepairDB``: rebuild a consistent database from whatever survives.

LevelDB ships a repair tool for the worst case — a manifest that no
longer describes the files on disk, tables with rotten blocks, a WAL
with a mangled middle.  :func:`repair_db` reproduces that salvage
strategy:

* The manifest and ``CURRENT`` are **ignored as authority**: the
  directory listing is the ground truth, exactly as in LevelDB's
  ``RepairDB`` ("we abandon the contents of the descriptor").
* Every table file is audited block by block.  Clean tables are kept
  as-is (their metadata recomputed from the actual bytes); tables with
  some bad blocks, or a rotten meta block (filters and columns are
  derived data), are *salvaged* — the cleanly decoding entries are
  rewritten into a fresh table, dropping **only the provably-bad
  blocks**; tables whose footer or index is unreadable are dropped
  whole.
* The Embedded index's metadata survives: options that name no indexed
  attributes (the CLI passes none) take them from the tables themselves
  (their ``filter.secondary.<attr>`` meta blocks), so file-level zone maps
  are recomputed and salvaged tables get their blooms and columns back.
* Every WAL file is salvaged with a fragment-skipping reader: a bad
  fragment loses at most the rest of its 32 KiB block, and every intact
  record is replayed into a new level-0 table (LevelDB likewise
  "convert[s] logs to tables").
* A fresh manifest is written with **everything at level 0** and a
  ``log_number`` above every existing WAL, so the next open replays
  nothing twice (a WAL whose contents were salvaged into a table must
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

from repro.lsm.block import Block
from repro.lsm.compaction import finish_table
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import KIND_VALUE, unpack_internal_key
from repro.lsm.manifest import (
    ManifestWriter,
    current_tmp_file_name,
    list_db_files,
    table_file_name,
)
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable, TableBuilder
from repro.lsm.version import FileMetaData, VersionEdit
from repro.lsm.vfs import VFS, Category
from repro.lsm.wal import BLOCK_SIZE, HEADER_SIZE, _HEADER
from repro.lsm.zonemap import ZoneMapBuilder, column_entry
import zlib


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


def _salvage_wal_payloads(data: bytes, report: RepairReport, name: str):
    """Yield intact WAL records, skipping damaged fragments.

    Unlike :class:`~repro.lsm.wal.LogReader` (which treats mid-file
    damage as fatal), a bad fragment here abandons the rest of its
    32 KiB block and resumes at the next one — LevelDB's
    ``ReportCorruption``-and-continue salvage mode.  A record whose
    FIRST/MIDDLE/LAST chain is broken is dropped in its entirety.
    """
    offset = 0
    end = len(data)
    pending: bytearray | None = None

    def skip_block() -> int:
        nonlocal pending
        pending = None
        return offset + (BLOCK_SIZE - offset % BLOCK_SIZE)

    while offset < end:
        block_left = BLOCK_SIZE - (offset % BLOCK_SIZE)
        if block_left < HEADER_SIZE:
            offset += block_left
            continue
        if offset + HEADER_SIZE > end:
            break  # torn header at tail
        crc, length, record_type = _HEADER.unpack_from(data, offset)
        if record_type == 0 and length == 0 and crc == 0:
            offset += block_left
            continue
        frag_start = offset + HEADER_SIZE
        frag_end = frag_start + length
        if HEADER_SIZE + length > block_left or frag_end > end \
                or record_type > 4:
            report.problems.append(
                f"WAL {name}: bad fragment at offset {offset}, skipping "
                f"to next block")
            offset = skip_block()
            continue
        fragment = data[frag_start:frag_end]
        actual = zlib.crc32(bytes([record_type]) + fragment) & 0xFFFFFFFF
        if actual != crc:
            report.problems.append(
                f"WAL {name}: checksum mismatch at offset {offset}, "
                f"skipping to next block")
            offset = skip_block()
            continue
        offset = frag_end
        if record_type == 1:  # FULL
            pending = None
            yield bytes(fragment)
        elif record_type == 2:  # FIRST
            pending = bytearray(fragment)
        elif record_type == 3:  # MIDDLE
            if pending is not None:
                pending += fragment
        elif record_type == 4:  # LAST
            if pending is not None:
                pending += fragment
                yield bytes(pending)
            pending = None


class _Repairer:
    def __init__(self, vfs: VFS, name: str, options: Options,
                 dry_run: bool) -> None:
        self.vfs = vfs
        self.name = name
        self.options = options
        self.report = RepairReport(dry_run=dry_run)
        self.dry_run = dry_run
        self.tables: list[FileMetaData] = []
        self.max_seq = 0
        # Inputs, classified from the directory listing.
        self.table_numbers: list[int] = []
        self.log_numbers: list[int] = []
        self.manifest_names: list[str] = []
        self._next_number = 0

    # -- plumbing -----------------------------------------------------------

    def new_file_number(self) -> int:
        self._next_number += 1
        return self._next_number

    def _scan_dir(self) -> None:
        files = list_db_files(self.vfs, self.name)
        self.table_numbers = sorted(files.tables)
        self.log_numbers = sorted(files.logs)
        self.manifest_names = list(files.manifests.values())
        self._next_number = max(
            [*files.tables, *files.logs, *files.manifests], default=0)

    # -- tables -------------------------------------------------------------

    def _open_table(self, file_number: int) -> SSTable:
        """Open for the audit: a rotten meta block is dropped (and the table
        then rewritten), whatever the options' corruption policy says."""
        handle = self.vfs.open_random(table_file_name(self.name, file_number))
        return SSTable(replace(self.options, on_corruption="quarantine"),
                       handle, file_number)

    def _infer_indexed_attributes(self) -> None:
        """Options naming no indexed attributes take those of the tables."""
        attributes: set[str] = set()
        for file_number in self.table_numbers:
            try:
                table = self._open_table(file_number)
            except (CorruptionError, OSError):
                continue  # the audit reports it
            attributes.update(table.indexed_attributes)
            table.file.close()
        if attributes:
            self.options = replace(
                self.options, indexed_attributes=tuple(sorted(attributes)))

    def _audit_table(self, file_number: int) -> None:
        report = self.report
        name = table_file_name(self.name, file_number)
        try:
            table = self._open_table(file_number)
        except (CorruptionError, OSError) as exc:
            report.tables_dropped += 1
            report.problems.append(
                f"table {file_number}: unreadable ({exc})")
            report.action(f"drop table {file_number} (unreadable)")
            if not self.dry_run:
                self.vfs.delete_if_exists(name)
            return
        good: list[tuple[bytes, bytes]] = []
        bad_blocks = 0
        for block_index, payload in table.verified_blocks():
            try:
                if isinstance(payload, CorruptionError):
                    raise payload
                entries = list(Block(payload))
            except CorruptionError as exc:
                bad_blocks += 1
                report.problems.append(
                    f"table {file_number} block {block_index}: {exc}")
                continue
            good.extend(entries)
        degraded = bool(table.degraded_filters)
        table.file.close()
        report.blocks_dropped += bad_blocks
        if bad_blocks == 0 and not degraded:
            meta = self._recompute_meta(file_number, good,
                                        self.vfs.file_size(name))
            self.tables.append(meta)
            report.tables_kept += 1
            report.action(f"keep table {file_number} "
                          f"({meta.num_entries} entries)")
            return
        # Partly bad (or its advisory meta blocks are rotten): rewrite the
        # surviving entries into a fresh, fully consistent table.
        if not good:
            report.tables_dropped += 1
            report.action(
                f"drop table {file_number} (no salvageable entries)")
            if not self.dry_run:
                self.vfs.delete_if_exists(name)
            return
        report.tables_salvaged += 1
        report.entries_salvaged += len(good)
        if self.dry_run:
            report.action(
                f"would salvage {len(good)} entries of table "
                f"{file_number} (dropping {bad_blocks} bad blocks)")
            return
        meta = self._build_table(good)
        if meta is not None:
            self.tables.append(meta)
            report.action(
                f"salvaged table {file_number} -> {meta.file_number} "
                f"({len(good)} entries, {bad_blocks} blocks dropped)")
        self.vfs.delete_if_exists(name)

    def _recompute_meta(self, file_number: int,
                        entries: list[tuple[bytes, bytes]],
                        file_size: int) -> FileMetaData:
        """Manifest metadata from the actual bytes, trusting nothing stored."""
        options = self.options
        zonemap_builders = {attr: ZoneMapBuilder()
                            for attr in options.indexed_attributes}
        min_seq = max_seq = None
        for ikey_bytes, value in entries:
            ikey = unpack_internal_key(ikey_bytes)
            min_seq = ikey.seq if min_seq is None else min(min_seq, ikey.seq)
            max_seq = ikey.seq if max_seq is None else max(max_seq, ikey.seq)
            if options.indexed_attributes and ikey.kind == KIND_VALUE:
                attrs = options.attribute_extractor(value)
                for attr, builder in zonemap_builders.items():
                    encoded = column_entry(attrs, attr)
                    if encoded:
                        builder.add(encoded)
        self.max_seq = max(self.max_seq, max_seq or 0)
        return FileMetaData(
            file_number=file_number,
            file_size=file_size,
            smallest=entries[0][0],
            largest=entries[-1][0],
            min_seq=min_seq or 0,
            max_seq=max_seq or 0,
            num_entries=len(entries),
            secondary_zonemaps={attr: builder.finish()
                                for attr, builder in
                                zonemap_builders.items()},
        )

    def _build_table(self, entries: list[tuple[bytes, bytes]]
                     ) -> FileMetaData | None:
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
        from repro.lsm.db import WriteBatch
        from repro.lsm.manifest import log_file_name

        for number in self.log_numbers:
            name = log_file_name(self.name, number)
            try:
                handle = self.vfs.open_random(name)
                data = handle.read_at(0, handle.size, Category.WAL)
                handle.close()
            except OSError as exc:
                report.problems.append(f"WAL {name}: unreadable ({exc})")
                continue
            for payload in _salvage_wal_payloads(data, report, name):
                try:
                    batch, start_seq = WriteBatch.decode(payload)
                except Exception:  # noqa: BLE001 - salvage must not die
                    report.problems.append(
                        f"WAL {name}: undecodable record, dropped")
                    continue
                for offset, (kind, key, value) in enumerate(batch.ops):
                    memtable.add(start_seq + offset, kind, key, value)
                report.wal_records_salvaged += 1
                self.max_seq = max(self.max_seq,
                                   start_seq + len(batch.ops) - 1)
        if memtable.is_empty():
            return
        if self.dry_run:
            report.action(
                f"would write {len(memtable)} WAL entries to a new "
                f"level-0 table")
            return
        from repro.lsm.keys import pack_internal_key

        entries = [(pack_internal_key(e.user_key, e.seq, e.kind), e.value)
                   for e in memtable]
        meta = self._build_table(entries)
        if meta is not None:
            self.tables.append(meta)
            report.action(
                f"wrote {meta.num_entries} salvaged WAL entries to table "
                f"{meta.file_number}")

    # -- manifest -----------------------------------------------------------

    def _install_manifest(self) -> None:
        report = self.report
        # A log_number above every existing WAL: their surviving records
        # now live in tables, so no log may ever be replayed again.
        new_log_number = self.new_file_number()
        manifest_number = self.new_file_number()
        if self.dry_run:
            report.action(
                f"would write manifest MANIFEST-{manifest_number:06d} with "
                f"{len(self.tables)} tables at level 0, "
                f"log_number={new_log_number}")
            return
        edit = VersionEdit(
            log_number=new_log_number,
            next_file_number=self._next_number + 1,
            last_sequence=self.max_seq)
        for meta in sorted(self.tables, key=lambda m: m.file_number):
            edit.add_file(0, meta)
        manifest = ManifestWriter(self.vfs, self.name, manifest_number)
        manifest.log_edit(edit)
        manifest.install_as_current()
        manifest.close()
        for name in self.manifest_names:
            self.vfs.delete_if_exists(name)
        self.vfs.delete_if_exists(current_tmp_file_name(self.name))
        # The WALs' content (whatever was salvageable) now lives in level-0
        # tables; leaving the files behind would only confuse the next
        # repair.  Recovery would ignore them (log_number is higher) and
        # delete them anyway.
        from repro.lsm.manifest import log_file_name

        for number in self.log_numbers:
            self.vfs.delete_if_exists(log_file_name(self.name, number))
        report.action(
            f"installed MANIFEST-{manifest_number:06d}: "
            f"{len(self.tables)} tables at level 0, "
            f"last_sequence={self.max_seq}")

    # -- driver -------------------------------------------------------------

    def run(self) -> RepairReport:
        self._scan_dir()
        if not self.options.indexed_attributes:
            self._infer_indexed_attributes()
        for file_number in self.table_numbers:
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
