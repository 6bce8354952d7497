"""Offline integrity verification — a `db_verify`-style maintenance tool.

:func:`verify_integrity` audits a database the way LevelDB's paranoid mode
and ``ldb verify`` do, without mutating anything:

* **manifest vs filesystem** — every live table file exists, no live file
  is missing, sizes match the manifest;
* **orphan audit** — no stale engine files (dead tables, old WALs or
  manifests, a stranded ``CURRENT.tmp``) survive past recovery's cleanup;
* **per-table physical checks** — footer magic, CRC of every block;
* **per-table logical checks** — entries in internal-key order, entry
  counts and key bounds matching the manifest metadata, sequence numbers
  within the recorded range;
* **cross-table invariants** — levels >= 1 sorted and disjoint, level-0
  ordered newest-first;
* **embedded-index soundness** — every secondary attribute value stored in
  a block is accepted by that block's bloom filter and zone map (a filter
  that could reject a present value would silently lose query results),
  and the block's attribute column holds, entry by entry, the encoding
  recomputed from the entry itself.

Findings are returned as a list of human-readable problem strings; an
empty list means the database is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lsm.block import Block
from repro.lsm.bloom import bloom_may_contain
from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import KIND_VALUE, internal_sort_key, unpack_internal_key
from repro.lsm.manifest import list_db_files, table_file_name
from repro.lsm.zonemap import column_entry


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


def verify_integrity(db: DB) -> IntegrityReport:
    """Audit every live table of ``db``; returns an :class:`IntegrityReport`."""
    report = IntegrityReport()
    version = db.versions.current
    _check_manifest_vs_files(db, report)
    _check_orphans(db, report)
    _check_level_invariants(db, report)
    for level, meta in version.all_files():
        _check_table(db, level, meta, report)
    return report


def _check_manifest_vs_files(db: DB, report: IntegrityReport) -> None:
    on_disk = list_db_files(db.vfs, db.name).tables
    for number in db.versions.live_file_numbers():
        if number not in on_disk:
            report.problem(f"live table {number} missing from filesystem")
    for _level, meta in db.versions.current.all_files():
        name = table_file_name(db.name, meta.file_number)
        if db.vfs.exists(name):
            actual = db.vfs.file_size(name)
            if actual != meta.file_size:
                report.problem(
                    f"table {meta.file_number}: manifest size "
                    f"{meta.file_size} != file size {actual}")


def _check_orphans(db: DB, report: IntegrityReport) -> None:
    """Flag engine files that recovery should have cleaned up.

    Non-engine-shaped names (a user's stray notes, say) are outside the
    engine's purview and are ignored, matching recovery's skip-with-warning
    policy.
    """
    files = list_db_files(db.vfs, db.name)
    live = db.versions.live_file_numbers()
    if files.current_tmp is not None:
        report.problem("stranded CURRENT.tmp (interrupted install)")
    for number, name in files.tables.items():
        if number not in live:
            report.problem(f"orphaned table file {name}")
    # A WAL at or above the manifest's log number is still needed: the one
    # being appended to, and that of a sealed (or, after a failed flush,
    # restored) MemTable whose table is not installed.
    for number, name in files.logs.items():
        if number < db.versions.log_number:
            report.problem(f"orphaned log file {name}")
    for number, name in files.manifests.items():
        if db._manifest is not None and number != db._manifest.number:
            report.problem(f"orphaned manifest file {name}")


def _check_level_invariants(db: DB, report: IntegrityReport) -> None:
    version = db.versions.current
    for level in range(1, db.options.max_levels):
        files = version.levels[level]
        for i in range(1, len(files)):
            if files[i - 1].largest_user_key >= files[i].smallest_user_key:
                report.problem(
                    f"level {level}: files {files[i - 1].file_number} and "
                    f"{files[i].file_number} overlap")
    level0 = version.levels[0]
    for i in range(1, len(level0)):
        if level0[i - 1].file_number < level0[i].file_number:
            report.problem("level 0 not ordered newest-file-first")


def _check_table(db: DB, level: int, meta, report: IntegrityReport) -> None:
    report.tables_checked += 1
    name = table_file_name(db.name, meta.file_number)
    if not db.vfs.exists(name):
        return  # already reported
    try:
        from repro.lsm.sstable import SSTable

        table = SSTable(db.options, db.vfs.open_random(name),
                        meta.file_number)
    except CorruptionError as exc:
        report.problem(f"table {meta.file_number}: unreadable ({exc})")
        return
    # Under on_corruption="quarantine" the open degrades corrupt meta
    # blocks instead of raising; the audit still reports them.
    for degraded in table.degraded_filters:
        report.problem(
            f"table {meta.file_number}: corrupt meta block {degraded!r}")

    entries = 0
    previous_key: bytes | None = None
    smallest = largest = None
    min_seq = max_seq = None
    extractor = db.options.attribute_extractor
    attributes = table.indexed_attributes
    # The audit never trusts the paranoid_checks setting (which gates the
    # engine's own reads) nor any cache: verified_blocks re-reads and
    # re-checksums every byte.
    for block_index, payload in table.verified_blocks():
        report.blocks_checked += 1
        try:
            if isinstance(payload, CorruptionError):
                raise payload
            block = Block(payload)
        except CorruptionError as exc:
            report.problem(
                f"table {meta.file_number} block {block_index}: {exc}")
            continue
        block_entries = 0
        for position, (ikey_bytes, value) in enumerate(block):
            block_entries += 1
            entries += 1
            if previous_key is not None and \
                    internal_sort_key(ikey_bytes) <= \
                    internal_sort_key(previous_key):
                report.problem(
                    f"table {meta.file_number} block {block_index}: "
                    f"keys out of order")
            previous_key = ikey_bytes
            if smallest is None:
                smallest = ikey_bytes
            largest = ikey_bytes
            ikey = unpack_internal_key(ikey_bytes)
            min_seq = ikey.seq if min_seq is None else min(min_seq, ikey.seq)
            max_seq = ikey.seq if max_seq is None else max(max_seq, ikey.seq)
            if attributes:
                _check_embedded_soundness(
                    table, meta, attributes, block_index, position,
                    extractor(value) if ikey.kind == KIND_VALUE else None,
                    report)
        for attribute, columns in table.secondary_columns.items():
            if len(columns[block_index]) != block_entries:
                report.problem(
                    f"table {meta.file_number} block {block_index}: column "
                    f"for {attribute!r} holds {len(columns[block_index])} "
                    f"entries, the block {block_entries}")
    report.entries_checked += entries

    if entries != meta.num_entries:
        report.problem(
            f"table {meta.file_number}: manifest records "
            f"{meta.num_entries} entries, found {entries}")
    if smallest is not None and smallest != meta.smallest:
        report.problem(
            f"table {meta.file_number}: smallest key mismatch")
    if largest is not None and largest != meta.largest:
        report.problem(f"table {meta.file_number}: largest key mismatch")
    if min_seq is not None and \
            not (meta.min_seq <= min_seq and max_seq <= meta.max_seq):
        report.problem(
            f"table {meta.file_number}: sequence range "
            f"[{min_seq}, {max_seq}] outside manifest "
            f"[{meta.min_seq}, {meta.max_seq}]")
    table.file.close()


def _check_embedded_soundness(table, meta, attributes, block_index, position,
                              attrs, report: IntegrityReport) -> None:
    """The column must hold the entry's encoding, recomputed here from
    ``attrs`` (the extracted dict; ``None`` for a non-VALUE entry), and a
    present value must pass its block's bloom + zone map."""
    for attribute in attributes:
        encoded = column_entry(attrs, attribute)
        columns = table.secondary_columns.get(attribute)
        if columns is not None and position < len(columns[block_index]) \
                and columns[block_index][position] != encoded:
            report.problem(
                f"table {meta.file_number} block {block_index}: column "
                f"for {attribute!r} disagrees with entry {position}")
        if not encoded:
            continue
        blooms = table.secondary_filters.get(attribute, [])
        if block_index < len(blooms) and blooms[block_index] and \
                not bloom_may_contain(blooms[block_index], encoded):
            report.problem(
                f"table {meta.file_number} block {block_index}: bloom "
                f"filter for {attribute!r} rejects a present value")
        zonemaps = table.secondary_zonemaps.get(attribute, [])
        if block_index < len(zonemaps) and \
                not zonemaps[block_index].contains(encoded):
            report.problem(
                f"table {meta.file_number} block {block_index}: zone map "
                f"for {attribute!r} excludes a present value")
        file_zone = meta.secondary_zonemaps.get(attribute)
        if file_zone is not None and not file_zone.contains(encoded):
            report.problem(
                f"table {meta.file_number}: file-level zone map for "
                f"{attribute!r} excludes a present value")
