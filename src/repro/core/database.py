"""``SecondaryIndexedDB`` — the LevelDB++ facade.

One primary data table plus any number of secondary indexes, kept
consistent through the write path and queried through the paper's five
operations (Table 1)::

    db = SecondaryIndexedDB.open_memory(indexes={
        "user_id": IndexKind.LAZY,
        "creation_time": IndexKind.EMBEDDED,
    })
    db.put("t1", {"user_id": "u1", "creation_time": 17, "text": "..."})
    db.lookup("user_id", "u1", k=10)
    db.range_lookup("creation_time", 10, 20, k=10)

Each stand-alone index lives in its *own* LSM table ("column family"), by
default on its own metered VFS so that the paper's per-table I/O series
(data-table GETs vs index compaction, Figures 9 and 13-15) fall directly
out of the meters.  The index tables have no WAL of their own: they log
through the primary table's WAL, in its sequence space
(:meth:`repro.lsm.db.DB.open_table`).

Consistency model (Section 1's "managing the consistency between secondary
indexes and data tables"): a PUT or DEL is one
:class:`~repro.lsm.db.WriteBatch` holding the primary write and every
stand-alone index's entries, committed with one WAL append and one sync.
A crash therefore keeps all of it or none of it: recovery never holds a
record that GET returns and LOOKUP misses (AsterixDB logs a dataset's
primary and secondary index operations in one log for the same reason).
The index entries carry the primary write's sequence number, stamped at
commit.  The data table is authoritative: stale index entries left behind
by updates are filtered at query time by validating every candidate
against it — the same design as the paper's LevelDB++ — and
:meth:`SecondaryIndexedDB.verify_integrity` checks that no live record is
missing from an index.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.base import (
    IndexKind,
    LookupResult,
    Owns,
    SecondaryIndex,
    StandAloneIndex,
)
from repro.core.composite import CompositeIndex
from repro.core.eager import EagerIndex
from repro.core.embedded import EmbeddedIndex
from repro.core.lazy import LazyIndex
from repro.core.noindex import NoIndex
from repro.core.posting import posting_merge_operator
from repro.core.records import (
    Document,
    attribute_of,
    decode_document,
    encode_document,
    key_to_bytes,
    key_to_str,
)
from repro.core.topk import TopKBySeq
from repro.core.validity import ValidityChecker
from repro.lsm.batch import table_label
from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import CorruptionError, InvalidArgumentError
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS, VFS
from repro.lsm.zonemap import encode_attribute


def records_by_seq(get_with_seq: Callable[[bytes], tuple[bytes, int] | None],
                   seq_keys: Iterable[tuple[int, bytes]]
                   ) -> Iterator[tuple[bytes, bytes, int]]:
    """``(key, value, seq)`` of the live records named by ``(seq, key)``
    pairs, oldest first: what an index rebuild replays.  Only the pairs
    are held at once; ``get_with_seq`` reads each record in its turn."""
    for _seq, key in sorted(seq_keys):
        found = get_with_seq(key)
        if found is not None:
            yield key, found[0], found[1]


class SecondaryIndexedDB:
    """A NoSQL store with pluggable secondary indexes (the paper's system)."""

    def __init__(self, primary: DB, indexes: dict[str, SecondaryIndex],
                 checker: ValidityChecker,
                 index_specs: dict[str, tuple] | None = None) -> None:
        """Assembled by :meth:`open` / :meth:`open_memory`."""
        self.primary = primary
        self.indexes = indexes
        self.checker = checker
        # attribute -> (table_vfs, table_name, index_options) for every
        # stand-alone index: everything needed to drop and re-create its
        # table when corruption quarantines it (see rebuild_index).
        self._index_specs: dict[str, tuple] = index_specs or {}
        self._needs_old_doc_on_delete = any(
            isinstance(index, StandAloneIndex) for index in indexes.values())
        self._closed = False

    # -- construction ------------------------------------------------------------

    @classmethod
    def open(cls, vfs: VFS, name: str = "data",
             indexes: Mapping[str, IndexKind] | None = None,
             options: Options | None = None,
             index_vfs_factory=None) -> "SecondaryIndexedDB":
        """Open the primary table and one index table per stand-alone index.

        ``indexes`` maps attribute name to technique.  ``index_vfs_factory``
        (``lambda table_name: VFS``) lets callers give each index table its
        own metered filesystem; by default index tables share ``vfs``.
        """
        indexes = dict(indexes or {})
        base_options = options or Options()
        embedded_attrs = tuple(sorted(
            attr for attr, kind in indexes.items()
            if kind == IndexKind.EMBEDDED))
        primary_options = replace(base_options,
                                  indexed_attributes=embedded_attrs,
                                  merge_operator=None)
        for kind in indexes.values():
            if not isinstance(kind, IndexKind):
                raise InvalidArgumentError(f"unknown index kind: {kind!r}")
        # The index tables open first and WAL-less: the primary's recovery
        # replays their logged records into them.
        specs: dict[str, tuple] = {}
        tables: dict[str, DB] = {}
        try:
            for attribute, kind in indexes.items():
                if kind in (IndexKind.EMBEDDED, IndexKind.NOINDEX):
                    continue
                table_name = f"{name}/index-{kind.value}-{attribute}"
                table_vfs = vfs if index_vfs_factory is None \
                    else index_vfs_factory(table_name)
                index_options = replace(
                    base_options, indexed_attributes=(),
                    merge_operator=(posting_merge_operator
                                    if kind == IndexKind.LAZY else None))
                specs[attribute] = (table_vfs, table_name, index_options)
                tables[attribute] = DB.open_table(table_vfs, table_name,
                                                  index_options)
            primary = DB.open(vfs, f"{name}/primary", primary_options,
                              tables=tables.values())
        except BaseException:
            for table in tables.values():
                table.close()
            raise
        checker = ValidityChecker(primary)
        built = {attribute: cls._build_index(attribute, kind, primary,
                                             checker, tables.get(attribute))
                 for attribute, kind in indexes.items()}
        return cls(primary, built, checker, index_specs=specs)

    @classmethod
    def open_memory(cls, indexes: Mapping[str, IndexKind] | None = None,
                    options: Options | None = None,
                    name: str = "data",
                    shared_vfs: bool = False) -> "SecondaryIndexedDB":
        """In-memory database; each table gets its own meters by default."""
        vfs = MemoryVFS()
        factory = None if shared_vfs else (lambda _table_name: MemoryVFS())
        return cls.open(vfs, name, indexes, options,
                        index_vfs_factory=factory)

    @staticmethod
    def _build_index(attribute: str, kind: IndexKind, primary: DB,
                     checker: ValidityChecker, index_db: DB | None
                     ) -> SecondaryIndex:
        if kind == IndexKind.EMBEDDED:
            return EmbeddedIndex(attribute, primary, checker)
        if kind == IndexKind.NOINDEX:
            return NoIndex(attribute, primary)
        index_class = {IndexKind.EAGER: EagerIndex, IndexKind.LAZY: LazyIndex,
                       IndexKind.COMPOSITE: CompositeIndex}[kind]
        return index_class(attribute, index_db, checker)

    # -- base operations (Table 1) ----------------------------------------------

    def put(self, key: str | bytes, document: Document) -> int:
        """PUT(k, v): write (or overwrite) and maintain every index."""
        return self.commit("put", key_to_bytes(key), document)[0]

    def get(self, key: str | bytes) -> Document | None:
        """GET(k): the live document, or ``None``."""
        self._check_open()
        value = self.primary.get(key_to_bytes(key))
        if value is None:
            return None
        return decode_document(value)

    def delete(self, key: str | bytes) -> int:
        """DEL(k): remove the record and maintain every index.

        Stand-alone indexes need the dying record's attribute values to
        target the right posting list / composite key, so their presence
        costs one data-table GET here (the paper's Table 5 read column).
        Returns the tombstone's sequence number.
        """
        return self.commit("delete", key_to_bytes(key), None)[0]

    def commit(self, op: str, key: bytes, document: Document | None,
               seq: int = 0) -> tuple[int, WriteBatch]:
        """PUT (``op="put"``) or DEL of ``key`` as one :class:`WriteBatch`:
        the primary write first, then every index's entries.  Returns the
        primary write's sequence, which the commit stamped into the
        entries, and the committed batch, which :meth:`apply_committed`
        applies to another copy of this store.  A nonzero ``seq`` fixes
        the sequence instead of drawing it (``DB.write``)."""
        self._check_open()
        if op == "put":
            batch = WriteBatch().put(key, encode_document(document))
            for index in self.indexes.values():
                index.on_put(batch, key, document)
        elif op == "delete":
            old_document: Document | None = None
            if self._needs_old_doc_on_delete:
                old_value = self.primary.get(key)
                if old_value is not None:
                    old_document = decode_document(old_value)
            batch = WriteBatch().delete(key)
            for index in self.indexes.values():
                index.on_delete(batch, key, old_document)
        else:
            raise InvalidArgumentError(f"unknown write op {op!r}")
        # The write's own sequence: reading ``versions.last_sequence``
        # afterwards would race a concurrent writer.
        seq = self.primary.write(batch, seq) - batch.span() + 1
        return seq, batch

    def apply_committed(self, seq: int, batch: WriteBatch) -> None:
        """Apply the batch another copy of this store committed at ``seq``
        (:meth:`commit`), at that sequence: its tables map onto this
        store's by name, and no index maintenance runs, so nothing is
        read (the Embedded index's MemTable postings come with the
        primary write, as in recovery)."""
        self._check_open()
        by_label = {table_label(table.name): table
                    for _label, table in self.tables()}
        self.primary.write(batch.retarget(
            {table: by_label[table_label(table.name)]
             for table in batch.tables}), seq)

    # -- secondary queries (Table 1) -----------------------------------------------

    def lookup(self, attribute: str, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        """LOOKUP(A, a, K): K most recent live records with val(A) = a."""
        self._check_open()
        return self._index_for(attribute).lookup(value, k, early_termination)

    def lookup_into(self, attribute: str, value: Any,
                    heap: TopKBySeq[LookupResult],
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """LOOKUP(A, a, ``heap.k``) offered to a heap that may already hold
        other stores' results; see :meth:`SecondaryIndex.lookup_into`."""
        self._check_open()
        self._index_for(attribute).lookup_into(heap, value,
                                               early_termination, owns)

    def range_lookup(self, attribute: str, low: Any, high: Any,
                     k: int | None = None,
                     early_termination: bool = True,
                     owns: Owns | None = None) -> list[LookupResult]:
        """RANGELOOKUP(A, a, b, K): K most recent with a <= val(A) <= b,
        the records ``owns`` rejects excepted."""
        self._check_open()
        return self._index_for(attribute).range_lookup(
            low, high, k, early_termination, owns)

    def multi_lookup(self, conditions: Mapping[str, Any],
                     k: int | None = None) -> list[LookupResult]:
        """Conjunctive query: records matching *every* ``attr == value``.

        Executes the single LOOKUP the planner judges most selective
        (fewest matches under the cost model's proxy: the index with the
        cheapest exhaustive lookup — ties broken by attribute name) and
        filters its results by the remaining conditions; every attribute
        must be indexed.  This is the classic index-intersection plan
        reduced to probe-one-filter-rest, which is optimal here because
        all results carry the full document.
        """
        self._check_open()
        if not conditions:
            raise InvalidArgumentError("multi_lookup needs >= 1 condition")
        for attribute in conditions:
            self._index_for(attribute)  # validate up front
        # Drive from the attribute whose index kind answers exhaustive
        # lookups cheapest: stand-alone kinds before EMBEDDED before
        # NOINDEX (full scan only as a last resort).
        preference = {
            IndexKind.EAGER: 0, IndexKind.LAZY: 1, IndexKind.COMPOSITE: 1,
            IndexKind.EMBEDDED: 2, IndexKind.NOINDEX: 3,
        }
        driver = min(conditions,
                     key=lambda attr: (preference[self.indexes[attr].kind],
                                       attr))
        results = []
        for result in self.indexes[driver].lookup(
                conditions[driver], None, early_termination=False):
            if all(attribute_of(result.document, attribute) == value
                   for attribute, value in conditions.items()):
                results.append(result)
                if k is not None and len(results) >= k:
                    break
        return results

    def scan(self, low: str | bytes | None = None,
             high: str | bytes | None = None):
        """Ordered iteration over live ``(key, document)`` pairs.

        A primary-key range scan (LevelDB's iterator API); bounds are
        inclusive, ``None`` means unbounded.
        """
        self._check_open()
        low_bytes = key_to_bytes(low) if low is not None else None
        high_bytes = key_to_bytes(high) if high is not None else None
        for key, value in self.primary.scan(low_bytes, high_bytes):
            yield key.decode("utf-8", errors="replace"), \
                decode_document(value)

    def _index_for(self, attribute: str) -> SecondaryIndex:
        try:
            return self.indexes[attribute]
        except KeyError:
            raise InvalidArgumentError(
                f"no secondary index on attribute {attribute!r}; "
                f"indexed: {sorted(self.indexes)}") from None

    # -- maintenance & introspection ---------------------------------------------

    def flush(self) -> None:
        """Flush the primary table and every index table."""
        self._check_open()
        self.primary.flush()
        for index in self.indexes.values():
            index.flush()

    def compact_all(self) -> None:
        """Full manual compaction of all tables (for static experiments)."""
        self._check_open()
        self.primary.compact_range()
        for index in self.indexes.values():
            index.compact()

    def tables(self) -> Iterator[tuple[str, DB]]:
        """Every LSM table of the store: ``("primary", db)``, then
        ``(f"index:{attribute}", index_db)`` for each stand-alone index
        (the embedded kind and NoIndex live in the primary table)."""
        yield "primary", self.primary
        for attribute, index in self.indexes.items():
            index_db = getattr(index, "index_db", None)
            if index_db is not None:
                yield f"index:{attribute}", index_db

    def quarantined_indexes(self) -> list[str]:
        """Attributes whose stand-alone index has quarantined tables.

        Only meaningful under ``on_corruption="quarantine"``; the embedded
        kind reports through the primary table instead (its structures are
        advisory and degrade in place rather than quarantining).
        """
        self._check_open()
        return sorted(label.removeprefix("index:")
                      for label, table in self.tables()
                      if table is not self.primary
                      and table.quarantined_tables())

    def rebuild_index(self, attribute: str) -> int:
        """Rebuild ``attribute``'s stand-alone index from the primary table.

        The primary record store is authoritative: a quarantined (or merely
        suspect) index table can always be regenerated by replaying every
        live record through the index's own write path.  The old index
        database is discarded wholesale — bad blocks and all — and a fresh
        one is built in its place, so the rebuilt index answers queries
        exactly as an index that had never been corrupted.

        Records are replayed oldest first, as they were written: a deeper
        level of the index table must hold only older entries of a key,
        which Lazy's level walk and early termination rest on.

        Returns the number of records replayed.  Embedded/NOINDEX
        attributes have nothing to rebuild and return 0.
        """
        self._check_open()
        index = self._index_for(attribute)
        spec = self._index_specs.get(attribute)
        if spec is None:
            return 0  # embedded or noindex: lives inside the primary table
        table_vfs, table_name, index_options = spec
        index.index_db.close()
        for name in list(table_vfs.list_dir(table_name + "/")):
            table_vfs.delete_if_exists(name)
        index.index_db = DB.open_table(table_vfs, table_name, index_options)
        self.primary.attach_table(index.index_db)
        seq_keys = [(seq, key) for key, _value, seq
                    in self.primary.scan_with_seq(fill_cache=False)]
        replayed = 0
        for key_bytes, value, seq in records_by_seq(
                self.primary.get_with_seq, seq_keys):
            index.apply_put(key_bytes, decode_document(value), seq)
            replayed += 1
        index.flush()
        return replayed

    def heal_indexes(self) -> dict[str, int]:
        """Rebuild every quarantined stand-alone index; see :meth:`rebuild_index`.

        Returns ``{attribute: records_replayed}`` for each index healed.
        """
        return {attribute: self.rebuild_index(attribute)
                for attribute in self.quarantined_indexes()}

    def checkpoint(self, dest_vfs: VFS, name: str = "data") -> int:
        """Copy the primary table and every index table to ``dest_vfs``.

        Table names follow :meth:`open`'s layout, so the checkpoint opens
        with ``SecondaryIndexedDB.open(dest_vfs, name, same_indexes)``.
        Returns the total number of files copied.
        """
        self._check_open()
        return sum(
            table.checkpoint(dest_vfs,
                             f"{name}/{table.name.rsplit('/', 1)[-1]}")
            for _label, table in self.tables())

    def verify_integrity(self) -> dict[str, Any]:
        """Offline checker over the primary table and every index table.

        Returns ``{"primary" | "index:attr": IntegrityReport}``; all
        reports ``.ok`` means every block checksum, table reference and
        manifest entry verified, and every live primary record is found
        through every stand-alone index (an exhaustive LOOKUP of its
        value returns it; stale index entries are allowed).
        """
        self._check_open()
        reports = {label: table.verify_integrity()
                   for label, table in self.tables()}
        self._check_index_coverage(reports)
        return reports

    def _check_index_coverage(self, reports: dict[str, Any]) -> None:
        """Report on each stand-alone index every live primary key it holds
        no entry for under its value: one pass over each table, neither
        filling a block cache; the live ``(value, key)`` pairs are what is
        held.  A table whose own audit failed is not read again (its damage
        is reported, and a read could raise or quarantine), and a record
        or entry that does not parse is reported, not raised."""
        expected: dict[str, set[tuple[bytes, bytes]]] = {
            attribute: set() for attribute, index in self.indexes.items()
            if isinstance(index, StandAloneIndex)
            and reports[f"index:{attribute}"].ok}
        if not expected or not reports["primary"].ok:
            return
        try:
            for key, value in self.primary.scan(fill_cache=False):
                document = decode_document(value)
                for attribute, pairs in expected.items():
                    attr_value = attribute_of(document, attribute)
                    if attr_value is not None:
                        pairs.add((encode_attribute(attr_value), key))
        except (CorruptionError, ValueError) as exc:
            reports["primary"].problem(f"unreadable record: {exc}")
            return
        for attribute, pairs in expected.items():
            report = reports[f"index:{attribute}"]
            try:
                pairs.difference_update(self.indexes[attribute].entries())
            except (CorruptionError, ValueError) as exc:
                report.problem(f"unreadable entry: {exc}")
                continue
            for key in sorted(key_to_str(key) for _value, key in pairs):
                report.problem(
                    f"live record {key!r} is missing from the index")

    def size_breakdown(self) -> dict[str, int]:
        """Bytes per table — the paper's Figure 8a decomposition.

        The Embedded index reports 0 here because its structures live
        inside the primary table's files ("more space efficient ... close
        to having no index").
        """
        breakdown = {"primary": self.primary.approximate_size()}
        for attribute, index in self.indexes.items():
            breakdown[f"index:{attribute}"] = index.size_bytes()
        return breakdown

    def total_size(self) -> int:
        return sum(self.size_breakdown().values())

    def io_stats(self) -> dict[str, Any]:
        """Per-table I/O meters plus validation-GET counters."""
        stats: dict[str, Any] = {label: table.vfs.stats
                                 for label, table in self.tables()}
        stats["validation_gets"] = self.checker.validation_gets
        return stats

    def close(self) -> None:
        if self._closed:
            return
        for index in self.indexes.values():
            index.close()
        self.primary.close()
        self._closed = True

    def __enter__(self) -> "SecondaryIndexedDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            from repro.lsm.errors import DBClosedError

            raise DBClosedError("database is closed")
