"""The Embedded Index (paper Section 3).

No separate index table exists.  Instead:

* each primary-table SSTable carries, per data block, a bloom filter and a
  zone map for every indexed attribute (built for free when the table is
  written — SSTables are immutable, so the filters never need updates);
  the zone map is the min/max of the block's *attribute column*, every
  entry's encoded value in entry order, which a scan compares instead of
  parsing the values it skips;
* each SSTable's file-level zone map lives in the manifest metadata
  ("a global metadata file"), pruning whole files;
* the MemTable is covered by an in-memory ordered map on the attribute,
  the paper's MemTable B-tree, which the MemTable itself keeps: it holds
  each VALUE entry's column slots (``DB.write`` works them out before the
  writer queues, so an attribute no column holds fails that PUT alone,
  before its commit), per attribute a map from encoded value to postings
  (:meth:`repro.lsm.memtable.MemTable.postings`), and hands the slots to
  the flush, so an entry is parsed once and a posting is in place before
  its write is published.

LOOKUP (Algorithm 5) scans one level at a time, newest component first,
consulting only the *in-memory* filters and reading just the data blocks
that pass both checks.  Matches are validated with GetLite — "checks the
in-memory metadata, index block and bloom filters for primary keys"
(:meth:`repro.lsm.db.ReadView.newer_version`) — and
ranked by the Algorithm-1 min-heap.  Entries inside a level are ordered by
primary key, not by time, so the scan may stop only at a level boundary —
but it finishes just the files of the level that can still beat the K-th
result.  The manifest's per-file ``max_seq`` is a zone map on the one
attribute top-K ranks by (Luo & Carey's component range filter): a level is
walked newest file first (:attr:`repro.lsm.version.Version.by_recency`) and
abandoned at the first file whose ``max_seq`` the full heap would refuse;
inside a file, blocks are visited last to first and an entry is parsed only
if its column slot is in range, the heap would still accept its sequence
number and GetLite finds it live.  This is filter
reordering — validity never depends on heap state — so the answers are
those of the forward walk (kept as the reference in
``tests/core/test_embedded_pruning.py``).

A query holds one engine read view (``with primary.read_view() as
view:``) and reads through it alone: the MemTables' postings
(:meth:`repro.lsm.db.ReadView.memtable_postings`, each confirmed by
``newest_in_memory``), the pinned Version's files, and GetLite.  A
quarantined table has no blocks (:meth:`repro.lsm.db.DB.blocks_admitting`;
one found rotten mid-walk is quarantined there, or the error raised, as
``Options.on_corruption`` says), and GetLite treats it as "maybe newer".

RANGELOOKUP (Algorithm 8) is the same walk driven by zone-map overlap
tests; bloom filters cannot help ranges.  As the paper's analysis warns,
the pruning power of the *attribute* zone maps depends entirely on the
attribute being time-correlated; the sequence bound prunes regardless, but
only a bounded K, and only once the newest files have filled the heap.  The
column is exact where zone maps are not: it changes no block read, only
which entries of a read block are looked at.
"""

from __future__ import annotations

from typing import Any

from repro.core.base import (
    IndexKind,
    LookupResult,
    Owns,
    SecondaryIndex,
    offer,
)
from repro.core.records import decode_document, key_to_str
from repro.core.topk import TopKBySeq
from repro.core.validity import ValidityChecker
from repro.lsm.block import Block
from repro.lsm.bloom import bloom_hash
from repro.lsm.db import DB, ReadView
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import KIND_VALUE
from repro.lsm.version import FileMetaData
from repro.lsm.zonemap import encode_attribute


class EmbeddedIndex(SecondaryIndex):
    """Bloom-filter + zone-map index embedded in the primary table."""

    kind = IndexKind.EMBEDDED

    def __init__(self, attribute: str, primary: DB,
                 checker: ValidityChecker, use_getlite: bool = True,
                 use_file_zonemaps: bool = True) -> None:
        """``use_getlite`` and ``use_file_zonemaps`` disable, respectively,
        the GetLite validity optimisation (falling back to a full data-table
        GET per match) and the file-level zone-map pre-filter (falling back
        to per-block checks only) — the two Section 3 design choices the
        ablation benchmarks quantify."""
        super().__init__(attribute)
        if attribute not in primary.options.indexed_attributes:
            raise ValueError(
                f"primary table was not opened with {attribute!r} in "
                f"Options.indexed_attributes")
        self.primary = primary
        self.checker = checker
        self.use_getlite = use_getlite
        self.use_file_zonemaps = use_file_zonemaps
        #: Number of per-block bloom/zone-map probes performed (the CPU
        #: cost the paper flags with ** in Table 3).
        self.filter_probes = 0
        #: Blocks read from disk during index scans.
        self.blocks_read = 0
        #: Files skipped thanks to file-level zone maps alone.
        self.files_pruned = 0
        #: Files skipped because their ``max_seq`` could not beat the K-th
        #: result (the recency walk's own pruning; never with ``k=None``).
        self.files_seq_pruned = 0
        #: Stored values parsed into documents: one per heap admission,
        #: since a scan compares column bytes and parses only what it keeps.
        self.records_parsed = 0

    # Nothing to add to a write's batch (on_put/on_delete): the filters
    # and the MemTable's postings live in the primary table itself, and a
    # MemTable tombstone invalidates any older posting at query time.

    # -- queries --------------------------------------------------------------

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """The level-boundary stop is the paper's approximate rule, defined
        on this index's own top-K: the walk fills a heap of its own, whose
        results are then offered to ``heap``."""
        encoded = encode_attribute(value)
        own: TopKBySeq[LookupResult] = TopKBySeq(heap.k)
        self._query(own, encoded, encoded, bloom_hash(encoded),
                    early_termination, owns)
        offer(heap, own.results())

    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        self._query(heap, low, high, None, early_termination, owns)

    def _query(self, heap: TopKBySeq[LookupResult], low: bytes, high: bytes,
               value_hash: tuple[int, int] | None, early_termination: bool,
               owns: Owns | None) -> None:
        """Algorithms 5 and 8 into ``heap``, under one engine read view; a
        record whose key ``owns`` rejects is passed over before its
        validity check."""
        with self.primary.read_view() as view:
            postings = view.memtable_postings(self.attribute, low, high)
            if owns is not None:
                postings = [posting for posting in postings
                            if owns(posting[1])]
            self._memtable_matches(heap, view, postings)
            self._walk_levels(heap, view, low, high, value_hash,
                              early_termination, owns)

    def _walk_levels(self, heap: TopKBySeq[LookupResult], view: ReadView,
                     low: bytes, high: bytes,
                     value_hash: tuple[int, int] | None,
                     early_termination: bool, owns: Owns | None) -> None:
        """The disk half of Algorithms 5 and 8: values in ``[low, high]``.

        ``value_hash`` is the bloom hash of a point LOOKUP's value (then
        ``low == high``); ranges pass ``None`` and rely on zone maps alone.
        A level is abandoned at the first file whose sequence bound cannot
        beat the K-th result: the files after it are older still, and
        ``would_accept`` would refuse their entries one by one.
        """
        if early_termination and heap.is_full:
            return
        for level, files in enumerate(view.version.by_recency):
            for visited, (position, meta) in enumerate(files):
                if not heap.would_accept(meta.seq_upper_bound):
                    self.files_seq_pruned += len(files) - visited
                    break
                self._scan_file(heap, view, level, position, meta, low,
                                high, value_hash, owns)
            if early_termination and heap.is_full:
                break

    # -- memtable component ---------------------------------------------------

    def _memtable_matches(self, heap: TopKBySeq[LookupResult],
                          view: ReadView,
                          postings: list[tuple[int, bytes]]) -> None:
        newest_in_memory = view.newest_in_memory
        for seq, key in postings:
            newest = newest_in_memory(key)
            if newest is None or newest[1] != seq:
                continue  # superseded, or written past the view's sequence
            # The posting's own entry, so a VALUE: only VALUEs post.
            self.records_parsed += 1
            heap.add(seq, LookupResult(key_to_str(key),
                                       decode_document(newest[2]), seq))

    # -- SSTable scans ----------------------------------------------------------

    def _scan_file(self, heap: TopKBySeq[LookupResult], view: ReadView,
                   level: int, position: int, meta: FileMetaData, low: bytes,
                   high: bytes, value_hash: tuple[int, int] | None,
                   owns: Owns | None) -> None:
        """Scan the blocks of one file whose filters admit ``[low, high]``."""
        self.filter_probes += 1
        if self.use_file_zonemaps:
            file_zone = meta.secondary_zonemaps.get(self.attribute)
            if file_zone is not None and not file_zone.overlaps(low, high):
                self.files_pruned += 1
                return
        num_blocks, blocks = self.primary.blocks_admitting(
            meta, self.attribute, low, high, value_hash)
        self.filter_probes += num_blocks
        for block, column, boundary_key in blocks:
            self._scan_block(heap, view, level, position, block, column,
                             boundary_key, low, high, owns)

    def _scan_block(self, heap: TopKBySeq[LookupResult], view: ReadView,
                    level: int, position: int, block: Block,
                    column: list[bytes],
                    boundary_key: bytes | None, low: bytes,
                    high: bytes, owns: Owns | None) -> None:
        """Harvest valid matches from one surviving block.

        The column decides first: an entry is looked at only if its
        encoded value lies in ``[low, high]``, and a block with no such
        entry is never decoded.  Then, cheapest first — version order,
        kind, recency, GetLite — and only a record that passes them all
        is parsed, once, into the result document.  An entry is its key's
        newest version in this table unless the entry before it — or, for
        the first, ``boundary_key``, the last key of the block before —
        has the same key: a key's versions are contiguous.
        """
        self.blocks_read += 1
        if low == high:
            hits = [i for i, encoded in enumerate(column) if encoded == low]
        else:
            hits = [i for i, encoded in enumerate(column)
                    if low <= encoded <= high]
        if not hits:
            return
        sort_keys, values = block.sorted_arrays()
        if len(sort_keys) != len(column):
            raise CorruptionError(
                f"attribute column of {len(column)} entries for a block "
                f"of {len(sort_keys)}")
        for i in hits:
            key, negated_tag = sort_keys[i]
            if key == (sort_keys[i - 1][0] if i else boundary_key):
                continue  # an older version
            tag = -negated_tag  # (seq << 8) | kind
            if tag & 0xFF != KIND_VALUE:
                continue
            seq = tag >> 8
            if not heap.would_accept(seq):
                continue  # too old to matter — skip validity work
            if owns is not None and not owns(key):
                continue  # another shard's copy
            if self._is_valid(view, key, seq, level, position):
                self.records_parsed += 1
                heap.add(seq, LookupResult(key_to_str(key),
                                           decode_document(values[i]), seq))

    def _is_valid(self, view: ReadView, key: bytes, seq: int, level: int,
                  position: int) -> bool:
        """Is the matched version still the record's newest version?"""
        if not self.use_getlite:
            # Ablation baseline: a plain GET on the data table, as a naive
            # implementation would do.
            found = view.resolve(key, view.max_seq)
            return found is not None and found[1] == seq
        newer, memory_only, confirm_reads = view.newer_version(
            key, seq, level, position)
        checker = self.checker
        checker.getlite_memory_only += memory_only
        checker.getlite_confirm_reads += confirm_reads
        return not newer

    def probe_stats(self) -> dict[str, int]:
        """Counters for the cost-model experiments (Table 3)."""
        return {
            "filter_probes": self.filter_probes,
            "blocks_read": self.blocks_read,
            "files_pruned": self.files_pruned,
            "files_seq_pruned": self.files_seq_pruned,
            "records_parsed": self.records_parsed,
            "getlite_memory_only": self.checker.getlite_memory_only,
            "getlite_confirm_reads": self.checker.getlite_confirm_reads,
        }
