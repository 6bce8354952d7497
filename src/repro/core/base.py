"""Common types for all secondary-index implementations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, Iterator

from repro.core.records import Document
from repro.core.topk import TopKBySeq
from repro.lsm.db import DB, WriteBatch
from repro.lsm.zonemap import encode_attribute

#: An ownership filter on primary keys (a cluster shard's part of the ring).
Owns = Callable[[str | bytes], bool]


class IndexKind(Enum):
    """The paper's taxonomy of secondary-index techniques (Table 2)."""

    EMBEDDED = "embedded"
    EAGER = "eager"
    LAZY = "lazy"
    COMPOSITE = "composite"
    NOINDEX = "noindex"


@dataclass(frozen=True)
class LookupResult:
    """One hit of a LOOKUP/RANGELOOKUP: the live record and its recency.

    ``seq`` is the data-table sequence number of the record's current
    version — the "insertion time in the database" that top-K ranks by
    (Table 1: "Retrieve the K most recent entries").
    """

    key: str
    document: Document
    seq: int

    @property
    def value(self) -> Document:
        """Alias kept for symmetry with the paper's (k, v) notation."""
        return self.document


def offer(heap: TopKBySeq[LookupResult],
          results: Iterable[LookupResult]) -> None:
    """Add finished results to ``heap``."""
    for result in results:
        heap.add(result.seq, result)


class SecondaryIndex(ABC):
    """One secondary index over one attribute of the primary table.

    The :class:`~repro.core.database.SecondaryIndexedDB` facade drives the
    write hooks (keeping index and data table consistent, Section 1's
    "consistency management") and delegates queries.  ``k=None`` means the
    paper's "no limit on top-k": return every match, newest first.

    The hooks add this index's entries to the :class:`WriteBatch` that
    carries the primary write, so both commit at once.  The record's
    sequence number is only known at that commit: an entry that stores it
    is a function of it, and the batch stamps it (``WriteBatch.stamp``).
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute

    kind: IndexKind

    # -- write path -------------------------------------------------------------

    def on_put(self, batch: WriteBatch, key: bytes,
               document: Document) -> None:
        """Add the index entries of ``PUT(key, document)`` to ``batch``."""

    def on_delete(self, batch: WriteBatch, key: bytes,
                  old_document: Document | None) -> None:
        """Add the index entries of ``DEL(key)`` to ``batch``.

        ``old_document`` is the record being deleted (``None`` if the key
        was absent); stand-alone indexes need it to target the posting list
        of the old attribute value.
        """

    # -- query path -------------------------------------------------------------

    def lookup(self, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        """LOOKUP(A, a, K): the K most recent live records with val(A) = a.

        ``early_termination`` enables the paper's stop-after-a-level rule
        for the techniques that support it (Embedded, Lazy); the Eager and
        Composite techniques are unaffected (Eager reads a single list;
        Composite must traverse every level regardless, Section 4.2).
        """
        heap: TopKBySeq[LookupResult] = TopKBySeq(k)
        self.lookup_into(heap, value, early_termination)
        return heap.results()

    @abstractmethod
    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """Offer LOOKUP(A, a, ``heap.k``)'s results to ``heap``.

        The heap may already hold results from other stores (the shards
        of a cluster): a candidate it would refuse costs no validation
        GET.  A record whose primary key ``owns`` rejects enters no heap,
        not even one the index keeps for itself.  :meth:`lookup` is this
        on a fresh heap.
        """

    def range_lookup(self, low: Any, high: Any, k: int | None = None,
                     early_termination: bool = True,
                     owns: Owns | None = None) -> list[LookupResult]:
        """RANGELOOKUP(A, a, b, K): K most recent with a <= val(A) <= b.

        ``early_termination`` enables the paper's stop-at-end-of-level rule
        where the technique supports it; passing ``False`` forces an
        exhaustive scan (exact top-K even under pathological compaction
        timing).  As in :meth:`lookup_into`, a record whose primary key
        ``owns`` rejects is not a result.  ``k`` is checked first, so an
        inverted range (``a > b`` in encoded order, which answers nothing)
        refuses a bad ``k`` too.
        """
        heap: TopKBySeq[LookupResult] = TopKBySeq(k)
        low_encoded = encode_attribute(low)
        high_encoded = encode_attribute(high)
        if low_encoded <= high_encoded:
            self.range_lookup_into(heap, low_encoded, high_encoded,
                                   early_termination, owns)
        return heap.results()

    @abstractmethod
    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        """Offer :meth:`range_lookup`'s results over the encoded range
        ``[low, high]`` (``low <= high``) to the fresh ``heap``."""

    # -- maintenance ------------------------------------------------------------

    def flush(self) -> None:
        """Flush any index-table MemTable (no-op for embedded indexes)."""

    def compact(self) -> None:
        """Force full compaction of the index table (no-op for embedded)."""

    def size_bytes(self) -> int:
        """Extra storage attributable to this index (0 for embedded; the
        embedded structures live inside the primary table's files)."""
        return 0

    def close(self) -> None:
        """Release resources (index-table handles)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(attribute={self.attribute!r})"


class StandAloneIndex(SecondaryIndex):
    """An index kept in its own LSM table (Eager, Lazy, Composite).

    Inside a :class:`~repro.core.database.SecondaryIndexedDB` the table is
    WAL-less and commits through the primary table's WAL; the
    :meth:`apply_put` / :meth:`apply_delete` pair writes the entries of a
    record that committed elsewhere (a rebuild, the cluster's global
    index) in a batch of their own.
    """

    def __init__(self, attribute: str, index_db: DB, checker) -> None:
        super().__init__(attribute)
        self.index_db = index_db
        self.checker = checker

    def apply_put(self, key: bytes, document: Document, seq: int) -> None:
        """Write the entries of a record that committed at ``seq``."""
        batch = WriteBatch()
        self.on_put(batch, key, document)
        self._apply(batch, seq)

    def apply_delete(self, key: bytes, old_document: Document | None,
                     seq: int) -> None:
        """Write the entries of a deletion that committed at ``seq``."""
        batch = WriteBatch()
        self.on_delete(batch, key, old_document)
        self._apply(batch, seq)

    @abstractmethod
    def entries(self) -> Iterator[tuple[bytes, bytes]]:
        """``(encoded value, primary key)`` of every entry in the index
        table that a LOOKUP of the value would fetch, stale or not; read
        without filling the block cache (an audit's pass)."""

    def _apply(self, batch: WriteBatch, seq: int) -> None:
        if batch.ops:
            batch.stamp(seq)
            self.index_db.write(batch)

    def flush(self) -> None:
        self.index_db.flush()

    def compact(self) -> None:
        self.index_db.compact_range()

    def size_bytes(self) -> int:
        return self.index_db.approximate_size()

    def close(self) -> None:
        self.index_db.close()
