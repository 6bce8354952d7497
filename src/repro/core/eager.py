"""The Stand-Alone Eager Index (paper Section 4.1.1).

A separate LSM index table maps each attribute value to a JSON posting
list of ``[primary_key, seq]`` pairs, newest first.  Every PUT performs the
read-update-write cycle of the paper's Example 1: "first reads the current
postings list of a_i from the index table, adds k to the list and writes
back the updated list" — which keeps LOOKUP down to a single index read
but makes the index table rewrite an average of ``PL_S`` postings per
write, producing the catastrophic write amplification of Figure 9c
(``WAMF = PL_S * 22 * (L-1)``, Table 5).

This is the strategy of MongoDB/CouchDB-style B+-tree indexes and of
Riak's secondary indexes, transplanted onto an LSM index table.

Queries hand the list (RANGELOOKUP: the lists of the range), sorted by
sequence, to :meth:`repro.core.validity.ValidityChecker.harvest`, which
validates a K prefix against the data table in batched GETs.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import IndexKind, LookupResult, Owns, StandAloneIndex
from repro.core.posting import (
    decode_posting_list,
    encode_posting_list,
    live_postings,
    posting_seq,
)
from repro.core.records import (
    Document,
    attribute_of,
    key_to_bytes,
    key_to_str,
)
from repro.core.topk import TopKBySeq
from repro.core.validity import (
    ValidityChecker,
    attribute_equals,
    attribute_in_range,
)
from repro.lsm.db import DB, WriteBatch
from repro.lsm.zonemap import encode_attribute


class EagerIndex(StandAloneIndex):
    """Read-modify-write posting lists in a stand-alone index table."""

    kind = IndexKind.EAGER

    def __init__(self, attribute: str, index_db: DB,
                 checker: ValidityChecker) -> None:
        super().__init__(attribute, index_db, checker)
        #: Index-table reads performed by the write path — the "Read l"
        #: column of Table 5 that the Lazy/Composite variants avoid.
        self.write_path_reads = 0

    # -- write hooks ------------------------------------------------------------

    def on_put(self, batch: WriteBatch, key: bytes,
               document: Document) -> None:
        attr_value = attribute_of(document, self.attribute)
        if attr_value is None:
            return
        index_key = encode_attribute(attr_value)
        entries = self._read_list(index_key)
        key_str = key_to_str(key)
        entries = [entry for entry in entries if entry[0] != key_str]
        batch.put(index_key,
                  lambda seq: encode_posting_list([[key_str, seq], *entries]),
                  self.index_db)

    def on_delete(self, batch: WriteBatch, key: bytes,
                  old_document: Document | None) -> None:
        if old_document is None:
            return
        attr_value = attribute_of(old_document, self.attribute)
        if attr_value is None:
            return
        index_key = encode_attribute(attr_value)
        entries = self._read_list(index_key)
        key_str = key_to_str(key)
        remaining = [entry for entry in entries if entry[0] != key_str]
        if len(remaining) != len(entries):
            batch.put(index_key, encode_posting_list(remaining),
                      self.index_db)

    def entries(self) -> Iterator[tuple[bytes, bytes]]:
        return live_postings(self.index_db)

    def _read_list(self, index_key: bytes) -> list[list]:
        self.write_path_reads += 1
        payload = self.index_db.get(index_key)
        if payload is None:
            return []
        return decode_posting_list(payload)

    # -- queries -----------------------------------------------------------------

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """Algorithm 2: one index read, then GET-and-validate a K prefix."""
        payload = self.index_db.get(encode_attribute(value))
        if payload is not None:
            self._harvest(decode_posting_list(payload),
                          attribute_equals(self.attribute, value), heap, owns)

    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        """Range scan on the index table, merging lists newest-first.

        "We issue this range query on our index table for given range
        [a, b] ... we need to add associated posting lists' primary keys to
        the min-heap to get the top-k": the lists of the range are merged
        by sequence so candidates are validated in strictly newest-first
        order and validation GETs stop after K hits.
        """
        postings = [entry for _key, payload in self.index_db.scan(low, high)
                    for entry in decode_posting_list(payload)]
        self._harvest(postings, attribute_in_range(self.attribute, low, high),
                      heap, owns)

    def _harvest(self, postings: list[list], predicate,
                 heap: TopKBySeq[LookupResult],
                 owns: Owns | None = None) -> None:
        """Validate postings newest first; see ``ValidityChecker.harvest``.

        One list is newest-first as the write path and ``rebuild_index``
        leave it (the sort is then one pass); a range concatenates lists.
        """
        postings.sort(key=posting_seq, reverse=True)
        self.checker.harvest(
            ((entry[1], key_to_bytes(entry[0])) for entry in postings
             if len(entry) == 2), predicate, heap, set(), owns)
