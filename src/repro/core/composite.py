"""The Stand-Alone Composite Index (paper Section 4.2).

AsterixDB/Spanner's strategy: "the composite key is the concatenation of
the secondary and the primary keys, and the value is set to null."  Every
index maintenance operation is a plain key write — no posting lists, no
read-modify-write, no merge operator — so the index table compacts exactly
like a primary table (the same ``22(L-1)`` write amplification as Lazy,
without Lazy's JSON CPU overhead).

LOOKUP is a prefix range scan over the composite keys.  "Unlike in Lazy
Index, LOOKUP needs to traverse all levels to find top-k entries": because
compaction picks files round-robin by key range, composite keys of one
attribute value are *not* time-ordered across levels, so no early
termination is possible — the reason Lazy wins at small K and Composite
wins as K grows (Figure 10).  The entries carry their write sequence, so
the scan's candidates are ranked first and only a K prefix is validated
(:meth:`repro.core.validity.ValidityChecker.harvest`, batched GETs).

The composite key uses an order-preserving escape of the attribute
encoding (``0x00`` → ``0x00 0xFF``; terminator ``0x00 0x00``) so that
arbitrary attribute bytes concatenate with arbitrary primary keys without
ambiguity while preserving (attribute, key) lexicographic order.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.base import IndexKind, LookupResult, Owns, StandAloneIndex
from repro.core.records import Document, attribute_of
from repro.core.topk import TopKBySeq
from repro.core.validity import (
    ValidityChecker,
    attribute_equals,
    attribute_in_range,
)
from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import decode_varint, encode_varint
from repro.lsm.zonemap import encode_attribute

_TERMINATOR = b"\x00\x00"


def make_composite_key(encoded_attr: bytes, primary_key: bytes) -> bytes:
    """``escape(attr) || 0x00 0x00 || primary_key``, order-preserving."""
    return encoded_attr.replace(b"\x00", b"\x00\xff") + _TERMINATOR \
        + primary_key


def split_composite_key(composite: bytes) -> tuple[bytes, bytes]:
    """Inverse of :func:`make_composite_key`: ``(encoded_attr, primary_key)``."""
    index = 0
    while True:
        index = composite.find(b"\x00", index)
        if index < 0 or index + 1 >= len(composite):
            raise CorruptionError(
                f"composite key without terminator: {composite!r}")
        if composite[index + 1] == 0x00:
            break
        if composite[index + 1] != 0xFF:
            raise CorruptionError(
                f"bad escape in composite key: {composite!r}")
        index += 2
    escaped_attr = composite[:index]
    primary_key = composite[index + 2:]
    return escaped_attr.replace(b"\x00\xff", b"\x00"), primary_key


def attribute_prefix(encoded_attr: bytes) -> bytes:
    """The scan prefix shared by all composite keys of one attribute value."""
    return encoded_attr.replace(b"\x00", b"\x00\xff") + _TERMINATOR


def prefix_successor(prefix: bytes) -> bytes:
    """The smallest byte string greater than every ``prefix + suffix``.

    A prefix always ends with the ``0x00 0x00`` terminator, so bumping the
    final byte to ``0x01`` is exact: every composite key under the prefix
    shares ``prefix[:-1]`` and continues with ``0x00``.
    """
    return prefix[:-1] + b"\x01"


class CompositeIndex(StandAloneIndex):
    """(secondary + primary) composite keys in a stand-alone index table."""

    kind = IndexKind.COMPOSITE

    def __init__(self, attribute: str, index_db: DB,
                 checker: ValidityChecker) -> None:
        super().__init__(attribute, index_db, checker)
        #: Composite entries examined by queries before validation.
        self.candidates_scanned = 0

    # -- write hooks --------------------------------------------------------------

    def on_put(self, batch: WriteBatch, key: bytes,
               document: Document) -> None:
        attr_value = attribute_of(document, self.attribute)
        if attr_value is None:
            return
        composite = make_composite_key(encode_attribute(attr_value), key)
        batch.put(composite, encode_varint, self.index_db)

    def on_delete(self, batch: WriteBatch, key: bytes,
                  old_document: Document | None) -> None:
        """DEL "inserts the composite key with a deletion marker": the
        engine's own tombstone plays that role here, and compaction removes
        the dead entry exactly as the paper describes."""
        if old_document is None:
            return
        attr_value = attribute_of(old_document, self.attribute)
        if attr_value is None:
            return
        composite = make_composite_key(encode_attribute(attr_value), key)
        batch.delete(composite, self.index_db)

    # -- queries -------------------------------------------------------------

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """Algorithm 4: full prefix scan, then validate candidates by recency.

        The scan must traverse every level (no early termination is
        possible), but candidates carry their write sequence, so they are
        ranked *before* validation and only the top candidates cost a
        data-table GET — a stale hit simply falls through to the next
        candidate.  A valid candidate's data-table sequence equals its
        posting sequence (a newer version would have re-written the
        composite entry), so the ranking is exact.
        """
        candidates = list(self._prefix_scan(encode_attribute(value)))
        self.candidates_scanned += len(candidates)
        self.checker.harvest(sorted(candidates, reverse=True),
                             attribute_equals(self.attribute, value), heap,
                             set(), owns)

    def entries(self) -> Iterator[tuple[bytes, bytes]]:
        for composite, _payload in self.index_db.scan(fill_cache=False):
            yield split_composite_key(composite)

    def _prefix_scan(self, encoded_attr: bytes
                     ) -> Iterator[tuple[int, bytes]]:
        """``(posting_seq, primary_key)`` of every entry under one value."""
        prefix = attribute_prefix(encoded_attr)
        for composite, payload in self.index_db.scan(
                prefix, prefix_successor(prefix)):
            if not composite.startswith(prefix):
                return
            seq, _pos = decode_varint(payload, 0)
            yield seq, composite[len(prefix):]

    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        """Algorithm 7: one ordered scan across the whole composite range."""
        scan_lo = attribute_prefix(low)
        # Exact upper bound: just past every composite key of the high value.
        scan_hi = prefix_successor(attribute_prefix(high))
        candidates: list[tuple[int, bytes]] = []
        for composite, payload in self.index_db.scan(scan_lo, scan_hi):
            encoded_attr, primary_key = split_composite_key(composite)
            if encoded_attr > high:
                break
            self.candidates_scanned += 1
            posting_seq, _pos = decode_varint(payload, 0)
            candidates.append((posting_seq, primary_key))
        self.checker.harvest(sorted(candidates, reverse=True),
                             attribute_in_range(self.attribute, low, high),
                             heap, set(), owns)
