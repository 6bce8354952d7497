"""The no-index baseline: answer secondary queries by scanning everything.

This is the paper's "NoIndex" series (Figures 10-11): LOOKUP and
RANGELOOKUP degrade to a full scan of the primary table with a predicate.
It costs nothing at write time and is the yardstick the Embedded index is
measured against ("zone maps ... almost perform same as no index" for
non-time-correlated range queries).
"""

from __future__ import annotations

from typing import Any

from repro.core.base import IndexKind, LookupResult, Owns, SecondaryIndex
from repro.core.records import (
    Document,
    attribute_of,
    decode_document,
    key_to_str,
)
from repro.core.topk import TopKBySeq
from repro.lsm.db import DB, WriteBatch
from repro.lsm.zonemap import encode_attribute


class NoIndex(SecondaryIndex):
    """Full-scan fallback: correct for every query, fast for none."""

    kind = IndexKind.NOINDEX

    def __init__(self, attribute: str, primary: DB) -> None:
        super().__init__(attribute)
        self.primary = primary

    def on_put(self, batch: WriteBatch, key: bytes,
               document: Document) -> None:
        """Nothing to index, but a value no query could compare (a list,
        an object, an int past float range) is refused here, before the
        commit, as every other kind refuses it — stored, it would make
        every later LOOKUP and RANGELOOKUP raise."""
        attr_value = attribute_of(document, self.attribute)
        if attr_value is not None:
            encode_attribute(attr_value)

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        encoded = encode_attribute(value)
        self._scan(lambda e: e == encoded, heap, owns)

    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        self._scan(lambda e: low <= e <= high, heap, owns)

    def _scan(self, matches, heap: TopKBySeq[LookupResult],
              owns: Owns | None = None) -> None:
        for key, value, seq in self.primary.scan_with_seq():
            if owns is not None and not owns(key):
                continue
            document = decode_document(value)
            attr_value = attribute_of(document, self.attribute)
            if attr_value is None:
                continue
            if matches(encode_attribute(attr_value)):
                heap.add(seq, LookupResult(key_to_str(key), document, seq))
