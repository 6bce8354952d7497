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
from repro.core.records import attribute_of, decode_document, key_to_str
from repro.core.topk import TopKBySeq
from repro.lsm.db import DB
from repro.lsm.zonemap import encode_attribute


class NoIndex(SecondaryIndex):
    """Full-scan fallback: correct for every query, fast for none."""

    kind = IndexKind.NOINDEX

    def __init__(self, attribute: str, primary: DB) -> None:
        super().__init__(attribute)
        self.primary = primary

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        encoded = encode_attribute(value)
        self._scan(lambda e: e == encoded, heap, owns)

    def range_lookup(self, low: Any, high: Any, k: int | None = None,
                     early_termination: bool = True,
                     owns: Owns | None = None) -> list[LookupResult]:
        low_encoded = encode_attribute(low)
        high_encoded = encode_attribute(high)
        if low_encoded > high_encoded:
            return []
        heap: TopKBySeq[LookupResult] = TopKBySeq(k)
        self._scan(lambda e: low_encoded <= e <= high_encoded, heap, owns)
        return heap.results()

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
