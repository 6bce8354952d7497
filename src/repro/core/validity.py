"""Validity checks: filtering stale index hits against the data table.

Updates leave stale information behind in every index variant (Section 4:
"there could be invalid keys in the postings list ... caused by updates on
the data table"), so each candidate must be validated before it becomes a
result:

* Stand-alone indexes GET the candidates on the data table and re-check
  the attribute value.  :meth:`ValidityChecker.harvest` is the one loop
  that does it for Eager, Lazy, Composite and the cluster's global index:
  candidates come newest first, and each round resolves as many of them as
  the top-K heap still has room for in one batched point lookup
  (:meth:`repro.lsm.db.DB.get_many_with_seq` — one read view, a data block
  shared by several candidates read once).
* The Embedded index found the *record version itself* in a primary-table
  block, so it only needs to know whether a **newer version** of the key
  exists — the paper's GetLite, one probe of the engine's read view
  (:meth:`repro.lsm.db.ReadView.newer_version`), which resolves almost
  always from in-memory structures (MemTable, file ranges, index blocks,
  primary bloom filters) and reads a block only to confirm a bloom
  positive.  The checker keeps GetLite's counters.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.base import LookupResult, Owns
from repro.core.records import (
    Document,
    attribute_of,
    decode_document,
    key_to_str,
)
from repro.core.topk import TopKBySeq
from repro.lsm.db import DB
from repro.lsm.zonemap import encode_attribute

#: A batched data-table GET: ``keys -> {key: (value, seq) | None}``.
FetchMany = Callable[[list[bytes]], dict[bytes, tuple[bytes, int] | None]]


class ValidityChecker:
    """Candidate validation against one data table.

    ``fetch_many`` is the stand-alone kinds' one dependency on the data
    table; it defaults to ``primary.get_many_with_seq`` (the cluster's
    global index passes a fetch routed across shards and no ``primary``).
    """

    def __init__(self, primary: DB | None,
                 fetch_many: FetchMany | None = None) -> None:
        self.primary = primary
        self._fetch_many = fetch_many
        #: Number of GETs issued on the data table for validation — the
        #: "K GET queries on data table" term of the paper's Table 5.
        self.validation_gets = 0
        #: GetLite probes answered purely in memory vs with a confirm read.
        self.getlite_memory_only = 0
        self.getlite_confirm_reads = 0

    def harvest(self, candidates: Iterable[tuple[int, bytes]],
                predicate: Callable[[Document], bool],
                heap: TopKBySeq[LookupResult], resolved: set[bytes],
                owns: Owns | None = None) -> None:
        """Turn ``(posting_seq, primary_key)`` candidates into results.

        "For each entry k in the list of primary keys, we issue a GET(k) on
        data table ... we make sure val(A_i) = a" — in rounds.  Candidates
        must come newest first.  Each round takes as many unresolved
        candidates as ``heap`` still has room for (at least one; all of
        them for ``k=None``), GETs them in one batch and adds the live,
        matching records under their data-table sequence.  The first
        candidate too old for the heap ends the harvest — nothing newer
        follows — and stays unresolved: the same record may carry a newer
        posting elsewhere.  A key whose fate a GET decided joins
        ``resolved`` and is never fetched again; a key ``owns`` rejects
        (another shard's) is never fetched at all.
        """
        candidates = iter(candidates)
        while True:
            room = None if heap.k is None else max(heap.k - len(heap), 1)
            batch: list[bytes] = []
            for posting_seq, key in candidates:
                if key in resolved or owns is not None and not owns(key):
                    continue
                if not heap.would_accept(posting_seq):
                    candidates = iter(())  # nothing newer follows
                    break
                resolved.add(key)
                batch.append(key)
                if len(batch) == room:
                    break
            if not batch:
                return
            self.validation_gets += len(batch)
            # Resolved at call time: a tracer may wrap it on the instance.
            fetch_many = self._fetch_many or self.primary.get_many_with_seq
            found = fetch_many(batch)
            for key in batch:
                hit = found[key]
                if hit is None:
                    continue
                value, seq = hit
                document = decode_document(value)
                if predicate(document):
                    heap.add(seq, LookupResult(key_to_str(key), document, seq))


def attribute_equals(attribute: str, value: Any) -> Callable[[Document], bool]:
    """Predicate: the live document's ``attribute`` still encodes as
    ``value`` does — the equality of Embedded, NoIndex and RANGELOOKUP
    (``nan``, ``b"a"`` and ``"a"``, ints sharing a float).  Equal values
    encode equal, so a plain ``==`` decides the common hit first."""
    encoded = encode_attribute(value)

    def check(document: Document) -> bool:
        attr_value = attribute_of(document, attribute)
        if attr_value == value:
            return True
        try:
            return encode_attribute(attr_value) == encoded
        except TypeError:  # the attribute is gone, or is a list or object
            return False
    return check


def attribute_in_range(attribute: str, low: bytes, high: bytes
                       ) -> Callable[[Document], bool]:
    """Predicate: ``low <= document[attribute] <= high``, bounds encoded."""

    def check(document: Document) -> bool:
        attr_value = attribute_of(document, attribute)
        if attr_value is None:
            return False
        return low <= encode_attribute(attr_value) <= high
    return check
