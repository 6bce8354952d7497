"""The Stand-Alone Lazy Index (paper Section 4.1.2).

Cassandra's strategy: a PUT on the data table issues a blind
``PUT(a_i, [k])`` on the index table — a one-entry posting *fragment* —
"but nothing else.  Thus, the postings list for a_i will be scattered in
different levels.  During merge compaction, we merge these fragmented
lists."  The fragments are merge operands of the storage engine
(:meth:`repro.lsm.db.DB.merge`), combined by
:func:`repro.core.posting.posting_merge_operator` exactly when compaction
touches them.

LOOKUP (Algorithm 3) walks the index table level by level, newest
component first, and :meth:`repro.lsm.db.DB.fragments_by_level` reads a
level only when the walk asks for it.  Fragments only migrate downward
through compaction, and every writer — a rebuild too — adds them in
sequence order, so every posting of a key in a deeper level is older than
each posting of it above.  After harvesting a level the walk therefore
stops once the heap would refuse a posting older than the oldest one read
so far (deletion markers included), and the levels below are never read —
the property that makes Lazy beat Composite on small-K queries (Figure
10a).  For a heap the LOOKUP fills alone that is the moment it is full; a
heap other shards already filled may stop the walk after its first level.
Within a level the postings are gathered, sorted by sequence and
validated by :meth:`repro.core.validity.ValidityChecker.harvest` in
batched GETs of what the heap can still accept, so a level costs K
data-table GETs whatever order its fragments arrive in.

DEL writes a fragment carrying a deletion marker (``[pk, seq, 1]``), which
cancels older postings of the key when fragments merge (during compaction
or at query time).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.core.base import IndexKind, LookupResult, Owns, StandAloneIndex
from repro.core.posting import (
    decode_posting_list,
    live_postings,
    posting_seq,
    single_posting_fragment,
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
from repro.lsm.keys import KIND_DELETE, KIND_MERGE, MAX_SEQUENCE
from repro.lsm.zonemap import encode_attribute


class _HarvestState:
    """One query's bookkeeping across levels (see ``LazyIndex._gather``)."""

    __slots__ = ("heap", "predicate", "owns", "resolved", "cancelled")

    def __init__(self, heap: TopKBySeq[LookupResult], predicate,
                 owns: Owns | None = None) -> None:
        self.heap = heap
        self.predicate = predicate
        self.owns = owns
        #: Primary keys whose fate a data-table GET decided.
        self.resolved: set[bytes] = set()
        #: ``(index key, primary key)`` pairs a deletion marker cancelled.
        self.cancelled: set[tuple[bytes, str]] = set()


class LazyIndex(StandAloneIndex):
    """Append-only posting fragments merged by compaction."""

    kind = IndexKind.LAZY

    def __init__(self, attribute: str, index_db: DB,
                 checker: ValidityChecker) -> None:
        if index_db.options.merge_operator is None:
            raise ValueError(
                "the Lazy index table must be opened with the posting "
                "merge operator (see repro.core.posting)")
        super().__init__(attribute, index_db, checker)
        #: Levels visited by LOOKUPs (the "up to L reads" of Table 5).
        self.levels_visited = 0
        self.lookups = 0

    # -- write hooks ---------------------------------------------------------

    def on_put(self, batch: WriteBatch, key: bytes,
               document: Document) -> None:
        attr_value = attribute_of(document, self.attribute)
        if attr_value is None:
            return
        batch.merge(encode_attribute(attr_value),
                    partial(single_posting_fragment, key_to_str(key)),
                    self.index_db)

    def on_delete(self, batch: WriteBatch, key: bytes,
                  old_document: Document | None) -> None:
        if old_document is None:
            return
        attr_value = attribute_of(old_document, self.attribute)
        if attr_value is None:
            return
        batch.merge(encode_attribute(attr_value),
                    partial(single_posting_fragment, key_to_str(key),
                            deleted=True),
                    self.index_db)

    # -- queries --------------------------------------------------------------

    def lookup_into(self, heap: TopKBySeq[LookupResult], value: Any,
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        """Algorithm 3: merge the key's fragments, one level at a time,
        reading a level only if the heap could still take a posting of
        it."""
        self.lookups += 1
        state = _HarvestState(heap, attribute_equals(self.attribute, value),
                              owns)
        # The oldest posting read so far, markers included: every posting
        # in a deeper level is older still.
        oldest = MAX_SEQUENCE
        levels = self.index_db.fragments_by_level(encode_attribute(value))
        try:
            for _level, entries in levels:
                self.levels_visited += 1
                postings: list[list] = []
                shadows_deeper = False
                for kind, _seq, payload in entries:
                    if kind != KIND_DELETE:
                        decoded = decode_posting_list(payload)
                        if decoded:
                            oldest = min(oldest,
                                         min(map(posting_seq, decoded)))
                        self._gather(b"", decoded, postings, state)
                    if kind != KIND_MERGE:
                        # A ``KIND_VALUE`` entry is a fully folded list
                        # (compaction reached a base) and a tombstone hides
                        # everything older: deeper levels hold only obsolete
                        # data for this key.
                        shadows_deeper = True
                        break
                self._harvest(postings, state)
                if shadows_deeper or early_termination and \
                        not heap.would_accept(oldest - 1):
                    break
        finally:
            levels.close()

    def entries(self) -> Iterator[tuple[bytes, bytes]]:
        # The scan folds each value's fragments with the posting merge
        # operator: a deletion marker cancels what it cancels in a LOOKUP.
        return live_postings(self.index_db)

    def _gather(self, index_key: bytes, decoded: list[list],
                postings: list[list], state: _HarvestState) -> None:
        """Collect one decoded fragment's live postings for the level's
        harvest.

        A deletion marker *cancels* older postings of the same primary key
        under the same index key; fragments only migrate downward, so in
        arrival order a marker always precedes what it cancels.
        """
        for posting in decoded:
            scope = (index_key, posting[0])
            if scope in state.cancelled:
                continue
            if len(posting) == 3:
                state.cancelled.add(scope)
            else:
                postings.append(posting)

    def _harvest(self, postings: list[list],
                 state: _HarvestState) -> None:
        """Validate one level's postings, newest first, in batches.

        ``ValidityChecker.harvest`` GETs only what the heap can still
        accept and stops at the first posting too old for it, so a level
        that can fill the heap costs K GETs whatever order its fragments
        arrived in; what it skips stays unresolved for deeper levels.
        """
        postings.sort(key=posting_seq, reverse=True)
        self.checker.harvest(
            ((posting[1], key_to_bytes(posting[0])) for posting in postings),
            state.predicate, state.heap, state.resolved, state.owns)

    def range_lookup_into(self, heap: TopKBySeq[LookupResult], low: bytes,
                          high: bytes, early_termination: bool,
                          owns: Owns | None) -> None:
        """Algorithm 6: a level-by-level range scan over the index table.

        "The original range iterator ... does not scan a key within the
        range in lower levels if it already exists in an upper level.  We
        force the iterator to scan level by level (same as LOOKUP)."
        ``early_termination`` stops at a level boundary once K results are
        held; because different attribute values compact at different
        times, this is the paper's behaviour but is only approximately
        top-K — pass ``False`` for an exhaustive (exact) scan.
        """
        state = _HarvestState(heap, attribute_in_range(
            self.attribute, low, high), owns)
        shadowed: set[bytes] = set()
        for level in [-1, *range(self.index_db.options.max_levels)]:
            self.levels_visited += 1
            postings: list[list] = []
            for ikey, payload in self.index_db.scan_level(level, low, high):
                if ikey.user_key in shadowed:
                    continue
                if ikey.kind != KIND_MERGE:
                    shadowed.add(ikey.user_key)
                    if ikey.kind == KIND_DELETE:
                        continue
                self._gather(ikey.user_key, decode_posting_list(payload),
                             postings, state)
            self._harvest(postings, state)
            if early_termination and heap.is_full:
                break
