"""The Embedded index's view of the MemTable, keyed by attribute value.

Section 3 of the paper: "For lookup in the MemTable, we maintain an
in-memory B-tree on the secondary attribute(s)."  This is that structure,
as an ordered map on builtins: a dict from encoded attribute value to the
postings ``(seq, primary_key)`` currently buffered in the MemTable, plus
the sorted list of those values for range queries.  It answers point and
range queries and expires postings once their entries are flushed into
SSTables (where the embedded bloom filters and zone maps take over).

Nothing is deleted one posting at a time: a flush expires postings by
keeping the survivors (the postings of a MemTable still being written —
few or none), so the map stays bounded by the MemTable budget.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort

Posting = tuple[int, bytes]


def _newest_first(postings: list[Posting]) -> list[Posting]:
    return sorted(postings, key=lambda p: -p[0])


class MemTableAttributeIndex:
    """Ordered map over the MemTable's secondary-attribute postings."""

    def __init__(self) -> None:
        #: encoded value -> its postings, in insertion order.
        self._postings: dict[bytes, list[Posting]] = {}
        #: The keys of ``_postings``, sorted.
        self._values: list[bytes] = []
        self._count = 0
        # The flush listener expires postings on the engine's maintenance
        # thread while the caller's thread inserts and queries.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of live postings (not distinct values)."""
        return self._count

    def insert(self, encoded_value: bytes, seq: int, primary_key: bytes) -> None:
        """Record that ``primary_key`` carried ``encoded_value`` at ``seq``."""
        with self._lock:
            postings = self._postings.get(encoded_value)
            if postings is None:
                postings = self._postings[encoded_value] = []
                insort(self._values, encoded_value)
            postings.append((seq, primary_key))
            self._count += 1

    def get(self, encoded_value: bytes) -> list[Posting]:
        """Postings for one attribute value, newest first."""
        with self._lock:
            return _newest_first(self._postings.get(encoded_value, []))

    def range(self, low: bytes, high: bytes
              ) -> list[tuple[bytes, list[Posting]]]:
        """All ``(encoded_value, postings)`` with ``low <= value <= high``."""
        with self._lock:
            values = self._values
            return [(value, _newest_first(self._postings[value]))
                    for value in values[bisect_left(values, low):
                                        bisect_right(values, high)]]

    def expire_up_to(self, flushed_max_seq: int) -> int:
        """Drop postings with ``seq <= flushed_max_seq``; returns the count.

        Called from the primary table's flush listener: once entries are in
        SSTables, the embedded per-block structures answer for them.
        """
        with self._lock:
            kept: dict[bytes, list[Posting]] = {}
            for value, postings in self._postings.items():
                survivors = [p for p in postings if p[0] > flushed_max_seq]
                if survivors:
                    kept[value] = survivors
            count = sum(map(len, kept.values()))
            expired = self._count - count
            if expired:
                self._postings, self._values = kept, sorted(kept)
                self._count = count
        return expired
