"""Top-K selection by recency — the paper's Algorithm 1.

A min-heap ordered by sequence number keeps the K most recent items seen so
far: a new item replaces the root when it is newer, exactly as
``Min-Heap H.Add(K, <k, v>)`` does in the paper.  ``k=None`` disables the
bound ("no limit on top-k").
"""

from __future__ import annotations

import heapq
from typing import Generic, TypeVar

from repro.lsm.errors import InvalidArgumentError

T = TypeVar("T")


class TopKBySeq(Generic[T]):
    """Keep the ``k`` items with the largest sequence numbers."""

    def __init__(self, k: int | None) -> None:
        if k is not None and (type(k) is not int or k < 1):  # bool is not a k
            raise InvalidArgumentError(
                f"k must be a positive int or None, got {k!r}")
        self.k = k
        self._heap: list[tuple[int, int, T]] = []
        self._tiebreak = 0  # makes heap entries totally ordered

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return self.k is not None and len(self._heap) >= self.k

    def min_seq(self) -> int | None:
        """Sequence of the oldest retained item (the heap root)."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def would_accept(self, seq: int) -> bool:
        """Whether :meth:`add` with this ``seq`` would change the heap.

        Lets callers skip an expensive validity check (a data-table GET)
        for items that are too old to matter — the same short-circuit the
        paper's Algorithm 1 enables.
        """
        heap = self._heap  # k >= 1, so a full heap has a root
        return self.k is None or len(heap) < self.k or seq > heap[0][0]

    def add(self, seq: int, item: T) -> bool:
        """Offer an item; returns True if it was retained."""
        self._tiebreak += 1
        entry = (seq, self._tiebreak, item)
        if self.k is None or len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if self._heap[0][0] < seq:
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def results(self) -> list[T]:
        """Retained items, newest first."""
        ordered = sorted(self._heap, key=lambda e: (-e[0], -e[1]))
        return [item for _seq, _tie, item in ordered]
