"""An in-memory B-tree keyed by encoded attribute values.

Section 3 of the paper: "For lookup in the MemTable, we maintain an
in-memory B-tree on the secondary attribute(s)."  This is that structure.
It maps an encoded attribute value to the postings ``(seq, primary_key)``
currently buffered in the MemTable, supports point and range queries, and
expires postings once their entries are flushed into SSTables (where the
embedded bloom filters and zone maps take over).

The tree is a classic order-``m`` B-tree with node splitting on insert.
Nothing is ever deleted from it: a flush expires postings by rebuilding the
tree from the survivors (the postings of a MemTable still being written —
few or none), so the structure stays bounded by the MemTable budget and
rebalance complexity buys nothing here.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

_ORDER = 32  # max keys per node


class _Node:
    __slots__ = ("keys", "values", "children")

    def __init__(self, leaf: bool) -> None:
        self.keys: list[bytes] = []
        self.values: list[list[tuple[int, bytes]]] = []
        self.children: list[_Node] | None = None if leaf else []

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class MemTableAttributeIndex:
    """B-tree over the MemTable's secondary-attribute postings."""

    def __init__(self) -> None:
        self._root = _Node(leaf=True)
        #: Every live posting, ``(encoded_value, seq, primary_key)``: what
        #: a flush expiry rebuilds the tree from.
        self._postings: list[tuple[bytes, int, bytes]] = []
        # The flush listener expires postings on the engine's maintenance
        # thread while the caller's thread inserts and queries.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of live postings (not distinct keys)."""
        return len(self._postings)

    # -- insertion ----------------------------------------------------------

    def insert(self, encoded_value: bytes, seq: int, primary_key: bytes) -> None:
        """Record that ``primary_key`` carried ``encoded_value`` at ``seq``."""
        with self._lock:
            self._insert_locked(encoded_value, seq, primary_key)

    def _insert_locked(self, encoded_value: bytes, seq: int,
                       primary_key: bytes) -> None:
        root = self._root
        if len(root.keys) >= _ORDER:
            new_root = _Node(leaf=False)
            assert new_root.children is not None
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, encoded_value, seq, primary_key)
        self._postings.append((encoded_value, seq, primary_key))

    def _split_child(self, parent: _Node, index: int) -> None:
        assert parent.children is not None
        child = parent.children[index]
        mid = len(child.keys) // 2
        sibling = _Node(leaf=child.is_leaf)
        sibling.keys = child.keys[mid + 1:]
        sibling.values = child.values[mid + 1:]
        if not child.is_leaf:
            assert child.children is not None and sibling.children is not None
            sibling.children = child.children[mid + 1:]
            child.children = child.children[:mid + 1]
        parent.keys.insert(index, child.keys[mid])
        parent.values.insert(index, child.values[mid])
        parent.children.insert(index + 1, sibling)
        child.keys = child.keys[:mid]
        child.values = child.values[:mid]

    def _insert_nonfull(self, node: _Node, key: bytes, seq: int,
                        primary_key: bytes) -> None:
        while True:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append((seq, primary_key))
                return
            if node.is_leaf:
                node.keys.insert(index, key)
                node.values.insert(index, [(seq, primary_key)])
                return
            assert node.children is not None
            child = node.children[index]
            if len(child.keys) >= _ORDER:
                self._split_child(node, index)
                if key == node.keys[index]:
                    node.values[index].append((seq, primary_key))
                    return
                if key > node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child

    # -- queries ----------------------------------------------------------------

    def get(self, encoded_value: bytes) -> list[tuple[int, bytes]]:
        """Postings for one attribute value, newest first."""
        with self._lock:
            node = self._root
            while True:
                index = bisect.bisect_left(node.keys, encoded_value)
                if index < len(node.keys) and \
                        node.keys[index] == encoded_value:
                    return sorted(node.values[index], key=lambda p: -p[0])
                if node.is_leaf:
                    return []
                assert node.children is not None
                node = node.children[index]

    def range(self, low: bytes, high: bytes
              ) -> list[tuple[bytes, list[tuple[int, bytes]]]]:
        """All ``(encoded_value, postings)`` with ``low <= value <= high``."""
        with self._lock:
            return list(self._range_walk(self._root, low, high))

    def _range_walk(self, node: _Node, low: bytes, high: bytes
                    ) -> Iterator[tuple[bytes, list[tuple[int, bytes]]]]:
        start = bisect.bisect_left(node.keys, low)
        for index in range(start, len(node.keys) + 1):
            if not node.is_leaf:
                assert node.children is not None
                yield from self._range_walk(node.children[index], low, high)
            if index < len(node.keys):
                key = node.keys[index]
                if key > high:
                    return
                if key >= low and node.values[index]:
                    yield key, sorted(node.values[index], key=lambda p: -p[0])

    # -- flush expiry -------------------------------------------------------------

    def expire_up_to(self, flushed_max_seq: int) -> int:
        """Drop postings with ``seq <= flushed_max_seq``; returns the count.

        Called from the primary table's flush listener: once entries are in
        SSTables, the embedded per-block structures answer for them.
        """
        with self._lock:
            survivors = [posting for posting in self._postings
                         if posting[1] > flushed_max_seq]
            expired = len(self._postings) - len(survivors)
            if expired:
                self._root, self._postings = _Node(leaf=True), []
                for posting in survivors:
                    self._insert_locked(*posting)
        return expired
