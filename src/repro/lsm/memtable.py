"""The in-memory write buffer (LSM component C0).

Entries live in a skip list ordered by ``(user_key asc, seq desc)`` — the
internal-key order — so a forward walk within one user key visits versions
newest-first.  The MemTable never discards data; obsolete versions are
dropped later by compaction.

Memory accounting is approximate (key + value bytes plus a fixed per-node
overhead), which is how LevelDB decides when to flush as well.
"""

from __future__ import annotations

from typing import Iterator

from repro.lsm.keys import KIND_DELETE, KIND_MERGE, KIND_VALUE, MAX_SEQUENCE
from repro.lsm.skiplist import SkipList

_NODE_OVERHEAD = 64


class MemTableEntry:
    """One version of one user key held in memory."""

    __slots__ = ("user_key", "seq", "kind", "value")

    def __init__(self, user_key: bytes, seq: int, kind: int, value: bytes) -> None:
        self.user_key = user_key
        self.seq = seq
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemTableEntry({self.user_key!r}, seq={self.seq}, "
                f"kind={self.kind})")


class MemTable:
    """Skiplist-backed buffer of recent writes."""

    def __init__(self) -> None:
        self._list = SkipList()
        self._memory = 0
        self._min_seq: int | None = None
        self._max_seq: int | None = None
        self._sealed = False

    def __len__(self) -> int:
        return len(self._list)

    @property
    def approximate_memory_usage(self) -> int:
        return self._memory

    @property
    def min_seq(self) -> int | None:
        return self._min_seq

    @property
    def max_seq(self) -> int | None:
        return self._max_seq

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze this MemTable for the immutable flush handoff.

        A sealed MemTable rejects further inserts; readers keep working.
        The background pipeline (DESIGN.md §8) seals the active MemTable
        when it fills, hands it to the compactor thread, and swaps in a
        fresh one — sealing turns the single-writer skip list into
        read-only shared state that is safe to scan from any thread.
        """
        self._sealed = True

    def unseal(self) -> None:
        """Put a sealed MemTable back into service (its flush failed)."""
        self._sealed = False

    def add(self, seq: int, kind: int, user_key: bytes, value: bytes) -> None:
        """Insert one version.  ``value`` is ignored for deletions."""
        if self._sealed:
            raise RuntimeError("cannot add to a sealed MemTable")
        if kind not in (KIND_VALUE, KIND_DELETE, KIND_MERGE):
            raise ValueError(f"invalid kind: {kind}")
        entry = MemTableEntry(user_key, seq, kind, value)
        self._list.insert((user_key, MAX_SEQUENCE - seq), entry)
        self._memory += len(user_key) + len(value) + _NODE_OVERHEAD
        if self._min_seq is None or seq < self._min_seq:
            self._min_seq = seq
        if self._max_seq is None or seq > self._max_seq:
            self._max_seq = seq

    def versions(self, user_key: bytes,
                 max_seq: int = MAX_SEQUENCE) -> Iterator[MemTableEntry]:
        """Versions of ``user_key`` with ``seq <= max_seq``, newest first."""
        start = (user_key, MAX_SEQUENCE - max_seq)
        for (key, _inv_seq), entry in self._list.items_from(start):
            if key != user_key:
                return
            yield entry

    def get(self, user_key: bytes,
            max_seq: int = MAX_SEQUENCE) -> MemTableEntry | None:
        """Newest visible version of ``user_key``, or ``None`` if absent.

        A returned entry may be a tombstone or a merge operand; callers
        interpret ``entry.kind``.
        """
        for entry in self.versions(user_key, max_seq):
            return entry
        return None

    def __iter__(self) -> Iterator[MemTableEntry]:
        """All entries in internal-key order (user key asc, seq desc)."""
        for _key, entry in self._list:
            yield entry

    def is_empty(self) -> bool:
        return len(self._list) == 0
