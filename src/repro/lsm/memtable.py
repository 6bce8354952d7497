"""The in-memory write buffer (LSM component C0).

Entries are kept per user key: a dict maps each key to its versions
(oldest first), and a grow-only sorted list holds the distinct keys, so a
walk in internal-key order ``(user_key asc, seq desc)`` visits the keys in
order and each key's versions newest-first.  The MemTable never discards
data; obsolete versions are dropped later by compaction.

One writer, any number of lock-free readers: a reader sees each version
list either before or after an insert, never half-way, because CPython's
dict stores, ``list.append`` / ``list.insert`` and ``bisect`` are atomic, a
key reaches the dict before its slot in the key list, and an out-of-order
version replaces its key's list whole instead of editing it in place.

A MemTable built with indexed attributes (the primary table of an
Embedded index) also holds the memory half of that index, the paper's
"in-memory B-tree on the secondary attribute(s)" (Section 3): each VALUE
entry's column slots (:func:`column_slots`, one per attribute) are
worked out once — by ``DB.write`` before the writer queues, or here at
insert when a WAL replays — and kept on the entry for the flush to
write; per attribute, a dict maps each encoded value to its
``(seq, user_key)`` postings and a grow-only sorted list holds the values.
The same discipline covers them: a value reaches the dict before its slot
in the value list, and a range read that saw the list grow reads it again.
The postings leave with the MemTable when its flush installs.

Memory accounting is approximate (key + value bytes plus a fixed per-entry
overhead), which is how LevelDB decides when to flush as well.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Callable, Iterator

from repro.lsm.keys import KIND_DELETE, KIND_MERGE, KIND_VALUE, MAX_SEQUENCE
from repro.lsm.zonemap import column_entry

_NODE_OVERHEAD = 64


def column_slots(attributes: tuple[str, ...],
                 extractor: Callable[[bytes], dict], kind: int,
                 value: bytes) -> tuple[bytes, ...]:
    """An entry's column slots, one per attribute
    (:func:`~repro.lsm.zonemap.column_entry`); raises ``TypeError`` for a
    VALUE whose attribute no encoding holds (a list, an object)."""
    document = extractor(value) if kind == KIND_VALUE else None
    return tuple([column_entry(document, attr) for attr in attributes])


class MemTableEntry:
    """One version of one user key held in memory."""

    __slots__ = ("user_key", "seq", "kind", "value", "slots")

    def __init__(self, user_key: bytes, seq: int, kind: int, value: bytes,
                 slots: tuple[bytes, ...] | None = None) -> None:
        self.user_key = user_key
        self.seq = seq
        self.kind = kind
        self.value = value
        #: Column slots, one per indexed attribute (``None``: none kept).
        self.slots = slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemTableEntry({self.user_key!r}, seq={self.seq}, "
                f"kind={self.kind})")


class MemTable:
    """Buffer of recent writes, ordered by internal key.

    ``attributes`` and ``extractor`` are the table's
    ``Options.indexed_attributes`` and ``attribute_extractor``; with no
    attributes the MemTable keeps no slots and no postings.
    """

    def __init__(self, attributes: tuple[str, ...] = (),
                 extractor: Callable[[bytes], dict] | None = None) -> None:
        #: user key -> its versions, oldest first.
        self._versions: dict[bytes, list[MemTableEntry]] = {}
        #: The keys of ``_versions``, sorted; only ever inserted into.
        self._keys: list[bytes] = []
        self._size = 0
        #: Bytes held, roughly: keys, values and a per-version overhead.
        self.approximate_memory_usage = 0
        self._min_seq: int | None = None
        self._max_seq: int | None = None
        self._sealed = False
        self._attributes = tuple(attributes)
        self._extractor = extractor
        #: Per attribute: encoded value -> its postings, in insertion order.
        self._postings: dict[str, dict[bytes, list[tuple[int, bytes]]]] = {
            attr: {} for attr in self._attributes}
        #: Per attribute: the keys of its postings dict, sorted.
        self._values: dict[str, list[bytes]] = {
            attr: [] for attr in self._attributes}

    def __len__(self) -> int:
        return self._size

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
        """Freeze this MemTable for its flush (DESIGN.md §8): a sealed
        MemTable rejects further inserts; readers keep working."""
        self._sealed = True

    def unseal(self) -> None:
        """Put a sealed MemTable back into service (its flush failed)."""
        self._sealed = False

    def add(self, seq: int, kind: int, user_key: bytes, value: bytes,
            slots: tuple[bytes, ...] | None = None) -> None:
        """Insert one version.  ``value`` is ignored for deletions.
        ``slots`` are the entry's :func:`column_slots`, if the caller has
        worked them out already.

        Raises ``KeyError`` if ``user_key`` already has a version ``seq``.
        """
        if self._sealed:
            raise RuntimeError("cannot add to a sealed MemTable")
        if kind not in (KIND_VALUE, KIND_DELETE, KIND_MERGE):
            raise ValueError(f"invalid kind: {kind}")
        if slots is None and self._attributes:
            slots = column_slots(self._attributes, self._extractor, kind,
                                 value)
        entry = MemTableEntry(user_key, seq, kind, value, slots)
        versions = self._versions.get(user_key)
        if versions is None:
            self._versions[user_key] = [entry]
            insort(self._keys, user_key)
        elif versions[-1].seq < seq:
            versions.append(entry)
        else:
            at = bisect_left(versions, seq, key=attrgetter("seq"))
            if at < len(versions) and versions[at].seq == seq:
                raise KeyError(f"duplicate memtable key: {user_key!r}@{seq}")
            self._versions[user_key] = versions[:at] + [entry] + versions[at:]
        self._size += 1
        self.approximate_memory_usage += \
            len(user_key) + len(value) + _NODE_OVERHEAD
        if self._min_seq is None or seq < self._min_seq:
            self._min_seq = seq
        if self._max_seq is None or seq > self._max_seq:
            self._max_seq = seq
        if slots is not None:
            for attr, encoded in zip(self._attributes, slots):
                if not encoded:
                    continue
                postings = self._postings[attr]
                found = postings.get(encoded)
                if found is None:
                    postings[encoded] = [(seq, user_key)]
                    insort(self._values[attr], encoded)
                else:
                    found.append((seq, user_key))

    def postings(self, attribute: str, low: bytes,
                 high: bytes) -> list[tuple[int, bytes]]:
        """``(seq, user_key)`` of every VALUE entry whose encoded
        ``attribute`` lies in ``[low, high]``, whatever its sequence:
        the caller checks each against the versions it may see."""
        postings = self._postings[attribute]
        if low == high:
            return list(postings.get(low, ()))
        values = self._values[attribute]
        while True:
            seen = len(values)
            hits = values[bisect_left(values, low):bisect_right(values, high)]
            if len(values) == seen:  # no value went in under the bisects
                break
        return [posting for value in hits for posting in postings[value]]

    def versions(self, user_key: bytes,
                 max_seq: int = MAX_SEQUENCE) -> Iterator[MemTableEntry]:
        """Versions of ``user_key`` with ``seq <= max_seq``, newest first."""
        for entry in reversed(self._versions.get(user_key, ())):
            if entry.seq <= max_seq:
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

    def entries_from(self, lo: bytes = b"") -> Iterator[MemTableEntry]:
        """Entries whose user key is ``>= lo``, in internal-key order.

        Safe against the writer: a key inserted in front of the walk's
        position shifts the keys already visited back under it, so each
        step skips keys it has passed and the walk stays strictly
        increasing.
        """
        keys, versions = self._keys, self._versions
        index = bisect_left(keys, lo)
        last = None
        while index < len(keys):
            key = keys[index]
            index += 1
            if last is not None and key <= last:
                continue
            last = key
            yield from reversed(versions[key])

    def __iter__(self) -> Iterator[MemTableEntry]:
        """All entries in internal-key order (user key asc, seq desc)."""
        return self.entries_from()

    def is_empty(self) -> bool:
        return self._size == 0
