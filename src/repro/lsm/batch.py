"""What one WAL record holds: a :class:`WriteBatch`, or the directory of
the tables that log through that WAL (docs/FORMAT.md §3.1)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.lsm.keys import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_VALUE,
    decode_length_prefixed,
    decode_varint,
    encode_length_prefixed,
    encode_varint,
)

if TYPE_CHECKING:
    from repro.lsm.db import DB

#: A WAL batch op whose kind byte has this bit set belongs to another table
#: logging through the same WAL; that table's log id (a varint) follows.
_TABLE_FLAG = 0x80


class WriteBatch:
    """An atomic group of writes, applied under consecutive sequence numbers.

    ``table`` names a WAL-less table (:meth:`DB.open_table`) attached to the
    DB that commits the batch; ``None`` is that DB itself, so one batch can
    commit a primary record and its index entries together.  Each table's
    ops take consecutive sequence numbers from the batch's first, so a PUT
    and its index entries share one.  A value may be a function of that
    first sequence number: the commit calls it once (:meth:`stamp`), which
    is how an index entry stores the sequence of the record it indexes.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[int, bytes, Any, Any]] = []
        #: The WAL-less tables the ops name, in first-use order, and how
        #: many ops each.
        self.tables: dict[DB, int] = {}
        self._own = 0   # ops of the writing DB itself
        self._span = 0  # the most ops any one table receives
        self._deferred = False
        #: Each op's column slots, or ``None`` (see :meth:`DB.write`).
        self.slots: list[tuple[bytes, ...] | None] | None = None

    def _add(self, kind: int, key: bytes, value, table) -> "WriteBatch":
        self.ops.append((kind, key, value, table))
        if table is None:
            self._own = count = self._own + 1
        else:
            self.tables[table] = count = self.tables.get(table, 0) + 1
        if count > self._span:
            self._span = count
        if callable(value):
            self._deferred = True
        return self

    def put(self, key: bytes, value, table: "DB | None" = None
            ) -> "WriteBatch":
        return self._add(KIND_VALUE, key, value, table)

    def delete(self, key: bytes, table: "DB | None" = None) -> "WriteBatch":
        return self._add(KIND_DELETE, key, b"", table)

    def merge(self, key: bytes, operand, table: "DB | None" = None
              ) -> "WriteBatch":
        return self._add(KIND_MERGE, key, operand, table)

    def __len__(self) -> int:
        return len(self.ops)

    def span(self) -> int:
        """How many sequence numbers the batch takes: the most ops any one
        table receives."""
        return self._span

    @staticmethod
    def sequences(start_seq: int, tables: Iterable) -> Iterator[int]:
        """The sequence of each op whose table is the matching item of
        ``tables`` (``None``, a DB or a log id): each table counts on from
        ``start_seq`` by itself."""
        taken: dict = {}
        for table in tables:
            offset = taken.get(table, 0)
            taken[table] = offset + 1
            yield start_seq + offset

    def retarget(self, tables: Mapping) -> "WriteBatch":
        """This batch with the ops naming a key of ``tables`` (``None`` or
        a DB) naming its value instead."""
        routed = WriteBatch()
        for kind, key, value, table in self.ops:
            routed._add(kind, key, value, tables.get(table, table))
        return routed

    def stamp(self, seq: int) -> None:
        """Replace every value that is a function by its value at ``seq``."""
        if self._deferred:
            self.ops = [(kind, key, value(seq) if callable(value) else value,
                         table) for kind, key, value, table in self.ops]
            self._deferred = False

    def encode(self, start_seq: int) -> bytes:
        out = bytearray(encode_varint(start_seq))
        out += encode_varint(len(self.ops))
        # Length prefixes are appended directly (not via
        # encode_length_prefixed) to skip one intermediate bytes object
        # per field — this runs once per write batch on the WAL path.
        for kind, key, value, table in self.ops:
            if table is None:
                out.append(kind)
            else:
                out.append(kind | _TABLE_FLAG)
                out += encode_varint(table._log_id)
            out += encode_varint(len(key))
            out += key
            out += encode_varint(len(value))
            out += value
        return bytes(out)

    @classmethod
    def decode(cls, payload: bytes) -> tuple["WriteBatch", int]:
        """The batch and its first sequence; an op of another table names
        it by log id (see :func:`decode_table_directory`)."""
        start_seq, pos = decode_varint(payload, 0)
        count, pos = decode_varint(payload, pos)
        batch = cls()
        for _ in range(count):
            kind = payload[pos]
            pos += 1
            table = None
            if kind & _TABLE_FLAG:
                kind &= ~_TABLE_FLAG
                table, pos = decode_varint(payload, pos)
            key, pos = decode_length_prefixed(payload, pos)
            value, pos = decode_length_prefixed(payload, pos)
            batch._add(kind, key, value, table)
        return batch, start_seq


def encode_table_directory(labels: list[str]) -> bytes:
    """The WAL record naming the tables that log through it, log id 1 first.

    A batch never starts at sequence 0, so the leading ``varint(0)`` tells
    this record apart (docs/FORMAT.md §3.1).
    """
    out = bytearray(encode_varint(0))
    out += encode_varint(len(labels))
    for label in labels:
        out += encode_length_prefixed(label.encode("utf-8"))
    return bytes(out)


def is_table_directory(payload: bytes) -> bool:
    return payload[:1] == b"\x00"


def decode_table_directory(payload: bytes) -> list[str]:
    """Inverse of :func:`encode_table_directory`."""
    count, pos = decode_varint(payload, 1)
    labels = []
    for _ in range(count):
        label, pos = decode_length_prefixed(payload, pos)
        labels.append(label.decode("utf-8"))
    return labels


def table_label(name: str) -> str:
    """How a shared WAL names a table: the last part of its name, so a
    store copied under another name still routes its records."""
    return name.rsplit("/", 1)[-1]
