"""Zone maps: per-block and per-file min/max filters on attribute values.

A zone map stores the minimum and maximum value of an attribute within a
zone (here: one SSTable data block — derived from the block's attribute
column, :func:`column_entry` per entry — or one whole SSTable file).  A
query for value ``a`` (or range ``[a, b]``) can skip every zone whose
``[min, max]`` interval does not intersect the query — which, as the paper
shows, prunes almost everything when the attribute is *time-correlated* and
almost nothing otherwise (Section 3, Figures 10-11).

Attribute values in the paper's data model are JSON scalars.  To make zone
maps (and the Composite index's key order) well defined across types, values
are mapped to an *order-preserving byte encoding*: integers order among
themselves, strings among themselves, and all integers sort before all
strings.  Floats are folded into the integer family via IEEE-754 total
ordering so mixed numeric columns behave sensibly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterable

from repro.lsm.keys import decode_length_prefixed, encode_length_prefixed
from repro.lsm.options import resolve_attribute_path

_TAG_NUMBER = b"n"
_TAG_STRING = b"s"

_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")


def encode_attribute(value: Any) -> bytes:
    """Order-preserving byte encoding of a secondary attribute value.

    * ``int``/``float`` -> ``b"n"`` + 8 bytes (sign-flipped IEEE-754, so
      byte order equals numeric order, including negatives).
    * ``str`` -> ``b"s"`` + UTF-8 (byte order equals code-point order).
    * ``bytes`` are passed through under the string tag.
    """
    if isinstance(value, bool):
        # bool is an int subclass; keep it in the numeric family explicitly.
        value = int(value)
    if isinstance(value, (int, float)):
        # "+ 0.0" folds -0.0 into 0.0: equal numbers must encode equally.
        bits = _U64.unpack(_F64.pack(float(value) + 0.0))[0]
        if bits & (1 << 63):
            bits ^= 0xFFFFFFFFFFFFFFFF  # negative: flip all bits
        else:
            bits ^= 1 << 63  # non-negative: flip sign bit
        return _TAG_NUMBER + _U64.pack(bits)
    if isinstance(value, str):
        return _TAG_STRING + value.encode("utf-8")
    if isinstance(value, bytes):
        return _TAG_STRING + value
    raise TypeError(
        f"secondary attribute values must be int, float, str or bytes; "
        f"got {type(value).__name__}")


def decode_attribute(encoded: bytes) -> Any:
    """Inverse of :func:`encode_attribute` (numbers decode as ``float``)."""
    if not encoded:
        raise ValueError("empty encoded attribute")
    tag, payload = encoded[:1], encoded[1:]
    if tag == _TAG_NUMBER:
        bits = _U64.unpack(payload)[0]
        if bits & (1 << 63):
            bits ^= 1 << 63
        else:
            bits ^= 0xFFFFFFFFFFFFFFFF
        return _F64.unpack(_U64.pack(bits))[0]
    if tag == _TAG_STRING:
        return payload.decode("utf-8")
    raise ValueError(f"unknown attribute tag: {tag!r}")


def column_entry(document: dict[str, Any] | None, attribute: str) -> bytes:
    """One entry's slot in a block's attribute column: the encoded value of
    ``attribute`` in ``document`` (the extractor's dict of a VALUE entry),
    or ``b""`` — which no encoding produces — when the entry is not a VALUE
    (``document is None``) or lacks the attribute."""
    if document is None:
        return b""
    value = resolve_attribute_path(document, attribute)
    return b"" if value is None else encode_attribute(value)


@dataclass(frozen=True)
class ZoneMap:
    """Closed interval ``[min_value, max_value]`` of encoded attribute values.

    An *empty* zone map (both bounds ``None``) matches nothing: it arises
    for blocks in which no entry carries the attribute.
    """

    min_value: bytes | None = None
    max_value: bytes | None = None

    @property
    def is_empty(self) -> bool:
        return self.min_value is None

    @classmethod
    def of_column(cls, column: Iterable[bytes]) -> "ZoneMap":
        """The zone of an attribute column (its non-empty slots)."""
        present = [encoded for encoded in column if encoded]
        return cls(min(present), max(present)) if present else cls()

    def contains(self, encoded: bytes) -> bool:
        """Might a value equal to ``encoded`` lie in this zone?"""
        if self.is_empty:
            return False
        assert self.min_value is not None and self.max_value is not None
        return self.min_value <= encoded <= self.max_value

    def overlaps(self, low: bytes, high: bytes) -> bool:
        """Might any value in ``[low, high]`` lie in this zone?"""
        if self.is_empty:
            return False
        assert self.min_value is not None and self.max_value is not None
        return self.min_value <= high and low <= self.max_value

    def encode(self) -> bytes:
        if self.is_empty:
            return b"\x00"
        assert self.min_value is not None and self.max_value is not None
        return (b"\x01"
                + encode_length_prefixed(self.min_value)
                + encode_length_prefixed(self.max_value))

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["ZoneMap", int]:
        if offset >= len(data):
            raise ValueError("truncated zone map")
        marker = data[offset]
        offset += 1
        if marker == 0:
            return cls(), offset
        min_value, offset = decode_length_prefixed(data, offset)
        max_value, offset = decode_length_prefixed(data, offset)
        return cls(min_value, max_value), offset


class ZoneMapBuilder:
    """Accumulates encoded attribute values and emits a :class:`ZoneMap`."""

    def __init__(self) -> None:
        self._min: bytes | None = None
        self._max: bytes | None = None

    def add(self, encoded: bytes) -> None:
        if self._min is None or encoded < self._min:
            self._min = encoded
        if self._max is None or encoded > self._max:
            self._max = encoded

    def merge(self, other: ZoneMap) -> None:
        if other.is_empty:
            return
        assert other.min_value is not None and other.max_value is not None
        self.add(other.min_value)
        self.add(other.max_value)

    @property
    def is_empty(self) -> bool:
        return self._min is None

    def finish(self) -> ZoneMap:
        if self._min is None:
            return ZoneMap()
        return ZoneMap(self._min, self._max)
