"""SSTable data blocks: prefix-compressed sorted runs of entries.

The format is LevelDB's.  Each entry stores the length of the prefix it
shares with the previous key, the remaining key bytes, and the value::

    shared (varint) | non_shared (varint) | value_len (varint)
    key_delta (non_shared bytes) | value (value_len bytes)

Every ``restart_interval`` entries the full key is written and its offset is
appended to the *restart array* at the block's tail, enabling binary search::

    restart[0] .. restart[n-1] (uint32 LE each) | num_restarts (uint32 LE)

Keys are encoded internal keys; ordering uses the internal-key comparator
(user key ascending, sequence number descending).

Read-side strategy.  A block read once (the block cache off, or its first
read) is searched **one-shot**, LevelDB's way: bisect the restart array,
then decode forward from the chosen restart point, memoizing nothing.  A
block the block cache serves a second time becomes **searchable**: one
decode pass builds compact *search arrays* — the user keys, an ``array``
of tags and an ``array`` of value bounds into the block's bytes — and
every later seek is a bisect over them.  A scan decodes every entry in
one pass over the varint stream (a tight inline loop rather than one
function call per field) and memoizes its sort keys and values, so a
cached block re-scanned pays the walk once.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from typing import Iterator

from repro.lsm.errors import CorruptionError
from repro.lsm.keys import (
    encode_varint,
    internal_sort_key,
)

_U32 = struct.Struct("<I")
_TRAILER = struct.Struct(">Q")
_HEADER3 = struct.Struct("BBB")
_HEADER4 = struct.Struct("BBBB")
DEFAULT_RESTART_INTERVAL = 16


class BlockBuilder:
    """Accumulates sorted ``(internal_key, value)`` pairs into a block."""

    def __init__(self, restart_interval: int = DEFAULT_RESTART_INTERVAL) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts: list[int] = [0]
        self._counter = 0
        self._last_key = b""
        self._last_sort_key: tuple[bytes, int] | None = None
        self._num_entries = 0

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def is_empty(self) -> bool:
        return self._num_entries == 0

    def current_size_estimate(self) -> int:
        return len(self._buffer) + 4 * len(self._restarts) + 4

    def add(self, key: bytes, value: bytes,
            sort_key: tuple[bytes, int] | None = None) -> int:
        """Append an entry and return :meth:`current_size_estimate`.  Keys
        must arrive in strictly increasing order.

        ``sort_key`` is ``internal_sort_key(key)`` from a caller that holds
        the key decoded already.
        """
        if sort_key is None:
            sort_key = internal_sort_key(key)
        if self._last_sort_key is not None and sort_key <= self._last_sort_key:
            raise ValueError("block keys must be added in increasing order")
        self._last_sort_key = sort_key
        buffer = self._buffer
        if self._counter < self.restart_interval:
            shared = _shared_prefix_length(self._last_key, key)
        else:
            shared = 0
            self._restarts.append(len(buffer))
            self._counter = 0
        non_shared = len(key) - shared
        value_len = len(value)
        # The header's three varints, packed at once when the key lengths
        # take one byte each and the value length one or two.
        if shared | non_shared | value_len < 0x80:
            buffer += _HEADER3.pack(shared, non_shared, value_len)
        elif shared | non_shared < 0x80 and value_len < 0x4000:
            buffer += _HEADER4.pack(shared, non_shared,
                                    value_len & 0x7F | 0x80, value_len >> 7)
        else:
            buffer += encode_varint(shared)
            buffer += encode_varint(non_shared)
            buffer += encode_varint(value_len)
        buffer += key[shared:]
        buffer += value
        self._last_key = key
        self._counter += 1
        self._num_entries += 1
        return len(buffer) + 4 * len(self._restarts) + 4

    def finish(self) -> bytes:
        out = bytes(self._buffer)
        tail = bytearray()
        for restart in self._restarts:
            tail += _U32.pack(restart)
        tail += _U32.pack(len(self._restarts))
        return out + bytes(tail)

    def reset(self) -> None:
        self._buffer.clear()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._last_sort_key = None
        self._num_entries = 0


def _shared_prefix_length(a: bytes, b: bytes) -> int:
    """Length of the common prefix of ``a`` and ``b``: the first differing
    byte is the highest set byte of their big-endian XOR (over the shorter
    length; keys of one length, the common case, are not sliced)."""
    limit = len(a)
    if limit > len(b):
        limit = len(b)
        a = a[:limit]
    elif limit < len(b):
        b = b[:limit]
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return limit - (diff.bit_length() + 7) // 8


class Block:
    """Read-side view of a finished block.

    Shared between threads once it sits in the block cache: each memo
    (``_sorted`` for scans, ``_search`` for seeks) is built whole and
    published by one attribute store, so a reader sees it complete or
    not at all.
    """

    __slots__ = ("_data", "_restarts", "_entries_end", "_sorted", "_search")

    def __init__(self, data: bytes) -> None:
        if len(data) < 4:
            raise CorruptionError("block too small for restart count")
        self._data = data
        num_restarts = _U32.unpack_from(data, len(data) - 4)[0]
        restart_end = len(data) - 4
        restart_start = restart_end - 4 * num_restarts
        if restart_start < 0:
            raise CorruptionError("restart array overflows block")
        self._restarts = struct.unpack_from(f"<{num_restarts}I", data,
                                            restart_start)
        self._entries_end = restart_start
        self._sorted: tuple[list, list] | None = None  # sort keys, values
        self._search: tuple[list, array, array] | None = None

    def _parse_all(self, bounds: array | None = None
                   ) -> tuple[list[bytes], list[bytes]]:
        """Every entry's encoded key and value, index-aligned — or, given
        ``bounds``, no values: each value's ``[start, end)`` in the
        block's bytes is appended to ``bounds`` instead.

        One pass, varints decoded inline: on a typical block this replaces
        three ``decode_varint`` calls plus a ``_decode_entry`` frame per
        entry with straight-line bytecode.  Nothing is memoized.
        """
        data = self._data
        end = self._entries_end
        keys: list[bytes] = []
        values: list[bytes] = []
        append_key = keys.append
        append_value = values.append
        previous = b""
        pos = 0
        try:
            while pos < end:
                # varint: shared prefix length
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    shared = byte
                else:
                    shared = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        shared |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                # varint: non-shared key bytes
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    non_shared = byte
                else:
                    non_shared = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        non_shared |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                # varint: value length
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    value_len = byte
                else:
                    value_len = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        value_len |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                key_end = pos + non_shared
                value_end = key_end + value_len
                if value_end > end:
                    raise CorruptionError("block entry overflows entry region")
                if shared:
                    if shared > len(previous):
                        raise CorruptionError(
                            "block entry shares more than previous key")
                    previous = previous[:shared] + data[pos:key_end]
                else:
                    previous = data[pos:key_end]
                append_key(previous)
                if bounds is None:
                    append_value(data[key_end:value_end])
                else:
                    bounds.append(key_end)
                    bounds.append(value_end)
                pos = value_end
        except IndexError as exc:
            raise CorruptionError(
                "bad block entry header: truncated varint") from exc
        return keys, values

    def _materialize_sort_keys(self
                               ) -> tuple[list[tuple[bytes, int]], list[bytes]]:
        """Sort keys and values, index-aligned: the scan memo (built once)."""
        memo = self._sorted
        if memo is None:
            keys, values = self._parse_all()
            # internal_sort_key, inlined into the listcomp: one C-level
            # loop, no per-entry Python frame.
            unpack_from = _TRAILER.unpack_from
            try:
                sort_keys = [(key[:-8], -unpack_from(key, len(key) - 8)[0])
                             for key in keys]
            except struct.error as exc:
                # A decoded key shorter than its 8-byte trailer: garbage
                # that slipped past a skipped CRC (paranoid_checks off).
                raise CorruptionError(
                    "block entry key shorter than trailer") from exc
            memo = self._sorted = (sort_keys, values)
        return memo

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return zip(*self._parse_all())

    def arrays(self) -> tuple[list[bytes], list[bytes]]:
        """Encoded keys and values, index-aligned: what iteration yields,
        for a caller that derives its own per-entry form (a compaction's
        sort keys).  Nothing is left memoized on the block."""
        return self._parse_all()

    def sorted_items(self) -> Iterator[tuple[tuple[bytes, int], bytes]]:
        """``(sort_key, value)`` pairs for every entry, in order.

        The scan pipeline consumes this form: the merge heap and version
        resolution both work on sort keys directly, so handing them out
        pre-computed avoids allocating an :class:`InternalKey` per entry.
        """
        return zip(*self._materialize_sort_keys())

    def sorted_arrays(self) -> tuple[list[tuple[bytes, int]], list[bytes]]:
        """The arrays behind :meth:`sorted_items` — sort keys and values,
        index-aligned — for a caller that visits chosen entries only."""
        return self._materialize_sort_keys()

    def make_searchable(self) -> None:
        """Build the search arrays :meth:`seek` bisects, once.

        One decode pass: each entry's user key, its tag (``seq << 8 |
        kind``) in an ``array('Q')``, and its value's ``[start, end)`` in
        the block's bytes, two slots per entry of an ``array('I')`` (one
        large value can push a block past 64 KiB).  No per-entry tuple and
        no value copy is kept.  The block cache calls this when it serves
        a block the second time; a block that fails to decode raises
        :class:`CorruptionError` and stays unsearchable.
        """
        if self._search is not None:
            return
        bounds = array("I")
        keys, _no_values = self._parse_all(bounds)
        unpack_trailer = _TRAILER.unpack_from
        try:
            tags = array("Q", [unpack_trailer(key, len(key) - 8)[0]
                               for key in keys])
        except struct.error as exc:
            raise CorruptionError(
                "block entry key shorter than trailer") from exc
        user_keys = [key[:-8] for key in keys]
        self._search = (user_keys, tags, bounds)

    def seek(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with internal key >= ``target``.

        Two regimes, chosen by whether the block is searchable
        (:meth:`make_searchable`):

        * searchable (the block cache served it before): bisect the user
          keys, step past the target key's versions newer than its
          sequence, and hand out each entry rebuilt from the arrays —
          O(log n) with C-speed compares;
        * one-shot (the block cache off, or a block's first read):
          LevelDB's strategy — binary-search the restart array, then decode
          forward from the chosen restart point.  At most
          ``restart_interval`` entries are decoded before the target, and
          nothing is memoized, so a one-shot seek never pays for the whole
          block.
        """
        search = self._search
        if search is not None:
            user_keys, tags, bounds = search
            user_key, negated_tag = internal_sort_key(target)
            tag = -negated_tag
            count = len(user_keys)
            index = bisect_left(user_keys, user_key)
            while index < count and tags[index] > tag \
                    and user_keys[index] == user_key:
                index += 1
            data = self._data
            pack_trailer = _TRAILER.pack
            for index in range(index, count):
                yield (user_keys[index] + pack_trailer(tags[index]),
                       data[bounds[2 * index]:bounds[2 * index + 1]])
            return

        data = self._data
        end = self._entries_end
        restarts = self._restarts
        target_sort_key = internal_sort_key(target)
        lo, hi = 0, len(restarts) - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if self._restart_sort_key(mid) < target_sort_key:
                lo = mid
            else:
                hi = mid - 1
        pos = restarts[lo] if restarts else 0
        previous = b""
        skipping = True
        unpack_trailer = _TRAILER.unpack_from
        try:
            while pos < end:
                # varint: shared prefix length
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    shared = byte
                else:
                    shared = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        shared |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                # varint: non-shared key bytes
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    non_shared = byte
                else:
                    non_shared = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        non_shared |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                # varint: value length
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    value_len = byte
                else:
                    value_len = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        value_len |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                key_end = pos + non_shared
                value_end = key_end + value_len
                if value_end > end:
                    raise CorruptionError("block entry overflows entry region")
                if shared:
                    if shared > len(previous):
                        raise CorruptionError(
                            "block entry shares more than previous key")
                    previous = previous[:shared] + data[pos:key_end]
                else:
                    previous = data[pos:key_end]
                if skipping:
                    if (previous[:-8],
                            -unpack_trailer(previous,
                                            len(previous) - 8)[0]) \
                            >= target_sort_key:
                        skipping = False
                        yield previous, data[key_end:value_end]
                else:
                    yield previous, data[key_end:value_end]
                pos = value_end
        except IndexError as exc:
            raise CorruptionError(
                "bad block entry header: truncated varint") from exc
        except struct.error as exc:
            raise CorruptionError(
                "block entry key shorter than trailer") from exc

    def _restart_sort_key(self, restart_index: int) -> tuple[bytes, int]:
        """Sort key of the full key stored at restart ``restart_index``."""
        data = self._data
        pos = self._restarts[restart_index]
        try:
            # At a restart point the shared length is zero by construction;
            # decode all three header varints, then slice out the key.
            lengths = []
            for _ in range(3):
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    lengths.append(byte)
                    continue
                value = byte & 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                lengths.append(value)
            return internal_sort_key(data[pos:pos + lengths[1]])
        except IndexError as exc:
            raise CorruptionError(
                "bad block restart entry: truncated varint") from exc
        except struct.error as exc:
            raise CorruptionError(
                "block restart key shorter than trailer") from exc
