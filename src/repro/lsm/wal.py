"""Write-ahead log, in LevelDB's record format.

The log is a sequence of 32 KiB blocks.  A record never spans a block
boundary in one piece: it is split into FULL or FIRST/MIDDLE.../LAST
fragments, each carrying its own CRC so torn writes at the tail are detected
and recovery stops cleanly at the last complete record::

    fragment := crc32 (4, LE) | length (2, LE) | type (1) | payload

Payloads here are serialized write batches (see :mod:`repro.lsm.batch`);
the WAL itself is payload-agnostic.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterator

from repro.lsm.errors import CorruptionError
from repro.lsm.vfs import Category, RandomAccessFile, WritableFile

BLOCK_SIZE = 32 * 1024
_HEADER = struct.Struct("<IHB")
HEADER_SIZE = _HEADER.size

_FULL = 1
_FIRST = 2
_MIDDLE = 3
_LAST = 4


#: CRC32 of each record-type byte: a fragment's checksum continues from it.
_TYPE_CRC = [zlib.crc32(bytes([record_type])) for record_type in range(256)]


def _frame(payload: bytes, block_offset: int, parts: list[bytes]) -> int:
    """Append ``payload``'s fragments to ``parts``, each after the padding of
    any block tail too short for a header; returns the block offset after."""
    remaining = payload
    first_fragment = True
    while True:
        leftover = BLOCK_SIZE - block_offset
        if leftover < HEADER_SIZE:
            if leftover:
                parts.append(b"\x00" * leftover)
            block_offset = 0
            leftover = BLOCK_SIZE
        available = leftover - HEADER_SIZE
        fragment, remaining = remaining[:available], remaining[available:]
        if first_fragment and not remaining:
            record_type = _FULL
        elif first_fragment:
            record_type = _FIRST
        elif not remaining:
            record_type = _LAST
        else:
            record_type = _MIDDLE
        parts.append(_HEADER.pack(zlib.crc32(fragment, _TYPE_CRC[record_type]),
                                  len(fragment), record_type))
        parts.append(fragment)
        block_offset += HEADER_SIZE + len(fragment)
        first_fragment = False
        if not remaining:
            return block_offset


class LogWriter:
    """Appends records to a WAL file.

    Each call writes its records — every fragment and block-tail pad — in
    one append, and moves the block offset only once that append succeeded.
    A failed append therefore leaves no FIRST fragment of a refused record
    in the log for the next acknowledged record to land behind (which would
    make the log unreadable: "FULL record inside fragmented record").
    """

    def __init__(self, file: WritableFile, sync: bool = False) -> None:
        self._file = file
        self._sync = sync
        self._block_offset = file.size % BLOCK_SIZE

    def add_record(self, payload: bytes) -> None:
        self.add_records([payload])

    def add_records(self, payloads: list[bytes]) -> None:
        """Append several records in one write, syncing (at most) once.

        This is the group-commit primitive: the write-group leader encodes
        every queued batch, appends them back to back, and all writers in
        the group share a single ``fsync`` instead of paying one each.  The
        byte layout is identical to the same ``add_record`` calls made one
        at a time.
        """
        parts: list[bytes] = []
        block_offset = self._block_offset
        for payload in payloads:
            block_offset = _frame(payload, block_offset, parts)
        self._file.append(b"".join(parts), Category.WAL)
        self._block_offset = block_offset
        if self._sync:
            self._file.sync()

    def sync(self) -> None:
        """Force written records to stable storage."""
        self._file.sync()

    def close(self) -> None:
        self._file.close()


class LogReader:
    """Replays the records of a WAL (or manifest) file, and closes the file.

    Recovery semantics match LevelDB's default: a checksum mismatch or a
    truncated fragment at the tail ends iteration silently (the tail was a
    torn write); damage in the middle raises
    :class:`~repro.lsm.errors.CorruptionError`.

    Given ``report``, the reader salvages instead (LevelDB's
    report-and-continue mode, which repair uses): each error is passed to
    ``report`` and reading goes on.  A bad fragment abandons the rest of
    its 32 KiB block, and a broken FIRST/MIDDLE/LAST chain drops only its
    own record.  A torn tail stays silent.
    """

    def __init__(self, file: RandomAccessFile,
                 report: Callable[[str], None] | None = None) -> None:
        try:
            self._data = file.read_at(0, file.size, Category.WAL)
        finally:
            file.close()
        self._report = report

    def _corrupt(self, message: str) -> None:
        if self._report is None:
            raise CorruptionError(message)
        self._report(message)

    def __iter__(self) -> Iterator[bytes]:
        offset = 0
        pending: bytearray | None = None
        data = self._data
        end = len(data)
        while offset < end:
            block_left = BLOCK_SIZE - (offset % BLOCK_SIZE)
            if block_left < HEADER_SIZE:
                offset += block_left  # block-tail padding
                continue
            if offset + HEADER_SIZE > end:
                return  # torn header at tail
            crc, length, record_type = _HEADER.unpack_from(data, offset)
            if record_type == 0 and length == 0 and crc == 0:
                # Zero padding (pre-allocated or zero-filled region).
                offset += block_left
                continue
            frag_start = offset + HEADER_SIZE
            frag_end = frag_start + length
            fragment = data[frag_start:frag_end]
            if HEADER_SIZE + length > block_left:
                # A fragment never spans a block boundary by construction,
                # so this header's length field is garbage.  At the tail it
                # is a torn write; mid-file it is corruption.
                error = (f"WAL fragment at offset {offset} crosses a block "
                         f"boundary")
                torn = frag_end >= end
            elif frag_end > end:
                return  # torn payload at tail
            elif zlib.crc32(fragment, _TYPE_CRC[record_type]) != crc:
                error = f"WAL checksum mismatch at offset {offset}"
                torn = frag_end >= end
            elif not _FULL <= record_type <= _LAST:
                error = f"unknown WAL record type {record_type}"
                torn = False
            else:
                error = None
            if error is not None:
                # Salvage resumes at the next block, so there the damage
                # is a torn tail only if no block follows.
                if torn and (self._report is None
                             or offset + block_left >= end):
                    return
                self._corrupt(error)
                pending = None
                offset += block_left
                continue
            offset = frag_end
            if record_type == _FULL:
                if pending is not None:
                    self._corrupt("FULL record inside fragmented record")
                    pending = None
                yield bytes(fragment)
            elif record_type == _FIRST:
                if pending is not None:
                    self._corrupt("FIRST record inside fragmented record")
                pending = bytearray(fragment)
            elif pending is None:
                self._corrupt(
                    f"{'MIDDLE' if record_type == _MIDDLE else 'LAST'} "
                    f"record without FIRST")
            else:
                pending += fragment
                if record_type == _LAST:
                    yield bytes(pending)
                    pending = None
