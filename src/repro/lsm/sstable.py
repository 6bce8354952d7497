"""SSTables: immutable sorted tables with embedded secondary-index metadata.

File layout (LevelDB's, extended per the paper's Figure 3)::

    [data block 1]
    ...
    [data block N]
    [primary filter meta block]        one bloom filter per data block
    [secondary filter meta block(s)]   per indexed attribute   (LevelDB++)
    [secondary column meta block(s)]   per indexed attribute   (LevelDB++)
    [metaindex block]                  meta block name -> handle
    [index block]                      last key per data block -> handle
    [footer]                           metaindex + index handles, magic

Each physical block is followed by a one-byte compression tag and a CRC32
of payload+tag, as in LevelDB.  Filter and column blocks are loaded into
memory when a table is opened (the paper keeps them memory-resident via a
large ``max_open_files``), so query-time pruning consults them without I/O;
only data blocks that survive pruning are read — and charged.

A *column* holds, per data block and in entry order, each entry's encoded
attribute value (``b""`` for none).  Each block's zone map is the min/max
of its column, so the column takes the place of the zone-map block that
tables written before it carry (still read, never written); and a scan
compares column bytes instead of parsing the values it skips.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.bloom import (
    BloomFilterBuilder,
    bloom_may_contain,
    bloom_probe,
)
from repro.lsm.compression import Compressor, decompress
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import (
    KIND_FOR_SEEK,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_length_prefixed,
    decode_varint,
    encode_length_prefixed,
    encode_varint,
    internal_sort_key,
    pack_internal_key,
)
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData
from repro.lsm.vfs import (
    VFS,
    Category,
    RandomAccessFile,
    WritableFile,
    retry_transient_io,
)
from repro.lsm.zonemap import ZoneMap, column_entry

_U32 = struct.Struct("<I")
_TRAILER = struct.Struct(">Q")
_FOOTER_SIZE = 48
_MAGIC = b"LDBppPY1"

_META_PRIMARY_FILTER = b"filter.primary"
_META_SECONDARY_FILTER = "filter.secondary."
_META_SECONDARY_COLUMN = "column.secondary."
#: Per-block zone maps, as tables written before the column carry them.
_META_SECONDARY_ZONEMAP = "zonemap.secondary."


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block within the file (size excludes the 5-byte trailer)."""

    offset: int
    size: int

    def encode(self) -> bytes:
        return encode_varint(self.offset) + encode_varint(self.size)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["BlockHandle", int]:
        off, pos = decode_varint(data, offset)
        size, pos = decode_varint(data, pos)
        return cls(off, size), pos


@dataclass
class TableProperties:
    """A table's entries summed up for its manifest record: by the builder
    as it writes them, by the audit as it reads them back."""

    num_entries: int = 0
    num_data_blocks: int = 0
    file_size: int = 0
    smallest: bytes | None = None  # encoded internal key
    largest: bytes | None = None
    min_seq: int = 0
    max_seq: int = 0
    secondary_zonemaps: dict[str, ZoneMap] = field(default_factory=dict)

    def track(self, internal_key: bytes, seq: int) -> None:
        """Count one entry, fed in table order."""
        if self.smallest is None:
            self.smallest = internal_key
            self.min_seq = seq
            self.max_seq = seq
        elif seq < self.min_seq:
            self.min_seq = seq
        elif seq > self.max_seq:
            self.max_seq = seq
        self.largest = internal_key
        self.num_entries += 1

    def file_meta(self, file_number: int) -> FileMetaData:
        return FileMetaData(
            file_number=file_number,
            file_size=self.file_size,
            smallest=self.smallest,
            largest=self.largest,
            min_seq=self.min_seq,
            max_seq=self.max_seq,
            num_entries=self.num_entries,
            secondary_zonemaps=self.secondary_zonemaps,
        )


def _write_physical_block(out: WritableFile, payload: bytes,
                          compressor: Compressor,
                          category: Category) -> BlockHandle:
    offset = out.size
    data, type_tag = compressor.compress(payload)
    tag = bytes([type_tag])
    crc = _U32.pack(zlib.crc32(data + tag) & 0xFFFFFFFF)
    out.append(data + tag + crc, category)
    return BlockHandle(offset, len(data))


def _read_physical_block(file: RandomAccessFile, handle: BlockHandle,
                         category: Category, verify_crc: bool,
                         options: Options | None = None) -> bytes:
    if options is None:
        raw = file.read_at(handle.offset, handle.size + 5, category)
    else:
        raw = retry_transient_io(options.read_retries, "block read",
                                 file.read_at, handle.offset,
                                 handle.size + 5, category)
    if len(raw) != handle.size + 5:
        raise CorruptionError(
            f"truncated block read at offset {handle.offset}")
    payload, type_tag, stored_crc = raw[:-5], raw[-5], raw[-4:]
    if verify_crc:
        actual = _U32.pack(zlib.crc32(raw[:-4]) & 0xFFFFFFFF)
        if actual != stored_crc:
            raise CorruptionError(
                f"block CRC mismatch at offset {handle.offset}")
    try:
        return decompress(payload, type_tag)
    except (zlib.error, ValueError) as exc:
        # A block that fails to decompress is corrupt regardless of
        # whether the (skipped) CRC would have caught it.
        raise CorruptionError(
            f"block decompression failed at offset {handle.offset}: "
            f"{exc}") from exc


class TableBuilder:
    """Streams sorted entries into a new SSTable file.

    When :attr:`Options.indexed_attributes` is non-empty, the builder keeps,
    per data block, a bloom filter and a column for each attribute — the
    Embedded Index structures of the paper's Section 3 (the column stands
    in for the zone map, which the reader derives from it).  An entry's
    column slots come with it when its writer holds them (a flush takes
    them from the MemTable, which kept them at insert; a compaction
    carries them over from its input tables); otherwise the options'
    attribute extractor derives them from a VALUE.  They cost nothing extra
    at write time beyond CPU: they are emitted with the table during
    flush/compaction, never updated in place.
    """

    def __init__(self, options: Options, out: WritableFile,
                 compressor: Compressor,
                 category: Category = Category.FLUSH) -> None:
        self.options = options
        self._out = out
        self._compressor = compressor
        self._category = category
        self._data_block = BlockBuilder()
        self._index_block = BlockBuilder(restart_interval=1)
        self._index_entries: list[tuple[bytes, BlockHandle]] = []
        self._primary_filter = BloomFilterBuilder(options.bloom_bits_per_key)
        self._primary_filters: list[bytes] = []
        self._attributes = tuple(options.indexed_attributes)
        self._secondary_filters: dict[str, list[bytes]] = {
            attr: [] for attr in self._attributes}
        self._secondary_columns: dict[str, list[list[bytes]]] = {
            attr: [] for attr in self._attributes}
        # The open block's filter and column per attribute, in
        # ``_attributes`` order (the order of an entry's slots).
        self._block_filters: list[BloomFilterBuilder] = []
        self._block_columns: list[list[bytes]] = []
        self._reset_block_secondary_builders()
        self.props = TableProperties()
        self._finished = False

    def _reset_block_secondary_builders(self) -> None:
        bits = self.options.secondary_bloom_bits_per_key
        self._block_filters = [BloomFilterBuilder(bits)
                               for _attr in self._attributes]
        self._block_columns = [[] for _attr in self._attributes]

    def add(self, internal_key: bytes, value: bytes) -> None:
        """Append an entry (keys must be in internal-key order)."""
        self.add_sorted(internal_sort_key(internal_key), internal_key, value)

    def add_sorted(self, sort_key: tuple[bytes, int], internal_key: bytes,
                   value: bytes,
                   slots: tuple[bytes, ...] | None = None) -> int:
        """:meth:`add` for a caller that holds the entry decoded: its
        ``sort_key`` (:func:`~repro.lsm.keys.internal_sort_key`), and —
        a flush or a compaction that holds them — its column ``slots``,
        one per indexed attribute (``None``: derive them from the value).
        Returns :attr:`estimated_file_size`."""
        if self._finished:
            raise ValueError("builder already finished")
        block_size = self._data_block.add(internal_key, value, sort_key)
        user_key = sort_key[0]
        tag = -sort_key[1]  # (seq << 8) | kind
        self._primary_filter.add(user_key)
        if self._attributes:
            if slots is None:
                attrs = (self.options.attribute_extractor(value)
                         if tag & 0xFF == KIND_VALUE else None)
                slots = [column_entry(attrs, attr)
                         for attr in self._attributes]
            for column, bloom, encoded in zip(
                    self._block_columns, self._block_filters, slots):
                column.append(encoded)
                if encoded:
                    bloom.add(encoded)
        self.props.track(internal_key, tag >> 8)
        if block_size >= self.options.block_size:
            self._flush_data_block()
            block_size = self._data_block.current_size_estimate()
        return self._out.size + block_size

    def _flush_data_block(self) -> None:
        if self._data_block.is_empty:
            return
        payload = self._data_block.finish()
        handle = _write_physical_block(
            self._out, payload, self._compressor, self._category)
        last_key = self._data_block._last_key
        self._index_entries.append((last_key, handle))
        self._primary_filters.append(self._primary_filter.finish())
        self._primary_filter = BloomFilterBuilder(self.options.bloom_bits_per_key)
        for attr, bloom, column in zip(
                self._attributes, self._block_filters, self._block_columns):
            self._secondary_filters[attr].append(bloom.finish())
            self._secondary_columns[attr].append(column)
        self._reset_block_secondary_builders()
        self._data_block.reset()
        self.props.num_data_blocks += 1

    @property
    def estimated_file_size(self) -> int:
        return self._out.size + self._data_block.current_size_estimate()

    @property
    def num_entries(self) -> int:
        return self.props.num_entries

    def finish(self) -> TableProperties:
        """Flush remaining data, write meta/index blocks and the footer."""
        if self._finished:
            raise ValueError("builder already finished")
        self._flush_data_block()
        meta_handles: list[tuple[bytes, BlockHandle]] = []
        meta_handles.append((
            _META_PRIMARY_FILTER,
            self._write_filter_block(self._primary_filters)))
        for attr in self._attributes:
            meta_handles.extend(self._secondary_meta_blocks(attr))
        metaindex_handle = self._write_metaindex(meta_handles)
        for last_key, handle in self._index_entries:
            self._index_block.add(last_key, handle.encode())
        index_handle = _write_physical_block(
            self._out, self._index_block.finish(), self._compressor,
            self._category)
        footer = metaindex_handle.encode() + index_handle.encode()
        footer += b"\x00" * (_FOOTER_SIZE - 8 - len(footer))
        footer += _MAGIC
        self._out.append(footer, self._category)
        self._out.sync()
        self.props.file_size = self._out.size
        self.props.secondary_zonemaps = {
            attr: ZoneMap.of_column(chain.from_iterable(columns))
            for attr, columns in self._secondary_columns.items()}
        self._finished = True
        return self.props

    def _secondary_meta_blocks(self, attr: str
                               ) -> list[tuple[bytes, BlockHandle]]:
        """The Embedded index's meta blocks for ``attr``: blooms, column."""
        return [
            ((_META_SECONDARY_FILTER + attr).encode("utf-8"),
             self._write_filter_block(self._secondary_filters[attr])),
            ((_META_SECONDARY_COLUMN + attr).encode("utf-8"),
             self._write_column_block(self._secondary_columns[attr])),
        ]

    def _write_filter_block(self, filters: list[bytes]) -> BlockHandle:
        payload = bytearray(encode_varint(len(filters)))
        for blob in filters:
            payload += encode_length_prefixed(blob)
        return _write_physical_block(
            self._out, bytes(payload), self._compressor, self._category)

    def _write_column_block(self, columns: list[list[bytes]]) -> BlockHandle:
        payload = bytearray(encode_varint(len(columns)))
        for column in columns:
            payload += encode_varint(len(column))
            for encoded in column:
                if len(encoded) < 0x80:  # a one-byte varint, inline
                    payload.append(len(encoded))
                    payload += encoded
                else:
                    payload += encode_length_prefixed(encoded)
        return _write_physical_block(
            self._out, bytes(payload), self._compressor, self._category)

    def _write_metaindex(
            self, handles: list[tuple[bytes, BlockHandle]]) -> BlockHandle:
        payload = bytearray(encode_varint(len(handles)))
        for name, handle in handles:
            payload += encode_length_prefixed(name)
            payload += encode_length_prefixed(handle.encode())
        return _write_physical_block(
            self._out, bytes(payload), self._compressor, self._category)


def _decode_filter_block(payload: bytes) -> list[bytes]:
    count, pos = decode_varint(payload, 0)
    filters = []
    for _ in range(count):
        blob, pos = decode_length_prefixed(payload, pos)
        filters.append(blob)
    return filters


def _decode_zonemap_block(payload: bytes) -> list[ZoneMap]:
    count, pos = decode_varint(payload, 0)
    zonemaps = []
    for _ in range(count):
        zone, pos = ZoneMap.decode(payload, pos)
        zonemaps.append(zone)
    return zonemaps


def _decode_column_block(payload: bytes, num_blocks: int) -> list[list[bytes]]:
    """One column per data block; a column that cannot describe this
    table's blocks is corrupt, like a block failing its CRC."""
    try:
        count, pos = decode_varint(payload, 0)
        if count != num_blocks:
            raise ValueError(f"{count} columns for {num_blocks} blocks")
        columns = []
        for _ in range(count):
            num_entries, pos = decode_varint(payload, pos)
            column = []
            append = column.append
            for _ in range(num_entries):
                length = payload[pos]  # one varint byte below 128 bytes
                if length < 0x80:
                    pos += 1
                else:
                    length, pos = decode_varint(payload, pos)
                end = pos + length
                append(payload[pos:end])
                pos = end
            columns.append(column)
        if pos != len(payload):
            raise ValueError("column block length mismatch")
    except (ValueError, IndexError) as exc:
        raise CorruptionError(f"bad attribute column block: {exc}") from exc
    return columns


class SSTable:
    """Read-side handle on one table file.

    Opening a table reads the footer, the index block and all meta blocks
    (filters and columns, each block's zone map derived from its column);
    after that, key lookups touch "disk" only for data blocks that pass the
    bloom-filter and zone-map checks.
    """

    def __init__(self, options: Options, file: RandomAccessFile,
                 file_number: int = 0) -> None:
        self.options = options
        self.file = file
        self.file_number = file_number
        footer = retry_transient_io(
            options.read_retries, "footer read", file.read_at,
            file.size - _FOOTER_SIZE, _FOOTER_SIZE, Category.INDEX)
        if len(footer) != _FOOTER_SIZE or footer[-8:] != _MAGIC:
            raise CorruptionError(
                f"bad SSTable footer in file {file_number}")
        metaindex_handle, pos = BlockHandle.decode(footer, 0)
        index_handle, _pos = BlockHandle.decode(footer, pos)
        index_block = Block(_read_physical_block(
            file, index_handle, Category.INDEX, verify_crc=True,
            options=options))
        self._index_entries: list[tuple[bytes, BlockHandle]] = []
        for key, value in index_block:
            handle, _off = BlockHandle.decode(value, 0)
            self._index_entries.append((key, handle))
        # Per-block search metadata, decoded once at open (the index block
        # is memory-resident anyway): sort keys for the block binary search
        # and each block's last *user* key for the continue-scan check.
        # Without these, every GET re-unpacked index keys per bisect step.
        self._index_sort_keys = [
            internal_sort_key(key) for key, _handle in self._index_entries]
        self._index_last_user_keys = [
            key[:-8] for key, _handle in self._index_entries]
        self.primary_filters: list[bytes] = []
        self.secondary_filters: dict[str, list[bytes]] = {}
        self.secondary_columns: dict[str, list[list[bytes]]] = {}
        self.secondary_zonemaps: dict[str, list[ZoneMap]] = {}
        #: Meta blocks that failed their CRC and were dropped instead of
        #: failing the open (``on_corruption="quarantine"`` only).  Filters,
        #: columns and zone maps are advisory — a missing one means "must
        #: read (and parse) the data block", never a wrong answer — so the
        #: table degrades to filter-less reads rather than being lost whole.
        self.degraded_filters: list[str] = []
        self._load_meta(metaindex_handle)
        self._block_cache: Any = None  # set by TableCache when caching is on

    @classmethod
    def open(cls, vfs: VFS, db_name: str, options: Options,
             file_number: int) -> "SSTable":
        """Open table ``file_number`` of database ``db_name``: the one way a
        table file is opened.  A transient open failure is retried
        (``options.read_retries``); if the table fails to open, its file
        handle is closed before the error propagates."""
        handle = retry_transient_io(
            options.read_retries, "table open", vfs.open_random,
            table_file_name(db_name, file_number))
        try:
            return cls(options, handle, file_number)
        except BaseException:
            handle.close()
            raise

    def _load_meta(self, metaindex_handle: BlockHandle) -> None:
        degrade = self.options.on_corruption == "quarantine"
        try:
            payload = _read_physical_block(
                self.file, metaindex_handle, Category.INDEX, verify_crc=True,
                options=self.options)
        except CorruptionError:
            if not degrade:
                raise
            # The metaindex names every filter block; without it none can
            # be located, so the whole advisory layer is dropped.
            self.degraded_filters.append("metaindex")
            return
        count, pos = decode_varint(payload, 0)
        for _ in range(count):
            name_bytes, pos = decode_length_prefixed(payload, pos)
            handle_bytes, pos = decode_length_prefixed(payload, pos)
            handle, _off = BlockHandle.decode(handle_bytes, 0)
            name = name_bytes.decode("utf-8")
            try:
                block_payload = _read_physical_block(
                    self.file, handle, Category.FILTER, verify_crc=True,
                    options=self.options)
                if name.startswith(_META_SECONDARY_COLUMN):
                    columns = _decode_column_block(block_payload,
                                                   self.num_data_blocks)
            except CorruptionError:
                if not degrade:
                    raise
                self.degraded_filters.append(name)
                continue
            if name_bytes == _META_PRIMARY_FILTER:
                self.primary_filters = _decode_filter_block(block_payload)
            elif name.startswith(_META_SECONDARY_FILTER):
                attr = name[len(_META_SECONDARY_FILTER):]
                self.secondary_filters[attr] = _decode_filter_block(
                    block_payload)
            elif name.startswith(_META_SECONDARY_COLUMN):
                attr = name[len(_META_SECONDARY_COLUMN):]
                self.secondary_columns[attr] = columns
                self.secondary_zonemaps[attr] = [
                    ZoneMap.of_column(column) for column in columns]
            elif name.startswith(_META_SECONDARY_ZONEMAP):
                attr = name[len(_META_SECONDARY_ZONEMAP):]
                self.secondary_zonemaps[attr] = _decode_zonemap_block(
                    block_payload)

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        """The attributes this table carries secondary meta blocks for."""
        return tuple(sorted(set(self.secondary_filters)
                            | set(self.secondary_columns)
                            | set(self.secondary_zonemaps)))

    # -- block access -------------------------------------------------------

    @property
    def num_data_blocks(self) -> int:
        return len(self._index_entries)

    def read_data_block(self, index: int, category: Category = Category.DATA,
                        held: dict | None = None,
                        fill_cache: bool = True) -> Block:
        """Read (and decompress) data block ``index``, consulting the cache —
        after ``held``, a batched read's ``{file_number: (index, block)}`` of
        the block each table served last, which needs no second read.
        ``fill_cache=False`` (a compaction's or an audit's pass over every
        block) does not leave what it read in the cache (LevelDB's
        ``fill_cache``), nor makes a cached block searchable.

        A block the cache serves is made searchable
        (:meth:`Block.make_searchable`) — the first hit pays one decode
        pass, and every later seek in it is a bisect.  A block whose
        decode fails leaves the cache before the error propagates."""
        if held is not None:
            kept = held.get(self.file_number)
            if kept is None or kept[0] != index:
                kept = held[self.file_number] = (
                    index, self.read_data_block(index, category))
            return kept[1]
        handle = self._index_entries[index][1]
        cache_key = (self.file_number, handle.offset)
        if self._block_cache is not None:
            cached = self._block_cache.get(cache_key)
            if cached is not None:
                if fill_cache:
                    try:
                        cached.make_searchable()
                    except CorruptionError:
                        self._block_cache.evict(cache_key)
                        raise
                return cached
        try:
            payload = _read_physical_block(
                self.file, handle, category,
                verify_crc=self.options.paranoid_checks,
                options=self.options)
            block = Block(payload)
        except CorruptionError:
            # Never let a poisoned entry linger: any previously cached copy
            # of this block must not be served after the file heals or the
            # table is quarantined.
            if self._block_cache is not None:
                self._block_cache.evict(cache_key)
            raise
        if self._block_cache is not None and fill_cache:
            self._block_cache.put(cache_key, block, len(payload))
        return block

    def evict_cached_blocks(self) -> None:
        """Drop this table's blocks from the block cache: one key per
        index handle, not a scan of the whole cache."""
        block_cache = self._block_cache
        if block_cache is not None:
            number = self.file_number
            for _key, handle in self._index_entries:
                block_cache.evict((number, handle.offset))

    def verified_blocks(self) -> Iterator[tuple[int, bytes | CorruptionError]]:
        """``(block_index, payload)`` of every data block, re-read from the
        file and re-checksummed: the audit's read
        (:class:`~repro.lsm.checker.TableAudit`), which trusts neither
        ``paranoid_checks`` nor any cache.
        A block that fails yields its error in place of its payload, so one
        rotten block does not end the walk."""
        for block_index, (_key, handle) in enumerate(self._index_entries):
            try:
                payload = _read_physical_block(
                    self.file, handle, Category.OTHER, verify_crc=True,
                    options=self.options)
            except CorruptionError as exc:
                payload = exc
            yield block_index, payload

    def blocks_admitting(self, attribute: str, low: bytes, high: bytes,
                         value_hash: tuple[int, int] | None = None
                         ) -> Iterator[tuple[Block, list[bytes],
                                             bytes | None]]:
        """The Embedded index's scan of one table (paper Section 3): the
        data blocks whose in-memory filters admit a value of ``attribute``
        in ``[low, high]`` (encoded), each with its column of ``attribute``.
        ``value_hash`` is a point query's
        :func:`~repro.lsm.bloom.bloom_hash`; ranges have none — blooms
        cannot help them.

        Last block first: on an insert-ordered table the newest records
        sit at the end, and once they fill a top-K heap the older matches
        are refused before any validity work is spent on them.  Each block
        comes with the last user key of the block before it (``None`` for
        the first): a key's versions are contiguous, so an entry for that
        key is not its newest in this table — the newer one ends the
        previous block.
        """
        zonemaps = self.secondary_zonemaps.get(attribute, [])
        columns = self.secondary_columns.get(attribute)
        blooms = self.secondary_filters.get(attribute, []) \
            if value_hash is not None else []
        last_user_keys = self._index_last_user_keys
        for block_index in reversed(range(len(last_user_keys))):
            if block_index < len(zonemaps) and not \
                    zonemaps[block_index].overlaps(low, high):
                continue  # two compares: cheaper than the bloom, so first
            if block_index < len(blooms) and not bloom_probe(
                    blooms[block_index], *value_hash):
                continue
            block = self.read_data_block(block_index)
            yield (block,
                   columns[block_index] if columns is not None
                   else self._parse_column(block, attribute),
                   last_user_keys[block_index - 1] if block_index else None)

    def _parse_column(self, block: Block, attribute: str) -> list[bytes]:
        """The column of a table that has none — written before columns
        existed, or its column block dropped as corrupt — parsed from the
        block's values."""
        extractor = self.options.attribute_extractor
        return [column_entry(extractor(value)
                             if -negated_tag & 0xFF == KIND_VALUE else None,
                             attribute)
                for (_key, negated_tag), value in block.sorted_items()]

    def _block_index_for(self, internal_key: bytes) -> int | None:
        """Index of the first block whose last key is >= ``internal_key``."""
        lo = bisect_left(self._index_sort_keys,
                         internal_sort_key(internal_key))
        if lo >= len(self._index_entries):
            return None
        return lo

    # -- lookups ------------------------------------------------------------

    def may_contain_primary(self, user_key: bytes, block_index: int) -> bool:
        """Consult the in-memory primary bloom for one block (no I/O)."""
        if block_index >= len(self.primary_filters):
            return True
        return bloom_may_contain(self.primary_filters[block_index], user_key)

    def may_contain_user_key(self, user_key: bytes) -> bool:
        """Purely in-memory presence probe: index block + primary blooms.

        This is the core of the paper's ``GetLite`` optimisation (Section 3):
        deciding whether a *newer* version of a key might exist in a file
        without reading any data block.  False positives are possible at the
        bloom filter's rate; false negatives are not.
        """
        probe = pack_internal_key(user_key, MAX_SEQUENCE, KIND_FOR_SEEK)
        start = self._block_index_for(probe)
        if start is None:
            return False
        for block_index in range(start, len(self._index_entries)):
            if self.may_contain_primary(user_key, block_index):
                return True
            if not self._user_key_may_continue(user_key, block_index):
                return False
        return False

    def versions_raw(self, user_key: bytes, max_seq: int,
                     category: Category = Category.DATA,
                     held: dict | None = None
                     ) -> Iterator[tuple[int, int, bytes]]:
        """Versions of ``user_key`` with ``seq <= max_seq`` as ``(kind, seq,
        value)``, newest first.

        At most a handful of data-block reads (bloom filters prune the
        common miss case without I/O).  Kind and seq come straight off the
        key trailer, so no :class:`InternalKey` (nor a user-key slice per
        entry) is allocated.
        """
        probe = pack_internal_key(user_key, max_seq, KIND_FOR_SEEK)
        start = self._block_index_for(probe)
        if start is None:
            return
        user_key_len = len(user_key)
        encoded_len = user_key_len + 8
        unpack_trailer = _TRAILER.unpack_from
        for block_index in range(start, len(self._index_entries)):
            if not self.may_contain_primary(user_key, block_index):
                # Bloom says the key is not in this block.  Versions of one
                # user key may still straddle a block boundary, so continue
                # to the next block rather than stopping; the next index-key
                # check below terminates the scan cheaply.
                if not self._user_key_may_continue(user_key, block_index):
                    return
                continue
            block = self.read_data_block(block_index, category, held)
            for ikey_bytes, value in block.seek(probe):
                if len(ikey_bytes) != encoded_len or \
                        not ikey_bytes.startswith(user_key):
                    return
                tag = unpack_trailer(ikey_bytes, user_key_len)[0]
                yield tag & 0xFF, tag >> 8, value
            if not self._user_key_may_continue(user_key, block_index):
                return

    def _user_key_may_continue(self, user_key: bytes, block_index: int) -> bool:
        """Could ``user_key`` have versions in blocks after ``block_index``?"""
        return self._index_last_user_keys[block_index] <= user_key

    def sorted_entries(self, start_internal_key: bytes | None = None,
                       category: Category = Category.DATA,
                       fill_cache: bool = True
                       ) -> Iterator[tuple[tuple[bytes, int], bytes]]:
        """``(sort_key, value)`` pairs from ``start_internal_key`` onward,
        in order: every scan's read of a table.

        No :class:`InternalKey` objects are allocated; whole blocks hand
        out their memoized sort-key arrays (:meth:`Block.sorted_items`).
        The first block of a bounded scan goes through :meth:`Block.seek`,
        which decodes only from the restart point before the start and
        only as far as the caller reads — a narrow scan never pays for the
        whole block.
        """
        start = 0
        if start_internal_key is not None:
            first = self._block_index_for(start_internal_key)
            if first is None:
                return
            block = self.read_data_block(first, category,
                                         fill_cache=fill_cache)
            unpack_trailer = _TRAILER.unpack_from
            try:
                for key, value in block.seek(start_internal_key):
                    yield ((key[:-8], -unpack_trailer(key, len(key) - 8)[0]),
                           value)
            except struct.error as exc:
                raise CorruptionError(
                    "block entry key shorter than trailer") from exc
            start = first + 1
        for block_index in range(start, len(self._index_entries)):
            yield from self.read_data_block(
                block_index, category, fill_cache=fill_cache).sorted_items()
