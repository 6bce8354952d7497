"""Golden vectors pinning the on-disk byte format.

The hot-path work (DESIGN.md §7) rewrote the block and key codecs for
speed while promising *byte-identical* output.  These tests make that
promise permanent: exact bytes for the primitive encoders, an exact
block image, and SHA-256 digests of a deterministically built SSTable
(both compression modes).  Any change to the writers — intentional or
not — fails here first, before it can silently orphan existing files.

The SSTable recipe (120 keys, 256-byte blocks, an embedded UserID
index, kinds cycling VALUE/DELETE/MERGE) matches docs/FORMAT.md's
feature inventory: prefix compression, restarts, bloom filters,
attribute columns (empty slots for DELETE/MERGE included), and meta
blocks are all exercised.  The digests changed once on purpose, when the
column block replaced the zone-map block (FORMAT.md §4.3).
"""

import hashlib

import pytest

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.compression import NoCompression, ZlibCompression
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_VALUE,
    encode_varint,
    internal_sort_key,
    pack_internal_key,
    unpack_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable, TableBuilder
from repro.lsm.vfs import MemoryVFS

# --- primitive encoders ----------------------------------------------------


def test_varint_golden_bytes():
    assert encode_varint(0) == bytes.fromhex("00")
    assert encode_varint(127) == bytes.fromhex("7f")
    assert encode_varint(128) == bytes.fromhex("8001")
    assert encode_varint(300) == bytes.fromhex("ac02")


def test_internal_key_golden_bytes():
    # user_key || uint64_be((seq << 8) | kind)
    assert pack_internal_key(b"key", 5, KIND_VALUE) == \
        bytes.fromhex("6b65790000000000000501")
    ikey = unpack_internal_key(bytes.fromhex("6b65790000000000000501"))
    assert (ikey.user_key, ikey.seq, ikey.kind) == (b"key", 5, KIND_VALUE)


# --- block image ------------------------------------------------------------

_BLOCK_ENTRIES = [
    (b"apple", 3, KIND_VALUE, b"red"),
    (b"apricot", 2, KIND_DELETE, b""),
    (b"banana", 7, KIND_MERGE, b"+1"),
    (b"banana", 5, KIND_VALUE, b"yellow"),
    (b"cherry", 1, KIND_VALUE, b"dark"),
]

_BLOCK_GOLDEN_HEX = (
    # shared, non_shared, value_len | key suffix (user key + 8-byte tag) | value
    "000d03" "6170706c65" "0000000000000301" "726564"    # restart 0: full key
    "020d00" "7269636f74" "0000000000000200"             # shares "ap"
    "000e02" "62616e616e61" "0000000000000702" "2b31"    # restart 1: full key
    "0c0206" "0501" "79656c6c6f77"        # shares "banana" + 6 tag zero bytes
    "000e04" "636865727279" "0000000000000101" "6461726b"  # restart 2
    "00000000" "23000000" "41000000" "03000000"  # restart offsets + count
)


def test_block_golden_bytes():
    builder = BlockBuilder(restart_interval=2)
    for user_key, seq, kind, value in _BLOCK_ENTRIES:
        builder.add(pack_internal_key(user_key, seq, kind), value)
    data = builder.finish()
    assert data.hex() == _BLOCK_GOLDEN_HEX
    assert len(data) == 102


def test_block_golden_bytes_decode_back():
    """Both decode paths reproduce the entries from the pinned image."""
    data = bytes.fromhex(_BLOCK_GOLDEN_HEX)
    expected = [(pack_internal_key(k, s, kind), v)
                for k, s, kind, v in _BLOCK_ENTRIES]
    assert list(Block(data)) == expected
    # One-shot seek path (fresh block, no memoized arrays).
    target = pack_internal_key(b"banana", 7, KIND_MERGE)
    assert next(Block(data).seek(target)) == expected[2]
    # Memoized path (the sort-key arrays are built, then bisected).
    block = Block(data)
    assert [sort_key for sort_key, _value in block.sorted_items()] == \
        [internal_sort_key(key) for key, _value in expected]
    assert next(block.seek(target)) == expected[2]


# --- whole-table digests ----------------------------------------------------


def _build_golden_table(compression_name):
    """The deterministic 120-entry table the perf PR's invariant capture
    used; its digests were recorded *before* the optimization work."""
    vfs = MemoryVFS()
    options = Options(block_size=256, compression=compression_name,
                      indexed_attributes=("UserID",))
    compressor = (NoCompression() if compression_name == "none"
                  else ZlibCompression())
    handle = vfs.create("db/000001.ldb")
    builder = TableBuilder(options, handle, compressor)
    for i in range(120):
        kind = (KIND_VALUE, KIND_DELETE, KIND_MERGE)[i % 3]
        value = (b'{"UserID": "u%02d", "pad": "%s"}'
                 % (i % 11, b"p" * (i % 17))
                 if kind == KIND_VALUE else b"v%d" % i)
        builder.add(pack_internal_key(b"key%04d" % i, i + 1, kind), value)
    builder.finish()
    reader = vfs.open_random("db/000001.ldb")
    return options, reader, reader.read_at(0, reader.size, charge=False)


@pytest.mark.parametrize("compression_name,sha256,size", [
    ("none",
     "2c953a20783fcfabbd1792c43f1252bc3e867c5ef10fc7c4b1359c19765c00be",
     4885),
    ("zlib",
     "a4397bc96daa591ee904a901a99ae5cfb020ddc408fac7dd97ea67f35e866673",
     2981),
], ids=["none", "zlib"])
def test_sstable_golden_digest(compression_name, sha256, size):
    _options, _reader, raw = _build_golden_table(compression_name)
    assert len(raw) == size
    assert hashlib.sha256(raw).hexdigest() == sha256


@pytest.mark.parametrize("compression_name", ["none", "zlib"])
def test_sstable_golden_roundtrip(compression_name):
    """The pinned bytes read back to exactly what was written."""
    options, reader, _raw = _build_golden_table(compression_name)
    table = SSTable(options, reader, 1)
    got = [(user_key, -negated_tag >> 8, -negated_tag & 0xFF, value)
           for (user_key, negated_tag), value in table.sorted_entries()]
    assert len(got) == 120
    for i, (user_key, seq, kind, value) in enumerate(got):
        assert user_key == b"key%04d" % i
        assert seq == i + 1
        assert kind == (KIND_VALUE, KIND_DELETE, KIND_MERGE)[i % 3]
        if kind != KIND_VALUE:
            assert value == b"v%d" % i
    column = [slot for block_column in table.secondary_columns["UserID"]
              for slot in block_column]
    assert column == [b"su%02d" % (i % 11) if i % 3 == 0 else b""
                      for i in range(120)]
