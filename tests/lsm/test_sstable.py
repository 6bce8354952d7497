"""SSTables: build/read roundtrips, pruning metadata, corruption handling."""

import json

import pytest

from repro.lsm.bloom import bloom_may_contain
from repro.lsm.compression import NoCompression, ZlibCompression
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    pack_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable, TableBuilder
from repro.lsm.vfs import Category, MemoryVFS
from repro.lsm.zonemap import encode_attribute


def _build_table(entries, options=None, vfs=None, name="t.ldb"):
    """entries: list of (user_key, seq, kind, value_bytes)."""
    options = options or Options(block_size=512, compression="none")
    vfs = vfs or MemoryVFS()
    out = vfs.create(name)
    builder = TableBuilder(options, out, NoCompression()
                           if options.compression == "none"
                           else ZlibCompression())
    for user_key, seq, kind, value in entries:
        builder.add(pack_internal_key(user_key, seq, kind), value)
    props = builder.finish()
    out.close()
    table = SSTable(options, vfs.open_random(name))
    return table, props, vfs


def _tweet(user, pad=40):
    return json.dumps({"UserID": user, "Body": "x" * pad}).encode()


class TestRoundtrip:
    def test_iterate_all(self):
        entries = [(f"k{i:04d}".encode(), i + 1, KIND_VALUE,
                    f"v{i}".encode()) for i in range(200)]
        table, props, _vfs = _build_table(entries)
        got = [(user_key, -negated_tag >> 8, -negated_tag & 0xFF, v)
               for (user_key, negated_tag), v in table.sorted_entries()]
        assert got == entries
        assert props.num_entries == 200
        assert props.num_data_blocks == table.num_data_blocks > 1

    def test_properties(self):
        entries = [(b"aaa", 7, KIND_VALUE, b"1"), (b"zzz", 3, KIND_VALUE, b"2")]
        _table, props, _vfs = _build_table(entries)
        assert props.min_seq == 3 and props.max_seq == 7
        assert props.smallest == pack_internal_key(b"aaa", 7, KIND_VALUE)
        assert props.largest == pack_internal_key(b"zzz", 3, KIND_VALUE)
        assert props.file_size > 0

    def test_compressed_roundtrip(self):
        options = Options(block_size=512, compression="zlib")
        entries = [(f"k{i:04d}".encode(), i + 1, KIND_VALUE, b"v" * 50)
                   for i in range(100)]
        table, _props, _vfs = _build_table(entries, options)
        assert [(user_key, v) for (user_key, _tag), v
                in table.sorted_entries()] == \
            [(k, v) for k, _s, _kd, v in entries]

    def test_compression_shrinks_file(self):
        entries = [(f"k{i:04d}".encode(), i + 1, KIND_VALUE, b"abab" * 40)
                   for i in range(100)]
        _t1, props_raw, _ = _build_table(
            entries, Options(block_size=512, compression="none"))
        _t2, props_zip, _ = _build_table(
            entries, Options(block_size=512, compression="zlib"))
        assert props_zip.file_size < props_raw.file_size


class TestVersionLookups:
    def test_versions_newest_first(self):
        entries = [(b"k", 9, KIND_VALUE, b"new"),
                   (b"k", 4, KIND_VALUE, b"old")]
        table, _props, _vfs = _build_table(entries)
        got = list(table.versions_raw(b"k", MAX_SEQUENCE))
        assert [(seq, v) for _kind, seq, v in got] == \
            [(9, b"new"), (4, b"old")]

    def test_versions_snapshot_bound(self):
        entries = [(b"k", 9, KIND_VALUE, b"new"),
                   (b"k", 4, KIND_VALUE, b"old")]
        table, _props, _vfs = _build_table(entries)
        got = list(table.versions_raw(b"k", max_seq=5))
        assert [(seq, v) for _kind, seq, v in got] == [(4, b"old")]

    def test_versions_absent_key_no_io(self):
        entries = [(f"k{i:03d}".encode(), i + 1, KIND_VALUE, b"v" * 30)
                   for i in range(300)]
        table, _props, vfs = _build_table(entries)
        before = vfs.stats.read_blocks
        assert list(table.versions_raw(b"k050x", MAX_SEQUENCE)) == []
        # Bloom filters answer from memory; no data block should be read.
        assert vfs.stats.read_blocks == before

    def test_versions_spanning_blocks(self):
        # Many versions of one key straddle multiple 512-byte blocks.
        entries = [(b"hot", seq, KIND_VALUE, b"v" * 60)
                   for seq in range(120, 0, -1)]
        table, _props, _vfs = _build_table(entries)
        assert table.num_data_blocks > 1
        got = list(table.versions_raw(b"hot", MAX_SEQUENCE))
        assert [seq for _kind, seq, _v in got] == list(range(120, 0, -1))

    def test_tombstones_visible(self):
        entries = [(b"k", 5, KIND_DELETE, b""), (b"k", 2, KIND_VALUE, b"v")]
        table, _props, _vfs = _build_table(entries)
        got = list(table.versions_raw(b"k", MAX_SEQUENCE))
        assert got[0][0] == KIND_DELETE

    def test_iterate_from(self):
        entries = [(f"k{i:03d}".encode(), 1, KIND_VALUE, b"") for i in range(50)]
        table, _props, _vfs = _build_table(entries)
        start = pack_internal_key(b"k025", MAX_SEQUENCE, KIND_VALUE)
        got = [user_key for (user_key, _tag), _v
               in table.sorted_entries(start)]
        assert got == [f"k{i:03d}".encode() for i in range(25, 50)]

    def test_may_contain_user_key(self):
        entries = [(f"k{i:03d}".encode(), 1, KIND_VALUE, b"x" * 30)
                   for i in range(200)]
        table, _props, vfs = _build_table(entries)
        before = vfs.stats.read_blocks
        assert table.may_contain_user_key(b"k100")
        hits = sum(1 for i in range(1000)
                   if table.may_contain_user_key(f"zz{i}".encode()))
        assert hits <= 20  # bloom false positives only
        assert vfs.stats.read_blocks == before  # purely in-memory


class TestEmbeddedMetadata:
    """The paper's Figure 3: secondary filters + zone maps per block."""

    def _indexed_table(self):
        options = Options(block_size=512, compression="none",
                          indexed_attributes=("UserID",))
        entries = [(f"t{i:04d}".encode(), i + 1, KIND_VALUE,
                    _tweet(f"u{i % 10}")) for i in range(150)]
        return _build_table(entries, options)

    def test_secondary_filters_built_per_block(self):
        table, _props, _vfs = self._indexed_table()
        assert len(table.secondary_filters["UserID"]) == table.num_data_blocks
        assert len(table.secondary_zonemaps["UserID"]) == table.num_data_blocks

    def test_secondary_bloom_finds_present_values(self):
        table, _props, _vfs = self._indexed_table()
        encoded = encode_attribute("u3")
        positives = sum(
            1 for blob in table.secondary_filters["UserID"]
            if bloom_may_contain(blob, encoded))
        assert positives > 0

    def test_secondary_bloom_prunes_absent_values(self):
        table, _props, _vfs = self._indexed_table()
        encoded = encode_attribute("nobody")
        positives = sum(
            1 for blob in table.secondary_filters["UserID"]
            if bloom_may_contain(blob, encoded))
        assert positives == 0  # 100 bits/key: fp essentially impossible

    def test_file_level_zonemap(self):
        _table, props, _vfs = self._indexed_table()
        zone = props.secondary_zonemaps["UserID"]
        assert zone.contains(encode_attribute("u0"))
        assert zone.contains(encode_attribute("u9"))
        assert not zone.contains(encode_attribute("zz"))

    def test_tombstones_not_indexed(self):
        options = Options(block_size=512, compression="none",
                          indexed_attributes=("UserID",))
        entries = [(b"t1", 2, KIND_DELETE, b""),
                   (b"t2", 1, KIND_VALUE, _tweet("u1"))]
        _table, props, _vfs = _build_table(entries, options)
        zone = props.secondary_zonemaps["UserID"]
        assert zone.contains(encode_attribute("u1"))

    def test_column_holds_each_entry_in_order(self):
        """One slot per entry, block by block: the encoded value, or b""
        for a tombstone or a value without the attribute."""
        options = Options(block_size=512, compression="none",
                          indexed_attributes=("UserID",))
        entries = []
        for i in range(150):
            kind = KIND_DELETE if i % 5 == 0 else KIND_VALUE
            value = (b"" if kind == KIND_DELETE else
                     b'{"Body": "no user"}' if i % 7 == 0 else
                     _tweet(f"u{i % 10}"))
            entries.append((f"t{i:04d}".encode(), i + 1, kind, value))
        table, _props, _vfs = _build_table(entries, options)
        columns = table.secondary_columns["UserID"]
        assert len(columns) == table.num_data_blocks > 1
        expected = [b"" if kind == KIND_DELETE or b"UserID" not in value
                    else encode_attribute(f"u{i % 10}")
                    for i, (_key, _seq, kind, value) in enumerate(entries)]
        assert [slot for column in columns for slot in column] == expected
        for column, zone in zip(columns, table.secondary_zonemaps["UserID"]):
            present = [slot for slot in column if slot]
            assert (zone.min_value, zone.max_value) == \
                (min(present), max(present))

    def test_column_not_matching_the_blocks_is_corrupt(self):
        from repro.lsm.keys import encode_varint
        from repro.lsm.sstable import _decode_column_block

        one_block = encode_varint(1) + encode_varint(1) + b"\x02su"
        assert _decode_column_block(one_block, 1) == [[b"su"]]
        for payload, blocks in ((one_block, 2), (one_block[:-1], 1),
                                (one_block + b"\x00", 1)):
            with pytest.raises(CorruptionError):
                _decode_column_block(payload, blocks)

    def test_non_json_values_skip_extraction(self):
        options = Options(block_size=512, compression="none",
                          indexed_attributes=("UserID",))
        entries = [(b"t1", 1, KIND_VALUE, b"\xff\xfe not json")]
        _table, props, _vfs = _build_table(entries, options)
        assert props.secondary_zonemaps["UserID"].is_empty


class TestCorruption:
    def test_bad_footer(self):
        vfs = MemoryVFS()
        vfs.write_whole("bad.ldb", b"\x00" * 100)
        with pytest.raises(CorruptionError):
            SSTable(Options(), vfs.open_random("bad.ldb"))

    def test_flipped_data_block_detected_with_paranoid_checks(self):
        options = Options(block_size=512, compression="none",
                          paranoid_checks=True)
        entries = [(f"k{i:03d}".encode(), 1, KIND_VALUE, b"v" * 40)
                   for i in range(50)]
        vfs = MemoryVFS()
        out = vfs.create("t.ldb")
        builder = TableBuilder(options, out, NoCompression())
        for user_key, seq, kind, value in entries:
            builder.add(pack_internal_key(user_key, seq, kind), value)
        builder.finish()
        out.close()
        vfs._files["t.ldb"][10] ^= 0xFF  # corrupt first data block
        table = SSTable(options, vfs.open_random("t.ldb"))
        with pytest.raises(CorruptionError):
            table.read_data_block(0, Category.DATA)

    def test_builder_finish_twice(self):
        options = Options(block_size=512, compression="none")
        vfs = MemoryVFS()
        out = vfs.create("t.ldb")
        builder = TableBuilder(options, out, NoCompression())
        builder.add(pack_internal_key(b"k", 1, KIND_VALUE), b"v")
        builder.finish()
        with pytest.raises(ValueError):
            builder.finish()
        with pytest.raises(ValueError):
            builder.add(pack_internal_key(b"z", 2, KIND_VALUE), b"v")
