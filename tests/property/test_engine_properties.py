"""More hypothesis properties: WAL, blocks, SSTables, compaction styles."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.compression import NoCompression
from repro.lsm.keys import (
    KIND_VALUE,
    MAX_SEQUENCE,
    internal_sort_key,
    pack_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable, TableBuilder
from repro.lsm.vfs import MemoryVFS
from repro.lsm.wal import LogReader, LogWriter

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestWALProperties:
    @given(st.lists(st.binary(max_size=2000), max_size=40))
    @_SETTINGS
    def test_roundtrip_any_payloads(self, records):
        vfs = MemoryVFS()
        writer = LogWriter(vfs.create("wal"))
        for record in records:
            writer.add_record(record)
        writer.close()
        assert list(LogReader(vfs.open_random("wal"))) == records

    @given(st.lists(st.binary(min_size=1, max_size=500), min_size=1,
                    max_size=10),
           st.integers(min_value=1, max_value=100))
    @_SETTINGS
    def test_any_truncation_never_yields_garbage(self, records, cut):
        """Chopping bytes off the tail loses at most the torn suffix of
        records — every record that IS returned is byte-identical to one
        that was written, in order."""
        vfs = MemoryVFS()
        writer = LogWriter(vfs.create("wal"))
        for record in records:
            writer.add_record(record)
        writer.close()
        data = vfs._files["wal"]
        del data[max(0, len(data) - cut):]
        recovered = list(LogReader(vfs.open_random("wal")))
        assert recovered == records[:len(recovered)]


def _sorted_entries(keys_values):
    entries = [(pack_internal_key(key, seq, KIND_VALUE), value)
               for (key, seq), value in keys_values.items()]
    entries.sort(key=lambda e: internal_sort_key(e[0]))
    return entries


_entry_maps = st.dictionaries(
    st.tuples(st.binary(max_size=20),
              st.integers(min_value=0, max_value=10**6)),
    st.binary(max_size=60), max_size=120)


class TestBlockProperties:
    @given(_entry_maps, st.integers(min_value=1, max_value=20))
    @_SETTINGS
    def test_roundtrip(self, keys_values, restart_interval):
        entries = _sorted_entries(keys_values)
        builder = BlockBuilder(restart_interval)
        for key, value in entries:
            builder.add(key, value)
        assert list(Block(builder.finish())) == entries

    @given(_entry_maps, st.binary(max_size=20))
    @_SETTINGS
    def test_seek_equals_filtered_iteration(self, keys_values, seek_key):
        entries = _sorted_entries(keys_values)
        builder = BlockBuilder(4)
        for key, value in entries:
            builder.add(key, value)
        block = Block(builder.finish())
        target = pack_internal_key(seek_key, MAX_SEQUENCE, KIND_VALUE)
        got = list(block.seek(target))
        want = [e for e in entries
                if internal_sort_key(e[0]) >= internal_sort_key(target)]
        assert got == want


class TestSSTableProperties:
    @given(_entry_maps)
    @_SETTINGS
    def test_roundtrip_through_file(self, keys_values):
        entries = _sorted_entries(keys_values)
        options = Options(block_size=512, sstable_target_size=512,
                          compression="none")
        vfs = MemoryVFS()
        out = vfs.create("t.ldb")
        builder = TableBuilder(options, out, NoCompression())
        for key, value in entries:
            builder.add(key, value)
        builder.finish()
        out.close()
        table = SSTable(options, vfs.open_random("t.ldb"))
        assert list(table.sorted_entries()) == \
            [(internal_sort_key(key), value) for key, value in entries]

    @given(_entry_maps)
    @_SETTINGS
    def test_versions_complete_per_user_key(self, keys_values):
        entries = _sorted_entries(keys_values)
        if not entries:
            return
        options = Options(block_size=512, sstable_target_size=512,
                          compression="none")
        vfs = MemoryVFS()
        out = vfs.create("t.ldb")
        builder = TableBuilder(options, out, NoCompression())
        for key, value in entries:
            builder.add(key, value)
        builder.finish()
        out.close()
        table = SSTable(options, vfs.open_random("t.ldb"))
        user_keys = {key for (key, _seq) in keys_values}
        for user_key in user_keys:
            want = sorted((seq for (key, seq) in keys_values
                           if key == user_key), reverse=True)
            got = [seq for _kind, seq, _v in table.versions_raw(
                user_key, MAX_SEQUENCE)]
            assert got == want
