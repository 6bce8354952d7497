"""A cached block becomes searchable while other threads read it.

The block cache hands one :class:`~repro.lsm.block.Block` to every reader,
and the first hit builds its search arrays (``make_searchable``) while
another thread may be seeking in it.  The arrays are published whole by
one attribute store, so every seek — one-shot before, bisect after, or
racing the build — answers what the one-shot seek answers.
"""

from __future__ import annotations

import sys
import threading

from repro.lsm.compression import NoCompression
from repro.lsm.keys import KIND_VALUE, MAX_SEQUENCE, pack_internal_key
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder
from repro.lsm.tablecache import TableCache
from repro.lsm.vfs import MemoryVFS

ROUNDS = 40


def _table():
    vfs = MemoryVFS()
    options = Options(block_size=4096, compression="none",
                      block_cache_size=1 << 20)
    out = vfs.create(table_file_name("db", 1))
    builder = TableBuilder(options, out, NoCompression())
    for i in range(120):
        for seq in (3, 2):
            builder.add(pack_internal_key(f"key{i:04d}".encode(), seq,
                                          KIND_VALUE),
                        f"value{i}.{seq}".encode() * 4)
    builder.finish()
    out.close()
    cache = TableCache(vfs, "db", options)
    return cache, cache.get(1)


def test_two_readers_race_the_search_build():
    cache, table = _table()
    block_cache = cache.block_cache
    targets = [pack_internal_key(f"key{i:04d}".encode(), seq, KIND_VALUE)
               for i in range(0, 40, 3) for seq in (MAX_SEQUENCE, 2, 1)]
    key = (1, table._index_entries[0][1].offset)
    one_shot = table.read_data_block(0, fill_cache=False)  # not cached
    expected = {target: list(one_shot.seek(target)) for target in targets}
    assert one_shot._search is None and len(block_cache) == 0
    assert all(expected.values())
    errors: list[BaseException] = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(ROUNDS):
            block_cache.evict(key)
            table.read_data_block(0)  # a miss: cached, not searchable
            assert block_cache.get(key)._search is None
            barrier = threading.Barrier(2)

            def reader():
                try:
                    barrier.wait()
                    for target in targets:
                        got = list(table.read_data_block(0).seek(target))
                        assert got == expected[target], target
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors[0]
            assert block_cache.get(key)._search is not None
    finally:
        sys.setswitchinterval(previous)
        cache.close()
