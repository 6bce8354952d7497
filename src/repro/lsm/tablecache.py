"""Table cache: open SSTable readers, kept memory-resident.

The paper sets ``max_open_files`` to 30000 "so that most of the bloom
filters and other metadata can reside in memory".  This cache reproduces
that configuration: every opened table stays cached (with an optional
bound), so index blocks, bloom filters and zone maps are read from disk
once per file lifetime and consulted for free afterwards.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.lsm.cache import LRUCache
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable
from repro.lsm.vfs import VFS


class TableCache:
    """Maps file numbers to opened :class:`~repro.lsm.sstable.SSTable`.

    LRU-bounded by ``options.max_open_files``; a hit moves the table to the
    most-recent end, a miss opens (and may evict the least-recently-used
    reader, closing its file handle).  ``hits``/``misses``/``evictions``
    feed :meth:`repro.lsm.db.DB.stats`.

    A table's blocks sit in the block cache only while its reader is
    open here: a reader dropped for any reason — deleted, discarded or
    quarantined file, or LRU pressure — takes its blocks with it (a
    reopened reader reads them again), so the cache never holds a dead
    table's blocks and eviction costs one key per block of that table.
    """

    def __init__(self, vfs: VFS, db_name: str, options: Options,
                 max_open_files: int | None = None) -> None:
        self.vfs = vfs
        self.db_name = db_name
        self.options = options
        self.max_open_files = (options.max_open_files
                               if max_open_files is None else max_open_files)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Meta (filter/zone-map) blocks dropped on open under the
        # quarantine policy: the table serves filter-less but correct.
        self.filter_degradations = 0
        self._tables: OrderedDict[int, SSTable] = OrderedDict()
        # Background compaction evicts tables while readers look them up;
        # the OrderedDict reorder-on-hit is not safe to interleave unlocked.
        self._lock = threading.Lock()
        self.block_cache = None
        if options.block_cache_size > 0:
            self.block_cache = LRUCache(options.block_cache_size)

    def get(self, file_number: int) -> SSTable:
        with self._lock:
            table = self._tables.get(file_number)
            if table is not None:
                self.hits += 1
                self._tables.move_to_end(file_number)
                return table
            self.misses += 1
        # Opening reads the footer/index/filter blocks — do the I/O outside
        # the lock.  A racing open of the same table is harmless: the first
        # insert wins the cache slot, and the loser closes its own handle.
        table = SSTable.open(self.vfs, self.db_name, self.options,
                             file_number)
        table._block_cache = self.block_cache
        with self._lock:
            cached = self._tables.setdefault(file_number, table)
            if cached is table:
                self.filter_degradations += len(table.degraded_filters)
                while len(self._tables) > self.max_open_files:
                    _number, evicted = self._tables.popitem(last=False)
                    evicted.evict_cached_blocks()
                    evicted.file.close()
                    self.evictions += 1
        if cached is not table:
            table.file.close()
        return cached

    def stats(self) -> dict[str, int]:
        return {
            "open_tables": len(self._tables),
            "max_open_files": self.max_open_files,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def evict(self, file_number: int) -> None:
        """Close ``file_number``'s reader and drop its cached blocks (its
        file is gone, or must not be read again)."""
        with self._lock:
            table = self._tables.pop(file_number, None)
        if table is not None:
            table.evict_cached_blocks()
            table.file.close()

    def close(self) -> None:
        # Drop the block cache too: a DB is part of a reference cycle (its
        # compactor holds its bound methods), so a cache it kept would stay
        # alive until the cyclic collector ran.
        with self._lock:
            tables = list(self._tables.values())
            self._tables.clear()
            self.block_cache = None
        for table in tables:
            table.file.close()

    def __len__(self) -> int:
        return len(self._tables)
