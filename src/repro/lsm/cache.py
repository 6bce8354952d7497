"""Caches: a block cache for decompressed blocks and an OS buffer-cache model.

Two distinct caches appear in the paper:

* LevelDB's optional **block cache** holds decompressed data blocks.  The
  paper ran with it *disabled* ("No block cache was used"), so
  :class:`LRUCache` defaults to off, but it is available for the cache-size
  ablation bench.  It holds only live tables' blocks: compaction reads its
  inputs without filling it, and a table whose reader is dropped — its
  file deleted, discarded or quarantined, or its reader closed by the
  table cache — takes its blocks out by their keys
  (:meth:`~repro.lsm.sstable.SSTable.evict_cached_blocks`).  A cached
  block costs its decompressed bytes (its charge) plus, once served
  twice, its search arrays, and, once scanned, its scan memo
  (:class:`~repro.lsm.block.Block`).

* The **OS buffer cache** caches raw device blocks and is responsible for
  the inflection points in Figure 12: once the database outgrows RAM, GETs
  start missing the page cache, and every compaction rewrites files at new
  offsets which invalidates previously cached pages.
  :class:`BufferCacheSimulator` wraps a VFS and models exactly that —
  page-granular LRU with whole-file invalidation on delete — serving hits
  without charging the I/O meters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.lsm.vfs import (
    DEVICE_BLOCK_SIZE,
    Category,
    RandomAccessFile,
    VFS,
    WritableFile,
)


class LRUCache:
    """Size-bounded LRU map used as the (decompressed-)block cache.

    Server threads read through it while the background thread evicts a
    retired table's blocks, so every operation holds one lock.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, size: int) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                # Replaced or, if the new value is uncacheable, dropped: a
                # stale value under the key must not be served.
                self._used -= old[1]
            if self.capacity <= 0 or size > self.capacity:
                return
            self._entries[key] = (value, size)
            self._used += size
            while self._used > self.capacity:
                _key, (_value, evicted_size) = self._entries.popitem(
                    last=False)
                self._used -= evicted_size

    def evict(self, key: Hashable) -> bool:
        """Drop ``key`` if cached (a poisoned or dead entry); True if it was.

        A block whose re-read failed CRC must never be served from cache
        again — not even after the underlying file heals — so corruption
        handling evicts eagerly rather than waiting for LRU pressure.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._used -= entry[1]
            return True

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def stats(self) -> dict[str, int]:
        return {
            "capacity_bytes": self.capacity,
            "used_bytes": self.used_bytes,
            "blocks": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


class BufferCacheSimulator(VFS):
    """VFS wrapper modelling the operating system's page cache.

    Reads whose device pages are all resident are served without charging
    the underlying I/O meters (a "RAM hit"); missing pages are charged and
    then inserted.  Writes populate the cache (a freshly written page is hot
    in a real page cache too).  Deleting a file drops all of its pages —
    this is the compaction-invalidates-the-cache effect the paper discusses
    around Figure 12.
    """

    def __init__(self, base: VFS, capacity_bytes: int) -> None:
        super().__init__()
        self.base = base
        self.stats = base.stats  # shared meters: misses charge the base VFS
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()
        self._capacity_pages = max(0, capacity_bytes // DEVICE_BLOCK_SIZE)
        self.hits = 0
        self.misses = 0

    # -- page bookkeeping ---------------------------------------------------

    def _touch(self, name: str, page: int) -> bool:
        """Mark ``(name, page)`` accessed; returns True if it was resident."""
        key = (name, page)
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        if self._capacity_pages > 0:
            self._pages[key] = None
            while len(self._pages) > self._capacity_pages:
                self._pages.popitem(last=False)
        return False

    def _drop_file(self, name: str) -> None:
        stale = [key for key in self._pages if key[0] == name]
        for key in stale:
            del self._pages[key]

    def invalidate_file(self, name: str) -> None:
        """Drop every resident page of ``name`` (corruption containment).

        When a table is quarantined its pages may hold rotten bytes; a
        later re-read must go to the device, not be served "from RAM".
        """
        self._drop_file(name)

    def _access(self, name: str, offset: int, length: int,
                category: Category, populate_only: bool) -> int:
        """Process an access; returns the number of *missing* pages.

        ``populate_only`` (writes) inserts pages without counting hit/miss.
        """
        if length <= 0:
            return 0
        first = offset // DEVICE_BLOCK_SIZE
        last = (offset + length - 1) // DEVICE_BLOCK_SIZE
        missing = 0
        for page in range(first, last + 1):
            resident = self._touch(name, page)
            if populate_only:
                continue
            if resident:
                self.hits += 1
            else:
                self.misses += 1
                missing += 1
        return missing

    # -- VFS interface ------------------------------------------------------

    def create(self, name: str) -> WritableFile:
        return _CachedWritable(self, name, self.base.create(name))

    def open_random(self, name: str) -> RandomAccessFile:
        return _CachedRandomAccess(self, name, self.base.open_random(name))

    def exists(self, name: str) -> bool:
        return self.base.exists(name)

    def delete(self, name: str) -> None:
        self.base.delete(name)
        self._drop_file(name)

    def rename(self, old: str, new: str) -> None:
        self.base.rename(old, new)
        self._drop_file(old)
        self._drop_file(new)

    def list_dir(self, prefix: str = "") -> list[str]:
        return self.base.list_dir(prefix)

    def file_size(self, name: str) -> int:
        return self.base.file_size(name)

    def reset_stats(self) -> None:
        """Start a fresh measurement epoch: zero I/O meters and hit/miss.

        Resident pages deliberately survive — a real OS page cache stays
        warm across an experiment's measurement boundary; only the
        counters are epoch-scoped.
        """
        self.base.reset_stats()
        self.stats = self.base.stats
        self.hits = 0
        self.misses = 0


class _CachedWritable(WritableFile):
    def __init__(self, cache: BufferCacheSimulator, name: str,
                 base: WritableFile) -> None:
        self._cache = cache
        self._name = name
        self._base = base

    def append(self, data: bytes, category: Category = Category.OTHER) -> None:
        offset = self._base.size
        self._base.append(data, category)
        self._cache._access(self._name, offset, len(data), category,
                            populate_only=True)

    def flush(self) -> None:
        self._base.flush()

    def sync(self) -> None:
        self._base.sync()

    def close(self) -> None:
        self._base.close()

    @property
    def size(self) -> int:
        return self._base.size


class _CachedRandomAccess(RandomAccessFile):
    def __init__(self, cache: BufferCacheSimulator, name: str,
                 base: RandomAccessFile) -> None:
        self._cache = cache
        self._name = name
        self._base = base

    def read_at(self, offset: int, length: int,
                category: Category = Category.DATA,
                charge: bool = True) -> bytes:
        if not charge:
            return self._base.read_at(offset, length, category, charge=False)
        missing = self._cache._access(self._name, offset, length, category,
                                      populate_only=False)
        if missing == 0:
            # Fully resident: serve "from RAM" — no device I/O charged.
            return self._base.read_at(offset, length, category, charge=False)
        data = self._base.read_at(offset, length, category, charge=False)
        self._cache.stats.record_read(missing * DEVICE_BLOCK_SIZE, category)
        return data

    def close(self) -> None:
        self._base.close()

    @property
    def size(self) -> int:
        return self._base.size
