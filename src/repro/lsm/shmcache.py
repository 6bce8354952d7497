"""Cross-process block cache over ``multiprocessing.shared_memory``.

The multiprocess compaction pipeline (DESIGN.md §11) splits CPU across
interpreters, but a worker that just wrote and verified a data block would
otherwise throw the decoded bytes away — the serving process re-reads and
re-decompresses them on first touch.  :class:`SharedBlockCache` closes that
gap: one fixed-size shared-memory segment holds decompressed, CRC-guarded
data-block payloads keyed by ``(file_number, offset)`` (the same key the
per-process :class:`~repro.lsm.cache.LRUCache` uses), writable and readable
from every participating process without locks.

Layout::

    [header: magic u32 | slot_size u32 | slot_count u32 | pad]
    [slot 0] [slot 1] ... [slot N-1]

    slot := generation u32 | length u32 | payload_crc u32
            | file_number u64 | offset u64 | pad to 32 | payload bytes

Concurrency is a per-slot *seqlock* with optimistic writers:

* A writer reads the generation; odd means another writer is mid-store, so
  it simply skips (a cache may always decline).  Otherwise it bumps the
  generation to odd, writes key + payload, and bumps it back to even.
* A reader snapshots the generation (odd => miss), copies the slot, and
  re-reads the generation; any change => miss.
* Two racing writers can both pass the odd-check and interleave — the
  classic multi-writer seqlock hole.  That is why every payload carries its
  own CRC32: a torn slot fails the checksum and reads as a miss, never as
  wrong bytes.  The cache is an accelerator; correctness never depends on
  a hit.

Placement is direct-mapped (one slot per key hash), so "eviction" is just
overwrite — no shared free lists or LRU chains to coordinate.  Each
participant keeps private hit/miss/store counters; workers report theirs
back over the job pipe for ``DB.stats()["pipeline"]``.
"""

from __future__ import annotations

import struct
import zlib
from multiprocessing import shared_memory

from repro.lsm.block import Block
from repro.lsm.cache import LRUCache

_HEADER = struct.Struct("<III")
_HEADER_SIZE = 16
_SLOT_HEADER = struct.Struct("<IIIQQ")
_SLOT_HEADER_SIZE = 32
_MAGIC = 0x53484D42  # "SHMB"

#: Mixing constants (splitmix64 / xxhash odd multipliers) for the
#: direct-map placement; must be identical in every participant.
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1


def slot_payload_bytes(options) -> int:
    """Per-slot payload capacity: ``2 * block_size`` fits every block the
    builder cuts except pathological single-entry blocks, which are simply
    not shared."""
    return 2 * options.block_size


class SharedBlockCache:
    """One participant's handle on the shared segment.

    Create exactly one segment per DB (the coordinator owns and unlinks
    it); workers :meth:`attach` by name.  All counters are local to the
    handle — shared counters would need the cross-process synchronisation
    this design exists to avoid.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slot_bytes: int,
                 slot_count: int, owner: bool) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.slot_bytes = slot_bytes
        self.slot_count = slot_count
        self._owner = owner
        self._slot_stride = _SLOT_HEADER_SIZE + slot_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_skips = 0  # too big, slot busy, or lost a writer race
        self.evictions = 0    # stores that overwrote a different live key

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, capacity_bytes: int, slot_bytes: int) -> "SharedBlockCache":
        stride = _SLOT_HEADER_SIZE + slot_bytes
        slot_count = max(1, (capacity_bytes - _HEADER_SIZE) // stride)
        size = _HEADER_SIZE + slot_count * stride
        shm = shared_memory.SharedMemory(create=True, size=size)
        shm.buf[:size] = b"\x00" * size
        _HEADER.pack_into(shm.buf, 0, _MAGIC, slot_bytes, slot_count)
        return cls(shm, slot_bytes, slot_count, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedBlockCache":
        shm = _attach_untracked(name)
        magic, slot_bytes, slot_count = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"shared segment {name!r} is not a block cache")
        return cls(shm, slot_bytes, slot_count, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._buf = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    # -- slot access --------------------------------------------------------

    def _slot_offset(self, file_number: int, offset: int) -> int:
        mixed = ((file_number * _MIX_A) + (offset * _MIX_B)) & _MASK64
        return _HEADER_SIZE + (mixed % self.slot_count) * self._slot_stride

    def get(self, key: tuple[int, int]) -> bytes | None:
        """The cached payload for ``key``, or ``None``.

        Returned bytes are a private copy, CRC-verified against the slot's
        stored checksum — torn or recycled slots surface as misses.
        """
        file_number, offset = key
        base = self._slot_offset(file_number, offset)
        buf = self._buf
        gen1, length, crc, slot_file, slot_off = _SLOT_HEADER.unpack_from(
            buf, base)
        if (gen1 & 1) or length == 0 or length > self.slot_bytes \
                or slot_file != file_number or slot_off != offset:
            self.misses += 1
            return None
        start = base + _SLOT_HEADER_SIZE
        payload = bytes(buf[start:start + length])
        gen2 = _SLOT_HEADER.unpack_from(buf, base)[0]
        if gen2 != gen1 or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: tuple[int, int], payload: bytes) -> bool:
        """Store ``payload`` under ``key``; False if declined (never fails)."""
        length = len(payload)
        if length == 0 or length > self.slot_bytes:
            self.store_skips += 1
            return False
        file_number, offset = key
        base = self._slot_offset(file_number, offset)
        buf = self._buf
        gen, old_len, _crc, old_file, old_off = _SLOT_HEADER.unpack_from(
            buf, base)
        if gen & 1:  # another writer mid-store: decline rather than race
            self.store_skips += 1
            return False
        if old_len and (old_file, old_off) != (file_number, offset):
            self.evictions += 1
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        next_gen = (gen + 1) & 0xFFFFFFFF
        _SLOT_HEADER.pack_into(buf, base, next_gen, length, crc,
                               file_number, offset)
        start = base + _SLOT_HEADER_SIZE
        buf[start:start + length] = payload
        _SLOT_HEADER.pack_into(buf, base, (next_gen + 1) & 0xFFFFFFFF,
                               length, crc, file_number, offset)
        self.stores += 1
        return True

    def evict(self, key: tuple[int, int]) -> bool:
        """Invalidate ``key``'s slot if it holds that key (poison control)."""
        file_number, offset = key
        base = self._slot_offset(file_number, offset)
        gen, length, _crc, slot_file, slot_off = _SLOT_HEADER.unpack_from(
            self._buf, base)
        if length == 0 or slot_file != file_number or slot_off != offset:
            return False
        _SLOT_HEADER.pack_into(self._buf, base, (gen + 2) & 0xFFFFFFFE,
                               0, 0, 0, 0)
        return True

    def evict_file(self, file_number: int) -> int:
        """Invalidate every slot holding a block of ``file_number``.

        Quarantine path: a table whose bytes are suspect must not keep
        serving any block from any cache, shared ones included.  Linear
        scan — this is a containment event, not a hot path.
        """
        dropped = 0
        buf = self._buf
        for slot in range(self.slot_count):
            base = _HEADER_SIZE + slot * self._slot_stride
            gen, length, _crc, slot_file, _off = _SLOT_HEADER.unpack_from(
                buf, base)
            if length and slot_file == file_number:
                _SLOT_HEADER.pack_into(buf, base, (gen + 2) & 0xFFFFFFFE,
                                       0, 0, 0, 0)
                dropped += 1
        return dropped

    def stats_dict(self) -> dict[str, int]:
        return {
            "slot_count": self.slot_count,
            "slot_bytes": self.slot_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_skips": self.store_skips,
            "evictions": self.evictions,
        }


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering with the resource tracker.

    The tracker would otherwise unlink the segment when *any* attaching
    process exits — and spawned workers share the coordinator's tracker
    process, so even an ``unregister`` after the fact would erase the
    owner's registration (seen as a ``KeyError`` in the tracker at exit).
    Python 3.13 grew ``track=False`` for exactly this; on 3.11 the escape
    hatch is suppressing ``register`` around the attach (bpo-39959).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class ShmBackedBlockCache:
    """The ``SSTable._block_cache`` facade layering shm behind a local LRU.

    Lookup order: local LRU (decoded :class:`Block` objects, zero copy) ->
    shared segment (payload bytes; a hit decodes and back-fills the local
    LRU, skipping disk, CRC and decompression) -> miss.  Stores go to both.
    Presents the same ``get``/``put``/``evict``/``evict_file`` + ``stats``
    surface as :class:`~repro.lsm.cache.LRUCache`, so the table cache and
    ``DB.stats`` treat either interchangeably.
    """

    def __init__(self, shared: SharedBlockCache,
                 local: LRUCache | None) -> None:
        self.shared = shared
        self.local = local
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if self.local is not None:
            block = self.local.get(key)
            if block is not None:
                self.hits += 1
                return block
        payload = self.shared.get(key)
        if payload is not None:
            self.hits += 1
            block = Block(payload)
            if self.local is not None:
                self.local.put(key, block, len(payload))
            return block
        self.misses += 1
        return None

    def put(self, key, block, size: int) -> None:
        if self.local is not None:
            self.local.put(key, block, size)
        self.shared.put(key, block.data)

    def evict(self, key) -> bool:
        dropped = False
        if self.local is not None:
            dropped = self.local.evict(key)
        return self.shared.evict(key) or dropped

    def evict_file(self, file_number: int) -> int:
        dropped = 0
        if self.local is not None:
            dropped = self.local.evict_file(file_number)
        return dropped + self.shared.evict_file(file_number)

    @property
    def capacity(self) -> int:
        local = self.local.capacity if self.local is not None else 0
        return local + self.shared.slot_count * self.shared.slot_bytes

    @property
    def used_bytes(self) -> int:
        return self.local.used_bytes if self.local is not None else 0

    stats = LRUCache.stats
