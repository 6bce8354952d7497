"""The shared-memory block cache (cross-process, seqlock slots)."""

import zlib

import pytest

from repro.lsm.block import BlockBuilder
from repro.lsm.cache import LRUCache
from repro.lsm.options import Options
from repro.lsm.shmcache import (
    _SLOT_HEADER,
    SharedBlockCache,
    ShmBackedBlockCache,
    slot_payload_bytes,
)


@pytest.fixture
def cache():
    shared = SharedBlockCache.create(64 * 1024, 4096)
    yield shared
    shared.close()


class TestSharedBlockCache:
    def test_put_get_roundtrip(self, cache):
        payload = b"block-payload" * 100
        assert cache.put((7, 4096), payload)
        assert cache.get((7, 4096)) == payload
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_on_absent_key(self, cache):
        assert cache.get((1, 0)) is None
        assert cache.misses == 1

    def test_attach_sees_owner_writes(self, cache):
        cache.put((3, 128), b"shared-bytes")
        other = SharedBlockCache.attach(cache.name)
        try:
            assert other.get((3, 128)) == b"shared-bytes"
            other.put((4, 256), b"from-attacher")
        finally:
            other.close()
        assert cache.get((4, 256)) == b"from-attacher"

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(ValueError):
                SharedBlockCache.attach(shm.name)
        finally:
            shm.close()
            shm.unlink()

    def test_oversized_payload_declined(self, cache):
        assert not cache.put((1, 0), b"x" * (cache.slot_bytes + 1))
        assert cache.store_skips == 1
        assert cache.get((1, 0)) is None

    def test_colliding_key_overwrites_and_counts_eviction(self, cache):
        # Same slot, different key: direct-mapped placement means the
        # second store displaces the first.
        key_a = (1, 0)
        slot = cache._slot_offset(*key_a)
        key_b = None
        for number in range(2, 10_000):
            if cache._slot_offset(number, 0) == slot:
                key_b = (number, 0)
                break
        assert key_b is not None, "no colliding key found"
        cache.put(key_a, b"first")
        cache.put(key_b, b"second")
        assert cache.evictions == 1
        assert cache.get(key_a) is None
        assert cache.get(key_b) == b"second"

    def test_torn_slot_reads_as_miss(self, cache):
        payload = b"will-be-torn" * 50
        cache.put((9, 512), payload)
        # Corrupt one payload byte behind the cache's back: the slot CRC
        # must catch it (this is the multi-writer race's failure mode).
        base = cache._slot_offset(9, 512)
        start = base + 32  # past the slot header
        cache._buf[start] ^= 0xFF
        assert cache.get((9, 512)) is None

    def test_writer_in_progress_slot_is_skipped(self, cache):
        cache.put((2, 64), b"stable")
        base = cache._slot_offset(2, 64)
        gen, length, crc, number, offset = _SLOT_HEADER.unpack_from(
            cache._buf, base)
        _SLOT_HEADER.pack_into(cache._buf, base, gen | 1, length, crc,
                               number, offset)
        assert cache.get((2, 64)) is None       # odd gen: mid-write
        assert not cache.put((2, 64), b"nope")  # writers decline too
        assert cache.store_skips == 1

    def test_evict_and_evict_file(self, cache):
        for offset in (0, 4096, 8192):
            cache.put((5, offset), b"five")
        cache.put((6, 0), b"six")
        assert cache.evict((5, 0))
        assert cache.get((5, 0)) is None
        assert cache.evict_file(5) == 2
        assert cache.get((5, 4096)) is None
        assert cache.get((6, 0)) == b"six"

    def test_stats_dict_shape(self, cache):
        stats = cache.stats_dict()
        assert set(stats) == {"slot_count", "slot_bytes", "hits", "misses",
                              "stores", "store_skips", "evictions"}


class TestSlotSizing:
    def test_defaults_to_twice_block_size(self):
        assert slot_payload_bytes(Options(block_size=4096)) == 8192


def _block_payload(items):
    builder = BlockBuilder(restart_interval=4)
    for user_key, value in items:
        builder.add(user_key + bytes(8), value)  # 8-byte seq/kind trailer
    return builder.finish()


class TestShmBackedBlockCache:
    def test_shm_hit_decodes_and_backfills_local(self, cache):
        payload = _block_payload([(b"a", b"1"), (b"b", b"2")])
        cache.put((1, 0), payload)
        local = LRUCache(1 << 20)
        layered = ShmBackedBlockCache(cache, local)
        block = layered.get((1, 0))
        assert block is not None
        assert block.data == payload
        assert local.get((1, 0)) is block  # back-filled, decoded once

    def test_put_populates_both_layers(self, cache):
        from repro.lsm.block import Block

        payload = _block_payload([(b"k", b"v")])
        local = LRUCache(1 << 20)
        layered = ShmBackedBlockCache(cache, local)
        layered.put((2, 0), Block(payload), len(payload))
        assert cache.get((2, 0)) == payload
        fresh = ShmBackedBlockCache(cache, None)
        assert fresh.get((2, 0)).data == payload

    def test_evict_file_sweeps_both_layers(self, cache):
        from repro.lsm.block import Block

        payload = _block_payload([(b"k", b"v")])
        local = LRUCache(1 << 20)
        layered = ShmBackedBlockCache(cache, local)
        layered.put((3, 0), Block(payload), len(payload))
        layered.put((3, 4096), Block(payload), len(payload))
        assert layered.evict_file(3) >= 2
        assert layered.get((3, 0)) is None
        assert cache.get((3, 4096)) is None

    def test_works_without_local_lru(self, cache):
        from repro.lsm.block import Block

        payload = _block_payload([(b"k", b"v")])
        layered = ShmBackedBlockCache(cache, None)
        layered.put((4, 0), Block(payload), len(payload))
        assert layered.get((4, 0)).data == payload
        assert layered.get((5, 0)) is None
        assert layered.capacity == cache.slot_count * cache.slot_bytes
        assert layered.used_bytes == 0

    def test_payload_crc_matches_zlib_crc32(self, cache):
        # The slot CRC is plain crc32 over the payload — pin that so a
        # future "optimization" can't silently weaken torn-read detection.
        payload = b"pinned"
        cache.put((8, 0), payload)
        base = cache._slot_offset(8, 0)
        crc = _SLOT_HEADER.unpack_from(cache._buf, base)[2]
        assert crc == zlib.crc32(payload) & 0xFFFFFFFF
