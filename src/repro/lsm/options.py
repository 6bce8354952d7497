"""Engine configuration.

:class:`Options` collects every tunable of the storage engine in one
dataclass, mirroring LevelDB's ``Options`` struct.  The defaults are the
paper's LevelDB defaults scaled down by roughly 32x so that level structure
(multiple populated levels, frequent compactions) emerges at laptop-scale
dataset sizes: the relative shapes of the paper's experiments are driven by
the *number of levels* and the *block-to-dataset ratio*, both of which this
scaling preserves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

AttributeExtractor = Callable[[bytes], dict[str, Any]]
MergeOperator = Callable[[bytes, list[bytes]], bytes]
SequenceOracle = Callable[[int], int]
StepHook = Callable[[str], None]


def resolve_attribute_path(document: dict[str, Any], path: str) -> Any:
    """Value of ``path`` in ``document``; dots descend into sub-objects.

    ``resolve_attribute_path({"user": {"id": "u1"}}, "user.id") == "u1"``.
    A flat key containing the literal path wins over descent, so documents
    that happen to use dotted key names keep working.  Missing steps (or
    non-dict intermediates) yield ``None`` — the "attribute absent" value.
    """
    if path in document:
        return document[path]
    current: Any = document
    for step in path.split("."):
        if not isinstance(current, dict) or step not in current:
            return None
        current = current[step]
    return current


def json_attribute_extractor(value: bytes) -> dict[str, Any]:
    """Default extractor: parse the value as a JSON object.

    The paper stores secondary attributes inside the JSON value of each
    entry (``v = {A1: val(A1), ..., Al: val(Al)}``).  Non-JSON or non-object
    values simply expose no secondary attributes.
    """
    try:
        doc = json.loads(value)
    except (ValueError, UnicodeDecodeError):
        return {}
    return doc if isinstance(doc, dict) else {}


@dataclass
class Options:
    """Tunables for one :class:`repro.lsm.db.DB` instance.

    Attributes
    ----------
    block_size:
        Approximate uncompressed size of one SSTable data block.  LevelDB
        default is 4 KiB; the paper's I/O analysis counts accesses at this
        granularity.
    sstable_target_size:
        Compaction output files are cut when they reach this size (LevelDB
        uses 2 MiB; scaled here).
    memtable_budget:
        The MemTable is flushed once its approximate memory usage exceeds
        this budget (LevelDB's ``write_buffer_size``).
    l0_compaction_trigger:
        Number of level-0 files that triggers an L0->L1 compaction.
    max_levels:
        Number of levels including level 0.
    l1_target_size / level_size_multiplier:
        Level *i* (i >= 1) holds at most
        ``l1_target_size * level_size_multiplier**(i-1)`` bytes; LevelDB uses
        10 MiB and 10x.
    bloom_bits_per_key:
        Bits per key of the *primary-key* bloom filter stored per data block.
    secondary_bloom_bits_per_key:
        Bits per key of each *secondary-attribute* bloom filter (the paper
        settled on 100 after the Appendix C.1 sweep).
    compression:
        ``"zlib"`` (stand-in for the paper's Snappy) or ``"none"``.
    compaction_style:
        ``"leveled"`` — LevelDB's partial merges: one round-robin-chosen
        file (or all of L0) merges with its overlap in the next level.
        ``"full_level"`` — AsterixDB's style, per the paper's Section 1
        remark that "in some [systems] like AsterixDB, lower levels have
        just one but larger SSTable": an over-budget level merges *whole*
        into the next one.  Fewer, bigger merges; every key of a level is
        rewritten each round.
    block_cache_size:
        LRU cache capacity in bytes for decompressed data blocks.  The paper
        ran with no block cache; 0 disables it.
    max_open_files:
        Bound on the table cache: how many opened SSTable readers (index
        block, bloom filters, zone maps — the memory-resident metadata) may
        be held at once before the least-recently-used reader is closed.
        The paper sets 30000 "so that most of the bloom filters and other
        metadata can reside in memory"; that stays the default.  Hit/miss
        counts are surfaced via :meth:`repro.lsm.db.DB.stats`.
    indexed_attributes:
        Secondary attributes for which the SSTable builder embeds per-block
        bloom filters and attribute columns, whose min/max are the blocks'
        zone maps (the Embedded Index of Section 3).
        Empty for index *tables* and for unindexed primary tables.
    attribute_extractor:
        Maps a stored value to its ``{attribute: value}`` dict; JSON by
        default.
    merge_operator:
        Combines merge operands during reads and compaction
        (``merge(user_key, operands_oldest_first) -> value``).  Required to
        use :meth:`repro.lsm.db.DB.merge`; the Lazy index supplies a
        posting-list union operator.
    sequence_oracle:
        ``allocate(count) -> first_seq``: an external monotonic sequence
        allocator.  When set, writes draw their sequence numbers from it
        instead of the local counter, making recency comparable *across*
        databases — the timestamp-oracle pattern the distributed layer
        (:mod:`repro.dist`) uses for cross-shard top-K.  Allocated numbers
        must exceed every previously returned number.
    paranoid_checks:
        Verify every block CRC on read (always on for meta blocks).  Off by
        default — the paper's I/O accounting reads data blocks without a
        per-read checksum pass — so silent bit rot in *data* blocks is only
        caught by scans/compactions that decode the block, by
        :meth:`repro.lsm.db.DB.verify_integrity`, or by the scrubber
        (:meth:`repro.lsm.db.DB.scrub`), both of which always verify
        regardless of this option (:mod:`repro.lsm.checker`).  See
        TUNING.md for the tradeoff.
    on_corruption:
        What a read does when a data block fails its integrity check.
        ``"raise"`` (default, LevelDB's behaviour) propagates
        :class:`~repro.lsm.errors.CorruptionError` to the caller.
        ``"quarantine"`` contains the damage instead: the affected table is
        quarantined (served around by reads, its blocks evicted from every
        cache, counted in ``DB.stats()["corruption"]``) and corrupt
        filter/bloom blocks degrade to filter-less reads — filters are
        advisory, so degraded reads stay correct, just slower.  Quarantined
        *index* tables can be rebuilt from the primary records
        (:meth:`repro.core.database.SecondaryIndexedDB.heal_indexes`).
    read_retries:
        Transient read errors (``EIO`` that is not a checksum failure) are
        retried up to ``read_retries`` times, back to back, before being
        treated as corruption.
    sync_writes:
        Fsync the WAL after every write batch (LocalVFS only).
    max_manifest_size:
        The manifest accumulates one edit per flush/compaction; past this
        size it is *rolled*: a fresh manifest holding one snapshot edit of
        the current state replaces it (LevelDB's manifest reuse policy).
        Keeps metadata from dominating "database size" on compaction-heavy
        tables.
    disable_auto_compaction:
        Flushes stop scheduling compactions; only
        :meth:`~repro.lsm.db.DB.compact_range` (or direct compactor calls)
        merge levels.  Used by experiments that isolate compaction cost.
        With compaction off, level 0 can genuinely pile up, so
        ``l0_stop_writes_trigger`` becomes a hard limit: writes raise
        :class:`~repro.lsm.errors.WriteStallError` beyond it — LevelDB's
        stop-writes backpressure, surfaced as an error instead of a sleep
        because this engine is synchronous.
    background_compaction:
        The maintenance scheduler (DESIGN.md §8).  Every write goes through
        one writer queue and seals a full MemTable behind a new WAL either
        way; this chooses who then flushes it and runs the compactions.
        Off (the default): the *inline* scheduler, in the writing thread,
        before the write returns — the synchronous engine whose outputs the
        paper's experiments and the golden vectors pin byte for byte.  On:
        the *threaded* scheduler, a background thread, while a fresh
        MemTable absorbs writes; write stalls then wait (slowdown pause at
        ``l0_slowdown_writes_trigger``, hard wait at
        ``l0_stop_writes_trigger``) for that thread.
    l0_slowdown_writes_trigger:
        A writer pauses briefly once level 0 holds this many files
        (LevelDB's soft backpressure), giving the background thread a head
        start before the hard stop trigger.
    slowdown_sleep_seconds:
        Length of one slowdown pause (LevelDB sleeps 1 ms).
    step_hook:
        Test-only instrumentation: when set, the engine calls
        ``step_hook(label)`` at the named yield points of the write
        pipeline (``"write:wal"``, ``"bg:flush:install"``, ...), and every
        internal wait spins through the hook instead of blocking on a
        condition variable.  The deterministic scheduler in the test
        suite's ``tests/scheduling.py`` uses this to serialise all threads
        and enumerate interleavings.  ``None`` (the default) costs nothing.
    """

    block_size: int = 4096
    sstable_target_size: int = 64 * 1024
    memtable_budget: int = 256 * 1024
    l0_compaction_trigger: int = 4
    l0_stop_writes_trigger: int = 12
    max_levels: int = 7
    l1_target_size: int = 512 * 1024
    level_size_multiplier: int = 10
    bloom_bits_per_key: int = 10
    secondary_bloom_bits_per_key: int = 100
    compression: str = "zlib"
    compaction_style: str = "leveled"
    block_cache_size: int = 0
    max_open_files: int = 30000
    indexed_attributes: tuple[str, ...] = ()
    attribute_extractor: AttributeExtractor = field(
        default=json_attribute_extractor, repr=False)
    merge_operator: MergeOperator | None = field(default=None, repr=False)
    sequence_oracle: SequenceOracle | None = field(default=None, repr=False)
    paranoid_checks: bool = False
    on_corruption: str = "raise"
    read_retries: int = 2
    sync_writes: bool = False
    disable_auto_compaction: bool = False
    max_manifest_size: int = 64 * 1024
    background_compaction: bool = False
    l0_slowdown_writes_trigger: int = 8
    slowdown_sleep_seconds: float = 0.001
    step_hook: StepHook | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.sstable_target_size < self.block_size:
            raise ValueError("sstable_target_size must be >= block_size")
        if self.max_levels < 2:
            raise ValueError("max_levels must be at least 2")
        if self.level_size_multiplier < 2:
            raise ValueError("level_size_multiplier must be at least 2")
        if self.compression not in ("zlib", "none"):
            raise ValueError(f"unknown compression: {self.compression!r}")
        if self.compaction_style not in ("leveled", "full_level"):
            raise ValueError(
                f"unknown compaction_style: {self.compaction_style!r}")
        if self.l0_stop_writes_trigger < self.l0_compaction_trigger:
            raise ValueError(
                "l0_stop_writes_trigger must be >= l0_compaction_trigger")
        # Keep the soft trigger inside [compaction_trigger, stop_trigger] so
        # callers tuning only the hard triggers get a coherent ladder.
        self.l0_slowdown_writes_trigger = min(
            max(self.l0_slowdown_writes_trigger, self.l0_compaction_trigger),
            self.l0_stop_writes_trigger)
        if self.max_open_files < 1:
            raise ValueError("max_open_files must be at least 1")
        if self.on_corruption not in ("raise", "quarantine"):
            raise ValueError(
                f"unknown on_corruption policy: {self.on_corruption!r}")
        if self.read_retries < 0:
            raise ValueError("read_retries must be >= 0")

    def max_bytes_for_level(self, level: int) -> float:
        """Size budget of ``level``; level 0 is governed by file count instead."""
        if level <= 0:
            return float("inf")
        return self.l1_target_size * (self.level_size_multiplier ** (level - 1))
