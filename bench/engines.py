"""Shared set-up for the in-process workloads: geometry, counters, tracing.

Counters are read through public surfaces only — ``DB.stats()``,
``SecondaryIndexedDB.io_stats()``, ``vfs.stats`` and the
``ValidityChecker`` tallies — and summed over every table of every engine
a workload built, so one flat dict describes "what the ``lsm`` layer did"
between two points in time.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.options import Options

from calibrate import OPS_PER_SLICE, Calibrator
from spans import Tracer

#: The paper's LevelDB geometry scaled to a Python engine (DESIGN.md §1,
#: same values as ``benchmarks/harness.BENCH_OPTIONS``): 2 KiB blocks,
#: 16 KiB memtable and SSTables, 64 KiB L1.
PAPER_GEOMETRY = dict(block_size=2048, sstable_target_size=16 * 1024,
                      memtable_budget=16 * 1024, l1_target_size=64 * 1024)


def paper_options(**overrides: Any) -> Options:
    return Options(**{**PAPER_GEOMETRY, **overrides})


def preload(target: Any, puts: Iterable[tuple], oracle: Any,
            calibrator: Calibrator) -> None:
    """Apply a plan's preload PUTs, with calibration slices in between."""
    for position, (_put, key, document) in enumerate(puts):
        if position % OPS_PER_SLICE == 0:
            calibrator.slice()
        oracle.put(key, document, target.put(key, document))
    calibrator.slice()


def tables_of(sdb: SecondaryIndexedDB) -> list[DB]:
    """The primary table and every stand-alone index table."""
    tables = [sdb.primary]
    for index in sdb.indexes.values():
        index_db = getattr(index, "index_db", None)
        if index_db is not None:
            tables.append(index_db)
    return tables


def counters(engines: Iterable[SecondaryIndexedDB],
             extra_tables: Iterable[DB] = ()) -> dict[str, float]:
    """Summed public counters over ``engines`` (and bare ``extra_tables``)."""
    total: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0) + value

    tables: list[DB] = list(extra_tables)
    for sdb in engines:
        tables.extend(tables_of(sdb))
        add("validation_gets", sdb.checker.validation_gets)
        add("getlite_probes", sdb.checker.getlite_memory_only
            + sdb.checker.getlite_confirm_reads)
    seen_vfs: set[int] = set()
    for table in tables:
        stats = table.stats()
        for name in ("flush_count", "compaction_count", "bytes_compacted_in",
                     "bytes_compacted_out"):
            add(name, stats["compaction"][name])
        add("table_cache_hits", stats["table_cache"]["hits"])
        add("table_cache_misses", stats["table_cache"]["misses"])
        if stats["block_cache"] is not None:
            add("block_cache_hits", stats["block_cache"]["hits"])
            add("block_cache_misses", stats["block_cache"]["misses"])
        add("stall_events", stats["pipeline"]["stall_events"])
        if id(table.vfs) in seen_vfs:
            continue  # tables sharing one filesystem share its meters
        seen_vfs.add(id(table.vfs))
        io = table.vfs.stats
        add("read_blocks", io.read_blocks)
        add("write_blocks", io.write_blocks)
        add("write_bytes", io.write_bytes)
        for category, blocks in io.reads_by_category.items():
            add(f"read.{category}", blocks)
        for category, blocks in io.writes_by_category.items():
            add(f"write.{category}", blocks)
    # Reads a caller waited for: everything but compaction's own reads.
    total["query_read_blocks"] = \
        total.get("read_blocks", 0) - total.get("read.compaction", 0)
    return total


def delta(later: dict[str, float], earlier: dict[str, float]
          ) -> dict[str, float]:
    return {name: value - earlier.get(name, 0)
            for name, value in later.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sum_counters(parts: Iterable[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total.get(name, 0) + value
    return total


def merge_samples(parts: Iterable[dict[str, list[float]]]
                  ) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = {}
    for part in parts:
        for label, samples in part.items():
            merged.setdefault(label, []).extend(samples)
    return merged


# -- tracing -----------------------------------------------------------------

_CORE_CALLS = ("put", "get", "delete", "lookup", "range_lookup")
# Innermost public entry points only: get() and scan() are thin shells over
# get_with_seq() and scan_with_seq(), and wrapping both would time one call
# twice.
_LSM_CALLS = ("put", "delete", "merge", "get_with_seq", "fragments_by_level",
              "key_maybe_in_levels", "flush")
_LSM_GENERATORS = ("scan_with_seq", "scan_level")


def trace_table(tracer: Tracer, table: DB) -> None:
    """Spans around one LSM table's public read and write calls."""
    for call in _LSM_CALLS:
        tracer.wrap(table, call, f"lsm.{call}")
    for call in _LSM_GENERATORS:
        tracer.wrap_generator(table, call, f"lsm.{call}")
    # The Embedded index walks SSTables it fetches straight from the table
    # cache; this is the one place that shows up from outside.
    tracer.wrap(table.table_cache, "get", "lsm.table_cache_get")


def trace_engine(tracer: Tracer, sdb: SecondaryIndexedDB) -> None:
    """Spans around one engine: ``core.*`` on the facade, ``lsm.*`` below."""
    for call in _CORE_CALLS:
        tracer.wrap(sdb, call, f"core.{call}")
    for table in tables_of(sdb):
        trace_table(tracer, table)
