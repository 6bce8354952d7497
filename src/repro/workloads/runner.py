"""Workload execution and measurement.

The runner applies an operation stream to a
:class:`~repro.core.database.SecondaryIndexedDB`, accumulating per-operation
wall time and — the paper's primary metric — per-table I/O-meter series
sampled every ``sample_every`` operations ("we record the performance once
per million operations"; scaled here).  The sampled series feed Figures 9
and 12-15 directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.database import SecondaryIndexedDB
from repro.workloads.ops import Delete, Get, Lookup, Operation, Put, RangeLookup


def nearest_rank_index(fraction: float, n: int) -> int:
    """Index of the nearest-rank percentile in a sorted list of ``n``.

    The nearest-rank definition: the p-th percentile is the smallest
    value with at least ``p`` of the sample at or below it, i.e. rank
    ``ceil(fraction * n)`` (1-based).  The naive ``int(fraction * n)``
    is off by one — p50 of two samples would pick the *larger* — and
    only the clamp kept p100 in bounds.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return min(n - 1, max(0, math.ceil(fraction * n) - 1))


@dataclass
class Sample:
    """One point of the time series recorded during a run."""

    ops_done: int
    elapsed_seconds: float
    primary_read_blocks: int
    primary_write_blocks: int
    index_read_blocks: int
    index_write_blocks: int
    primary_compaction_blocks: int
    index_compaction_blocks: int


@dataclass
class RunReport:
    """Aggregate results of one workload run."""

    op_counts: dict[str, int] = field(default_factory=dict)
    op_seconds: dict[str, float] = field(default_factory=dict)
    samples: list[Sample] = field(default_factory=list)
    #: Device blocks read, attributed to the operation type that caused
    #: them (Figures 13-15 plot GET and LOOKUP read I/O separately).
    read_blocks_by_op: dict[str, int] = field(default_factory=dict)
    write_blocks_by_op: dict[str, int] = field(default_factory=dict)

    @property
    def total_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.op_seconds.values())

    def mean_micros(self, op_name: str | None = None) -> float:
        """Mean microseconds per operation (of one type, or overall)."""
        if op_name is None:
            ops = self.total_ops
            seconds = self.total_seconds
        else:
            ops = self.op_counts.get(op_name, 0)
            seconds = self.op_seconds.get(op_name, 0.0)
        if ops == 0:
            return 0.0
        return seconds * 1e6 / ops


class WorkloadRunner:
    """Executes operations against one database, metering as it goes."""

    def __init__(self, db: SecondaryIndexedDB,
                 sample_every: int = 1000) -> None:
        self.db = db
        self.sample_every = sample_every

    def run(self, operations: Iterable[Operation]) -> RunReport:
        report = RunReport()
        done = 0
        meters = self._all_meters()
        for operation in operations:
            reads_before = sum(stats.read_blocks for stats in meters)
            writes_before = sum(stats.write_blocks for stats in meters)
            started = time.perf_counter()
            self._apply(operation)
            elapsed = time.perf_counter() - started
            name = operation.op_name
            report.op_counts[name] = report.op_counts.get(name, 0) + 1
            report.op_seconds[name] = report.op_seconds.get(name, 0.0) \
                + elapsed
            report.read_blocks_by_op[name] = \
                report.read_blocks_by_op.get(name, 0) \
                + sum(stats.read_blocks for stats in meters) - reads_before
            report.write_blocks_by_op[name] = \
                report.write_blocks_by_op.get(name, 0) \
                + sum(stats.write_blocks for stats in meters) - writes_before
            done += 1
            if done % self.sample_every == 0:
                report.samples.append(self._sample(done, report))
        report.samples.append(self._sample(done, report))
        return report

    def _all_meters(self) -> list:
        """The distinct IOStats objects of every table in the database."""
        meters = []
        for _label, table in self.db.tables():
            if all(table.vfs.stats is not stats for stats in meters):
                meters.append(table.vfs.stats)
        return meters

    def _apply(self, operation: Operation) -> None:
        if isinstance(operation, Put):
            self.db.put(operation.key, operation.document)
        elif isinstance(operation, Get):
            self.db.get(operation.key)
        elif isinstance(operation, Delete):
            self.db.delete(operation.key)
        elif isinstance(operation, Lookup):
            self.db.lookup(operation.attribute, operation.value, operation.k)
        elif isinstance(operation, RangeLookup):
            self.db.range_lookup(operation.attribute, operation.low,
                                 operation.high, operation.k)
        else:
            raise TypeError(f"unknown operation: {operation!r}")

    def _sample(self, done: int, report: RunReport) -> Sample:
        primary_stats = self.db.primary.vfs.stats
        index_read = index_write = index_compaction = 0
        seen_vfs = {id(self.db.primary.vfs)}
        for _label, index_db in self.db.tables():
            stats = index_db.vfs.stats
            if id(index_db.vfs) in seen_vfs:
                continue  # the primary, or a VFS shared with it
            seen_vfs.add(id(index_db.vfs))
            index_read += stats.read_blocks
            index_write += stats.write_blocks
            index_compaction += (
                stats.reads_by_category.get("compaction", 0)
                + stats.writes_by_category.get("compaction", 0)
                + stats.writes_by_category.get("flush", 0))
        return Sample(
            ops_done=done,
            elapsed_seconds=report.total_seconds,
            primary_read_blocks=primary_stats.read_blocks,
            primary_write_blocks=primary_stats.write_blocks,
            index_read_blocks=index_read,
            index_write_blocks=index_write,
            primary_compaction_blocks=(
                primary_stats.reads_by_category.get("compaction", 0)
                + primary_stats.writes_by_category.get("compaction", 0)
                + primary_stats.writes_by_category.get("flush", 0)),
            index_compaction_blocks=index_compaction,
        )
