"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper's
Section 5 at laptop scale.  The shared pieces here are:

* the scaled engine geometry (``BENCH_OPTIONS``) and dataset shape
  (``BENCH_PROFILE``: 200 users over 6000 tweets ≈ the paper's 30 tweets
  per user average);
* ``build_static`` — the Static-workload build phase for one index variant;
* ``ResultTable`` — collects paper-style rows and writes them under
  ``benchmarks/results/`` so `EXPERIMENTS.md` can cite exact numbers.

Latency is measured with pytest-benchmark; I/O is measured with the VFS
meters, which is the paper's primary metric (deterministic block counts
rather than hardware-dependent seek times).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options
from repro.workloads.generator import StaticWorkload
from repro.workloads.tweets import SeedProfile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Scaled-down LevelDB geometry (see DESIGN.md §1 for the scaling argument).
BENCH_OPTIONS = Options(
    block_size=2048,
    sstable_target_size=16 * 1024,
    memtable_budget=16 * 1024,
    l1_target_size=64 * 1024,
)

#: 200 users, Zipf rank-frequency, ~30 tweets per user at N_TWEETS=6000 —
#: matching the seed dataset's "average number of tweets per user is 30".
BENCH_PROFILE = SeedProfile(num_users=200)

N_TWEETS = 6000

ALL_KINDS = [IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
             IndexKind.COMPOSITE, IndexKind.NOINDEX]
#: The variants the paper keeps after declaring Eager "unusable".
SURVIVOR_KINDS = [IndexKind.EMBEDDED, IndexKind.LAZY, IndexKind.COMPOSITE,
                  IndexKind.NOINDEX]
STANDALONE_KINDS = [IndexKind.EAGER, IndexKind.LAZY, IndexKind.COMPOSITE]

ATTRIBUTES = ("UserID", "CreationTime")


def bench_options(**overrides) -> Options:
    return replace(BENCH_OPTIONS, **overrides)


def build_static(kind: IndexKind, num_tweets: int = N_TWEETS,
                 attributes: tuple[str, ...] = ATTRIBUTES,
                 options: Options | None = None,
                 seed: int = 2018) -> tuple[SecondaryIndexedDB, StaticWorkload]:
    """The Static workload's build phase for one index variant."""
    workload = StaticWorkload(num_tweets=num_tweets, profile=BENCH_PROFILE,
                              seed=seed)
    db = SecondaryIndexedDB.open_memory(
        indexes={attr: kind for attr in attributes},
        options=options or BENCH_OPTIONS)
    for op in workload.load_phase():
        db.put(op.key, op.document)
    return db, workload


def open_all_tables(db: SecondaryIndexedDB) -> None:
    """Untimed warm-up: open every SSTable of the primary and index tables.

    A table's first touch loads its index and filter blocks; without this
    the query pass that happens to run first is billed for opening the
    tables every later pass then finds open (Fig. 10a's old Embedded K=1
    row: 14.7 "blocks per lookup", 13.8 of them table opens).
    """
    tables = [db.primary] + [index.index_db for index in db.indexes.values()
                             if hasattr(index, "index_db")]
    for table in tables:
        for _level, meta in table.versions.current.all_files():
            table.table_cache.get(meta.file_number)


def index_io(db: SecondaryIndexedDB) -> dict[str, int]:
    """Aggregated index-table I/O meters (0s when no index table exists)."""
    read = write = compaction = 0
    seen = {id(db.primary.vfs)}
    for index in db.indexes.values():
        index_db = getattr(index, "index_db", None)
        if index_db is None or id(index_db.vfs) in seen:
            continue
        seen.add(id(index_db.vfs))
        stats = index_db.vfs.stats
        read += stats.read_blocks
        write += stats.write_blocks
        compaction += (stats.reads_by_category.get("compaction", 0)
                       + stats.writes_by_category.get("compaction", 0)
                       + stats.writes_by_category.get("flush", 0))
    return {"read": read, "write": write, "compaction": compaction}


_MIXED_CACHE: dict = {}

MIXED_NUM_OPS = 4000


def get_mixed_report(kind: IndexKind, workload_name: str):
    """Memoized Mixed-workload run (shared by the Figure 12 and 13-15
    benches, which report different views of the same experiment)."""
    key = (kind, workload_name)
    if key not in _MIXED_CACHE:
        from repro.workloads.generator import MIXED_RATIOS, MixedWorkload
        from repro.workloads.runner import WorkloadRunner

        workload = MixedWorkload(
            num_operations=MIXED_NUM_OPS,
            ratios=MIXED_RATIOS[workload_name],
            profile=BENCH_PROFILE,
            lookup_attribute="UserID",
            lookup_k=5,
            seed=31,
        )
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind}, options=BENCH_OPTIONS)
        report = WorkloadRunner(db, sample_every=MIXED_NUM_OPS // 8).run(
            workload.operations())
        final_compaction = index_io(db)["compaction"]
        db.close()
        _MIXED_CACHE[key] = (report, final_compaction)
    return _MIXED_CACHE[key]


class ResultTable:
    """Fixed-width result table written to ``benchmarks/results/``."""

    def __init__(self, name: str, title: str, columns: list[str]) -> None:
        self.name = name
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []
        self.notes: list[str] = []

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([_fmt(value) for value in values])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(col.ljust(widths[i])
                           for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }

    def write(self) -> str:
        """Write ``results/<name>.txt`` plus a machine-readable JSON twin.

        The ``.txt`` rendering is for humans and EXPERIMENTS.md citations;
        the ``.json`` twin (same rows, same order) is what trend tooling
        and the CI benchmark gate consume.
        """
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write(self.render())
        json_path = os.path.join(RESULTS_DIR, f"{self.name}.json")
        with open(json_path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75) — the paper reports query latencies as
    box-and-whisker plots, so the benches report the box."""
    if not samples:
        return (0.0, 0.0, 0.0)
    ordered = sorted(samples)

    def pick(fraction: float) -> float:
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    return (pick(0.25), pick(0.5), pick(0.75))


def timed_queries(queries) -> tuple[list[float], float]:
    """Run callables one by one; returns (per-query µs, total seconds)."""
    import time

    latencies = []
    started = time.perf_counter()
    for query in queries:
        began = time.perf_counter()
        query()
        latencies.append((time.perf_counter() - began) * 1e6)
    return latencies, time.perf_counter() - started


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)
