"""Ablation: LevelDB's leveled compaction vs AsterixDB's whole-level merges.

The paper contrasts the two layouts in Section 1 ("in some systems like
LevelDB, lower levels have more SSTables of the same size, and in some
like AsterixDB, lower levels have just one but larger SSTable") and
Section 4.2 leans on LevelDB's round-robin file choice to explain the
Composite index's loss of time order.  This ablation quantifies the
operational difference under the same ingest: merge granularity, total
compaction traffic, and Lazy-index fragment spread.
"""

import pytest

from harness import BENCH_PROFILE, ResultTable, bench_options

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.workloads.tweets import TweetGenerator

_N = 4000
_RESULTS: dict = {}

_TABLE = ResultTable(
    "ablation_compaction_style",
    "Ablation — leveled vs full-level compaction (Lazy UserID index)",
    ["style", "compactions", "trivial_moves", "avg_merge_kb",
     "compaction_write_blocks", "lookup_levels_per_query"])


def _run(style):
    options = bench_options(compaction_style=style)
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": IndexKind.LAZY}, options=options)
    generator = TweetGenerator(BENCH_PROFILE, seed=77)
    for key, doc in generator.tweets(_N):
        db.put(key, doc)
    return db


@pytest.mark.parametrize("style", ["leveled", "full_level"])
def test_ablation_compaction_style(benchmark, style):
    db = benchmark.pedantic(_run, args=(style,), rounds=1, iterations=1)
    stats = db.primary.compactor.stats
    index = db.indexes["UserID"]
    index_stats = index.index_db.compactor.stats
    # "compactions" counts every one picked; those that merged nothing (one
    # input, nothing below it: a manifest edit) are broken out, and the
    # average merge is over the ones that did merge.
    merges = stats.compaction_count + index_stats.compaction_count
    moves = stats.trivial_moves + index_stats.trivial_moves
    compactions = merges + moves
    merged_bytes = stats.bytes_compacted_in + index_stats.bytes_compacted_in
    write_blocks = (
        db.primary.vfs.stats.writes_by_category.get("compaction", 0)
        + index.index_db.vfs.stats.writes_by_category.get("compaction", 0))

    index.levels_visited = 0
    index.lookups = 0
    users = [f"u{r:05d}" for r in range(20)]
    for user in users:
        db.lookup("UserID", user, 10)
    levels_per_lookup = index.levels_visited / len(users)

    _TABLE.add(style, compactions, moves,
               f"{merged_bytes / max(1, merges) / 1024:.1f}",
               write_blocks, f"{levels_per_lookup:.2f}")
    _RESULTS[style] = {
        "compactions": compactions,
        "avg_merge": merged_bytes / max(1, merges),
        "levels": levels_per_lookup,
    }
    db.close()
    if len(_RESULTS) == 2:
        _TABLE.write()
        leveled = _RESULTS["leveled"]
        full = _RESULTS["full_level"]
        # Whole-level merges: fewer compactions, each moving more data.
        assert full["compactions"] < leveled["compactions"]
        assert full["avg_merge"] > leveled["avg_merge"]
        # Fragment spread stays bounded either way: early termination
        # still resolves hot-user lookups within a few levels.
        assert full["levels"] <= leveled["levels"] + 2
