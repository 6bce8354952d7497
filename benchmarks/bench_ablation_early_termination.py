"""Ablation: the Lazy index's level-at-a-time early termination.

"As levels are sorted based on time in the LSM tree, if we already find
top-k during a scan in one level, LOOKUP can stop there" (Section 4.1.2) —
the property that gives Lazy its small-K edge over Composite.  The
ablation disables the stop and measures the extra levels visited and the
extra index I/O: the walk reads a level only once it reaches it.
"""

import pytest

from harness import BENCH_PROFILE, ResultTable, bench_options

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.workloads.tweets import TweetGenerator

_N = 4000
_RESULTS: dict = {}

_TABLE = ResultTable(
    "ablation_early_termination",
    "Ablation — Lazy LOOKUP early termination (K=5, hot users)",
    ["early_termination", "levels_visited_per_lookup",
     "index_read_blocks_per_lookup", "validation_gets_per_lookup"])


@pytest.fixture(scope="module")
def lazy_db():
    generator = TweetGenerator(BENCH_PROFILE, seed=61)
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": IndexKind.LAZY}, options=bench_options())
    for key, doc in generator.tweets(_N):
        db.put(key, doc)
    yield db
    db.close()


@pytest.mark.parametrize("early", [True, False], ids=["stop", "no-stop"])
def test_ablation_early_termination(benchmark, lazy_db, early):
    db = lazy_db
    index = db.indexes["UserID"]
    users = [f"u{r:05d}" for r in range(15)]

    # Warm-up: load every table's index/filter metadata so neither
    # parametrisation is charged for one-time table opens.
    for user in users:
        db.lookup("UserID", user, 5, early_termination=False)

    index.levels_visited = 0
    gets_before = db.checker.validation_gets
    reads_before = index.index_db.vfs.stats.read_blocks

    def run_lookups():
        for user in users:
            db.lookup("UserID", user, 5, early_termination=early)

    benchmark.pedantic(run_lookups, rounds=2, iterations=1)
    levels = index.levels_visited / (2 * len(users))
    reads = (index.index_db.vfs.stats.read_blocks - reads_before) \
        / (2 * len(users))
    gets = (db.checker.validation_gets - gets_before) / (2 * len(users))
    _TABLE.add("on" if early else "off", f"{levels:.2f}", f"{reads:.2f}",
               f"{gets:.2f}")
    _RESULTS[early] = {"levels": levels, "reads": reads}
    if len(_RESULTS) == 2:
        _TABLE.write()
        assert _RESULTS[True]["levels"] < _RESULTS[False]["levels"]
        # The walk reads a level only when it gets there, so stopping
        # early saves index blocks, not just levels.
        assert _RESULTS[True]["reads"] < _RESULTS[False]["reads"]
