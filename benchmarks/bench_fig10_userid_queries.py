"""Figure 10: LOOKUP/RANGELOOKUP on the non-time-correlated UserID index.

The paper varies top-K (1 / 10 / no-limit) and range selectivity, and
finds: Lazy best at small K (level-at-a-time early termination), Composite
best at no-limit K, and the Embedded index no better than NoIndex for
range queries because zone maps cannot prune a shuffled attribute.  The
last holds here for no-limit K and narrow ranges; with a small K on a wide
range the Embedded walk's sequence-number pruning now beats the paper's.
Eager is excluded, as in the paper ("unusable for high write
amplification").
"""

import pytest

from harness import (
    ResultTable,
    SURVIVOR_KINDS,
    open_all_tables,
    quartiles,
    timed_queries,
)

from repro.core.base import IndexKind

_TOP_KS = [1, 10, None]
_USER_SELECTIVITIES = [5, 20]
_LOOKUPS_PER_CONFIG = 25
_RESULTS: dict = {}

_LOOKUP_TABLE = ResultTable(
    "fig10a_lookup",
    "Figure 10a — UserID LOOKUP latency (box quartiles) and I/O vs top-K",
    ["variant", "top_k", "p25_us", "median_us", "p75_us",
     "read_blocks_per_lookup", "validation_gets_per_lookup"])
_RANGE_TABLE = ResultTable(
    "fig10bc_rangelookup",
    "Figure 10b/c — UserID RANGELOOKUP latency (box quartiles) and I/O "
    "vs selectivity/top-K",
    ["variant", "selectivity_users", "top_k", "p25_us", "median_us",
     "p75_us", "read_blocks_per_query"])


def _total_reads(db):
    total = db.primary.vfs.stats.read_blocks
    seen = {id(db.primary.vfs)}
    for index in db.indexes.values():
        index_db = getattr(index, "index_db", None)
        if index_db is not None and id(index_db.vfs) not in seen:
            seen.add(id(index_db.vfs))
            total += index_db.vfs.stats.read_blocks
    return total


@pytest.mark.parametrize("kind", SURVIVOR_KINDS, ids=lambda k: k.value)
def test_fig10_userid_queries(benchmark, static_cache, kind):
    db, workload = static_cache.get(kind)
    lookups = list(workload.lookups(_LOOKUPS_PER_CONFIG, "UserID"))
    open_all_tables(db)

    measurements = {}
    for top_k in _TOP_KS:
        queries = [
            (lambda op=op, k=top_k: db.lookup("UserID", op.value, k))
            for op in lookups]
        reads_before = _total_reads(db)
        gets_before = db.checker.validation_gets
        latencies, seconds = timed_queries(queries)
        p25, median, p75 = quartiles(latencies)
        measurements[("lookup", top_k)] = {
            "us": seconds * 1e6 / len(queries),
            "median_us": median,
            "reads": (_total_reads(db) - reads_before) / len(queries),
            "gets": (db.checker.validation_gets - gets_before) / len(queries),
        }
        _LOOKUP_TABLE.add(
            kind.value, "all" if top_k is None else top_k,
            f"{p25:.0f}", f"{median:.0f}", f"{p75:.0f}",
            f"{measurements[('lookup', top_k)]['reads']:.1f}",
            f"{measurements[('lookup', top_k)]['gets']:.1f}")

    for selectivity in _USER_SELECTIVITIES:
        ranges = list(workload.user_range_lookups(
            _LOOKUPS_PER_CONFIG, selectivity))
        for top_k in _TOP_KS:
            queries = [
                (lambda op=op, k=top_k:
                 db.range_lookup("UserID", op.low, op.high, k))
                for op in ranges]
            reads_before = _total_reads(db)
            latencies, seconds = timed_queries(queries)
            p25, median, p75 = quartiles(latencies)
            measurements[("range", selectivity, top_k)] = {
                "us": seconds * 1e6 / len(queries),
                "median_us": median,
                "reads": (_total_reads(db) - reads_before) / len(queries),
            }
            _RANGE_TABLE.add(
                kind.value, selectivity, "all" if top_k is None else top_k,
                f"{p25:.0f}", f"{median:.0f}", f"{p75:.0f}",
                f"{measurements[('range', selectivity, top_k)]['reads']:.1f}")

    # pytest-benchmark row: the K=10 lookup batch.
    benchmark.pedantic(
        lambda: [db.lookup("UserID", op.value, 10) for op in lookups],
        rounds=2, iterations=1)

    _RESULTS[kind] = measurements
    if len(_RESULTS) == len(SURVIVOR_KINDS):
        _finalize()


def _finalize():
    _LOOKUP_TABLE.write()
    _RANGE_TABLE.write()
    res = _RESULTS
    lazy = res[IndexKind.LAZY]
    composite = res[IndexKind.COMPOSITE]
    embedded = res[IndexKind.EMBEDDED]
    noindex = res[IndexKind.NOINDEX]

    # Small-K LOOKUP: Lazy reads fewer blocks than Composite (early
    # termination vs full-level traversal).
    assert lazy[("lookup", 1)]["reads"] <= composite[("lookup", 1)]["reads"]
    # Stand-alone indexes beat NoIndex's full scan by a wide margin.
    for kind_res in (lazy, composite):
        assert kind_res[("lookup", 10)]["us"] < \
            noindex[("lookup", 10)]["us"] / 5
    # Embedded range queries on a non-time-correlated attribute read about
    # as much as a full scan (within 2x of NoIndex's block count).
    assert embedded[("range", 20, None)]["reads"] > \
        noindex[("range", 20, None)]["reads"] / 2
    # Stand-alone range queries beat Embedded on this attribute — where
    # recency cannot prune: few matching users, so the ten newest matches
    # are spread over most of the store.
    assert composite[("range", 5, 10)]["reads"] < \
        embedded[("range", 5, 10)]["reads"]
    assert lazy[("range", 5, 10)]["reads"] < \
        embedded[("range", 5, 10)]["reads"]
    # Departure from the paper (EXPERIMENTS.md, Fig. 10): on a wide range
    # the newest files already hold ten matches and the max_seq-ordered
    # walk skips the rest of each level, so Embedded now reads *fewer*
    # blocks than Composite, which the paper's Algorithm 8 did not.
    assert embedded[("range", 20, 10)]["reads"] < \
        composite[("range", 20, 10)]["reads"]
