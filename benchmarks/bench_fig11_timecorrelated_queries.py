"""Figure 11: queries on the time-correlated CreationTime index.

Here zone maps shine: the Embedded index prunes whole files via the
manifest-resident file-level zone maps and answers RANGELOOKUPs with disk
cost close to K — competitive with (often beating) the Stand-Alone
indexes, which is the paper's headline argument for the Embedded design.
Eager is included, as in the paper's Figure 11.
"""

import pytest

from harness import (
    ALL_KINDS,
    ResultTable,
    open_all_tables,
    quartiles,
    timed_queries,
)

from repro.core.base import IndexKind

_TOP_KS = [5, 10, None]
# The paper uses 1- and 10-minute windows against a dataset spanning weeks;
# our 6000-tweet dataset spans ~3 minutes, so the windows scale to 3 s and
# 15 s (~2% and ~9% of the time axis, similar selectivity ratios).
_WINDOW_SECONDS = [3, 15]
_QUERIES_PER_CONFIG = 20
_RESULTS: dict = {}

_LOOKUP_TABLE = ResultTable(
    "fig11a_lookup",
    "Figure 11a — CreationTime LOOKUP latency (box quartiles) and I/O",
    ["variant", "top_k", "p25_us", "median_us", "p75_us",
     "read_blocks_per_lookup"])
_RANGE_TABLE = ResultTable(
    "fig11bc_rangelookup",
    "Figure 11b/c — CreationTime RANGELOOKUP (box quartiles) vs "
    "selectivity/top-K",
    ["variant", "window_seconds", "top_k", "p25_us", "median_us", "p75_us",
     "read_blocks_per_query"])


def _total_reads(db):
    total = db.primary.vfs.stats.read_blocks
    seen = {id(db.primary.vfs)}
    for index in db.indexes.values():
        index_db = getattr(index, "index_db", None)
        if index_db is not None and id(index_db.vfs) not in seen:
            seen.add(id(index_db.vfs))
            total += index_db.vfs.stats.read_blocks
    return total


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_fig11_timecorrelated_queries(benchmark, static_cache, kind):
    db, workload = static_cache.get(kind)
    lookups = list(workload.lookups(_QUERIES_PER_CONFIG, "CreationTime"))
    open_all_tables(db)

    measurements = {}
    for top_k in _TOP_KS:
        reads_before = _total_reads(db)
        latencies, seconds = timed_queries(
            [(lambda op=op, k=top_k: db.lookup("CreationTime", op.value, k))
             for op in lookups])
        p25, median, p75 = quartiles(latencies)
        measurements[("lookup", top_k)] = {
            "us": seconds * 1e6 / len(lookups),
            "reads": (_total_reads(db) - reads_before) / len(lookups),
        }
        _LOOKUP_TABLE.add(
            kind.value, "all" if top_k is None else top_k,
            f"{p25:.0f}", f"{median:.0f}", f"{p75:.0f}",
            f"{measurements[('lookup', top_k)]['reads']:.1f}")

    for window in _WINDOW_SECONDS:
        ranges = list(workload.time_range_lookups(_QUERIES_PER_CONFIG,
                                                  window / 60.0))
        for top_k in _TOP_KS:
            reads_before = _total_reads(db)
            latencies, seconds = timed_queries(
                [(lambda op=op, k=top_k:
                  db.range_lookup("CreationTime", op.low, op.high, k))
                 for op in ranges])
            p25, median, p75 = quartiles(latencies)
            measurements[("range", window, top_k)] = {
                "us": seconds * 1e6 / len(ranges),
                "reads": (_total_reads(db) - reads_before) / len(ranges),
            }
            _RANGE_TABLE.add(
                kind.value, window, "all" if top_k is None else top_k,
                f"{p25:.0f}", f"{median:.0f}", f"{p75:.0f}",
                f"{measurements[('range', window, top_k)]['reads']:.1f}")

    benchmark.pedantic(
        lambda: [db.range_lookup("CreationTime", op.low, op.high, 10)
                 for op in list(workload.time_range_lookups(10, 0.05))],
        rounds=2, iterations=1)

    _RESULTS[kind] = measurements
    if len(_RESULTS) == len(ALL_KINDS):
        _finalize()


def _finalize():
    _LOOKUP_TABLE.write()
    _RANGE_TABLE.write()
    res = _RESULTS
    embedded = res[IndexKind.EMBEDDED]
    noindex = res[IndexKind.NOINDEX]

    # Zone maps prune aggressively on a time-correlated attribute: range
    # I/O is a small fraction of the NoIndex full scan.
    assert embedded[("range", 3, 10)]["reads"] < \
        noindex[("range", 3, 10)]["reads"] / 5
    # Embedded is competitive with the stand-alone variants here (within
    # a small factor on I/O), unlike on UserID.
    for kind in (IndexKind.LAZY, IndexKind.COMPOSITE):
        standalone_reads = res[kind][("range", 3, 10)]["reads"]
        assert embedded[("range", 3, 10)]["reads"] < \
            max(4 * standalone_reads, standalone_reads + 12)
    # Every index beats NoIndex for time-window queries.
    for kind in (IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
                 IndexKind.COMPOSITE):
        assert res[kind][("range", 3, 10)]["us"] < \
            noindex[("range", 3, 10)]["us"]
