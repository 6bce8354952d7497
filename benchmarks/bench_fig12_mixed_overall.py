"""Figure 12: overall mean operation time under the Mixed workloads.

The three Table 7(b) operation mixes (write/read/update heavy) run against
the Embedded, Lazy and Composite variants (Eager was already ruled out).
The paper's findings: the stand-alone variants stay close; the Embedded
index suffers on read-heavy mixes because each LOOKUP on the
non-time-correlated UserID scans bloom filters across the whole store.
Here it no longer does: the walk stops each level at the K-th result's
sequence number (see ``_finalize``).
"""

import pytest

from harness import MIXED_NUM_OPS, ResultTable, get_mixed_report

from repro.core.base import IndexKind
from repro.workloads.generator import MIXED_RATIOS

_KINDS = [IndexKind.EMBEDDED, IndexKind.LAZY, IndexKind.COMPOSITE]
_RESULTS: dict = {}

_TABLE = ResultTable(
    "fig12_mixed_overall",
    f"Figure 12 — Mixed workloads, mean time per operation "
    f"({MIXED_NUM_OPS} ops, UserID index)",
    ["workload", "variant", "us_per_op", "us_per_put", "us_per_get",
     "us_per_lookup"])


@pytest.mark.parametrize("workload_name", sorted(MIXED_RATIOS))
@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.value)
def test_fig12_mixed(benchmark, kind, workload_name):
    report, _compaction = benchmark.pedantic(
        get_mixed_report, args=(kind, workload_name), rounds=1, iterations=1)
    _TABLE.add(workload_name, kind.value,
               f"{report.mean_micros():.0f}",
               f"{report.mean_micros('put'):.0f}",
               f"{report.mean_micros('get'):.0f}",
               f"{report.mean_micros('lookup'):.0f}")
    _RESULTS[(kind, workload_name)] = report
    if len(_RESULTS) == len(_KINDS) * len(MIXED_RATIOS):
        _finalize()


def _finalize():
    _TABLE.write()
    # Read-heavy: the paper found Embedded's LOOKUPs the slow path on this
    # non-time-correlated attribute (bloom-probe CPU + extra block reads).
    # Departure (EXPERIMENTS.md, Fig. 12): walking each level newest file
    # first and stopping at the K-th result's sequence makes a top-5
    # LOOKUP read fewer blocks than either stand-alone index (an exact
    # count) and take less time than Composite; against Lazy the time is
    # a tie within run-to-run noise, so only a parity band is asserted.
    embedded = _RESULTS[(IndexKind.EMBEDDED, "read_heavy")]
    lazy = _RESULTS[(IndexKind.LAZY, "read_heavy")]
    composite = _RESULTS[(IndexKind.COMPOSITE, "read_heavy")]
    for standalone in (lazy, composite):
        assert embedded.read_blocks_by_op["lookup"] < \
            standalone.read_blocks_by_op["lookup"]
    assert embedded.mean_micros("lookup") < composite.mean_micros("lookup")
    assert embedded.mean_micros("lookup") < 1.25 * lazy.mean_micros("lookup")
    # Write-heavy: Embedded's PUTs carry no index-table I/O (its overhead
    # is filter-construction CPU, which Python wall time reports noisily —
    # the paper's block counters are the robust signal).
    embedded_w = _RESULTS[(IndexKind.EMBEDDED, "write_heavy")]
    lazy_w = _RESULTS[(IndexKind.LAZY, "write_heavy")]
    assert embedded_w.write_blocks_by_op.get("put", 0) < \
        lazy_w.write_blocks_by_op.get("put", 0)
