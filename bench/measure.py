"""Sample arithmetic shared by every workload: percentiles, shares, RSS.

Every latency in the benchmark is reduced here, one way:

* percentiles are **nearest-rank** (the p-th percentile is the smallest
  sample with at least ``p`` of the samples at or below it), by the rank
  rule ``repro.workloads.runner`` already pins;
* a tail percentile is only reported when at least ten samples lie beyond
  it (:func:`tail_fraction`) — below that the "p99" of a run is one or two
  flush spikes and does not repeat;
* a workload that measures several index kinds (or cluster configurations)
  reports the **geometric mean** of the per-kind values, so a gain on any
  one kind moves the end-to-end number by the same share.
"""

from __future__ import annotations

import math
import resource
import sys
from typing import Iterable, Sequence

from repro.workloads.runner import nearest_rank_index

#: Tail percentiles the harness may report, highest first.
TAIL_FRACTIONS = (0.999, 0.99, 0.95, 0.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[nearest_rank_index(fraction, len(samples))]


def tail_fraction(count: int) -> float:
    """Highest of :data:`TAIL_FRACTIONS` with >= 10 samples beyond it.

    Falls back to the median when even p90 is not supported (< 100
    samples): a "tail" read off fewer points is noise.
    """
    for fraction in TAIL_FRACTIONS:
        if count - math.ceil(fraction * count) >= MIN_BEYOND:
            return fraction
    return 0.5


def p99_or_supported(samples: Sequence[float]) -> float:
    """p99 where the sample supports it, else the highest supported tail."""
    return percentile(samples, min(0.99, tail_fraction(len(samples))))


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    logs = []
    for value in values:
        if value <= 0.0:
            raise ValueError(f"geomean needs positive values, got {value}")
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geomean of nothing")
    return math.exp(sum(logs) / len(logs))


def slow_share(samples: Sequence[float], fraction: float = 0.01) -> float:
    """Share of the total time spent in the slowest ``fraction`` of samples.

    For PUTs this is the inline flush/compaction cost as a caller sees it:
    the few writes that rotate a memtable carry the whole maintenance bill.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    count = max(1, int(len(ordered) * fraction))
    total = sum(ordered)
    return sum(ordered[-count:]) / total if total > 0 else 0.0


def micros(seconds: float) -> float:
    return seconds * 1e6


def peak_rss_mib() -> float:
    """This process's high-water resident set, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """High-water resident set of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
