"""Per-layer metric assembly shared by the workloads.

Each helper turns counter deltas, latency samples or spans into the layer
metric names ``BENCHMARK.json`` declares.  A workload reports the names it
exercises; ``run.py`` fills the rest with 0 ("this layer did no such work
in this workload").
"""

from __future__ import annotations

from engines import ratio
from measure import micros, percentile
from spans import durations_by_name


def lsm_write_counters(done: dict[str, float]) -> dict[str, float]:
    """Maintenance work (exact counts) from a counter delta."""
    return {
        "lsm.flush_count": done.get("flush_count", 0),
        "lsm.compaction_count": done.get("compaction_count", 0),
        "lsm.bytes_compacted_in": done.get("bytes_compacted_in", 0),
        "lsm.bytes_compacted_out": done.get("bytes_compacted_out", 0),
        "lsm.wal_write_blocks": done.get("write.wal", 0),
        "lsm.stall_events": done.get("stall_events", 0),
    }


def lsm_read_counters(done: dict[str, float]) -> dict[str, float]:
    """Query-path block reads and cache behaviour from a counter delta."""
    return {
        "lsm.data_read_blocks": done.get("read.data", 0),
        "lsm.filter_read_blocks": done.get("read.filter", 0),
        "lsm.index_read_blocks": done.get("read.index", 0),
        "lsm.table_cache_hit_rate": ratio(
            done.get("table_cache_hits", 0),
            done.get("table_cache_hits", 0)
            + done.get("table_cache_misses", 0)),
        "lsm.block_cache_hit_rate": ratio(
            done.get("block_cache_hits", 0),
            done.get("block_cache_hits", 0)
            + done.get("block_cache_misses", 0)),
    }


def lsm_span_metrics(yielded: dict[str, int], spans: list[list]
                     ) -> dict[str, float]:
    """Engine-call latencies as the layer above saw them (traced blocks)."""
    by_name = durations_by_name(spans)
    metrics: dict[str, float] = {}
    puts = by_name.get("lsm.put", []) + by_name.get("lsm.merge", [])
    if puts:
        metrics["lsm.put_p50_us"] = micros(percentile(puts, 0.5))
    gets = by_name.get("lsm.get_with_seq", [])
    if gets:
        metrics["lsm.get_p50_us"] = micros(percentile(gets, 0.5))
    scan_names = ("lsm.scan_with_seq", "lsm.scan_level")
    scan_seconds = sum(sum(by_name.get(name, [])) for name in scan_names)
    if scan_seconds > 0:
        entries = sum(yielded.get(name, 0) for name in scan_names)
        metrics["lsm.scan_entries_per_s"] = entries / scan_seconds
    return metrics


def trace_overhead(plain: dict[str, list[float]],
                   traced: dict[str, list[float]]) -> float:
    """Traced over plain op time, minus one, on per-type medians.

    Medians, weighted by how often each op type ran: a flush spike landing
    in a traced block must not read as tracing overhead.
    """
    traced_cost = plain_cost = 0.0
    for label, samples in plain.items():
        other = traced.get(label)
        if not samples or not other:
            continue
        weight = len(samples) + len(other)
        plain_cost += weight * percentile(samples, 0.5)
        traced_cost += weight * percentile(other, 0.5)
    return traced_cost / plain_cost - 1.0 if plain_cost > 0 else 0.0
