"""``cluster_mixed`` — the sharded, replicated store, with a live split.

In-process ``ShardedDB.open_memory(num_shards=4, replication_factor=2)``,
paper geometry but **``block_cache_size`` = 4 MiB per engine**: every shard
fits its cache, so this is the cache-resident case (the other three
workloads run with the cache off or cold).  Two configurations run back to
back on the same seeded stream of 20 % PUT / 60 % GET / 20 % LOOKUP(UserID,
K=5):

* ``local`` — a Lazy index on every data shard, LOOKUP scatter-gathers;
* ``gsi`` — one global index ring on ``UserID``, LOOKUP is routed.

At the midpoint of each, a live shard split starts (``begin_split()``) and
is driven one ``step()`` per 50 client operations, as a background
migrator sharing the caller's thread would be.

``dist`` does the work that differs from ``mixed_ingest``: routing, 2-way
synchronous fan-out, the cross-shard top-K merge, GSI maintenance, the
split journal.  It is also the one workload where ``lsm.cache`` matters.

Checks: every GET against the oracle, every mid-stream LOOKUP hit live and
newest-first, ``verify_integrity()`` clean after the split, a closing
LOOKUP/RANGELOOKUP sample equal to the oracle's exact top-K.
"""

from __future__ import annotations

import time
from statistics import fmean
from typing import Any

from repro.core.base import IndexKind
from repro.dist.cluster import ShardedDB

import engines
import layers
import spans
from calibrate import Calibrator
from closedloop import Tally, Timings, run_closed
from context import Outcome, RunArgs
from measure import (geomean, micros, peak_rss_mib, percentile,
                     slow_share)
from opstream import Op, Oracle, StreamBuilder, users_for
from spans import Tracer

CONFIGS: dict[str, dict[str, Any]] = {
    "local": {"local_indexes": {"UserID": IndexKind.LAZY}},
    "gsi": {"global_indexes": ("UserID",)},
}
MIX = {"put": 0.20, "get": 0.60, "lookup": 0.20}
BLOCK_CACHE_BYTES = 4 << 20
#: Client operations between two ``step()`` calls of the live split.
OPS_PER_SPLIT_STEP = 50

#: Sizes of one replica at ``--seconds 10``; ``OPS`` is per configuration.
PRELOAD = 2000
OPS = 8000
#: The replication baseline (traced run only): this many ops at RF=1.
RF1_OPS = 3000
CLOSING_LOOKUPS, CLOSING_RANGES = 60, 100


def open_cluster(config: str, replication_factor: int = 2) -> ShardedDB:
    return ShardedDB.open_memory(
        num_shards=4, replication_factor=replication_factor,
        options=engines.paper_options(block_cache_size=BLOCK_CACHE_BYTES),
        **CONFIGS[config])


def cluster_engines(cluster: ShardedDB) -> list:
    return [replica.db for group in cluster.data_shards
            for replica in group.replicas]


def cluster_counters(cluster: ShardedDB) -> dict[str, float]:
    """Every replica's engine plus the global index tables."""
    gsi_tables = [index.index_db for gsi in cluster.global_indexes.values()
                  for index in gsi.shards]
    totals = engines.counters(cluster_engines(cluster), gsi_tables)
    totals["data_shards_contacted"] = \
        cluster.stats()["data_shards_contacted"]
    return totals


class Plan:
    def __init__(self, args: RunArgs) -> None:
        preload = args.size(PRELOAD, 150)
        ops = args.size(OPS, 1000)
        builder = StreamBuilder(args.seed, users_for(preload + ops // 5))
        self.preload: list[Op] = builder.load(preload)
        self.ops: list[Op] = builder.mixed(ops, MIX, lookup_k=5)
        self.rf1_ops = min(args.size(RF1_OPS, 300), ops // 2)
        self.closing = builder.lookups(args.size(CLOSING_LOOKUPS, 20)) + \
            builder.user_ranges(args.size(CLOSING_RANGES, 20))


class Loaded:
    """One set-up: the plan and a preloaded cluster per configuration."""

    def __init__(self, args: RunArgs) -> None:
        self.plan = Plan(args)
        self.clusters: dict[str, ShardedDB] = {}
        self.oracles: dict[str, Oracle] = {}
        for config in CONFIGS:
            self.clusters[config], self.oracles[config] = \
                preloaded(config, self.plan, args.calibrator)

    def close(self) -> None:
        for cluster in self.clusters.values():
            cluster.close()


def preloaded(config: str, plan: Plan, calibrator: Calibrator,
              replication_factor: int = 2) -> tuple[ShardedDB, Oracle]:
    cluster = open_cluster(config, replication_factor)
    oracle = Oracle()
    engines.preload(cluster, plan.preload, oracle, calibrator)
    return cluster, oracle


class ConfigRun:
    """What one configuration's measured phase produced."""

    def __init__(self) -> None:
        #: Ops before the split window (also the RF comparison's RF=2 side)
        #: and everything after, kept apart.
        self.head = Timings()
        self.tail = Timings()
        self.closing = Timings()
        self.io: dict[str, float] = {}
        self.split_step_seconds = 0.0
        self.split_window_seconds = 0.0
        self.split_window_ops = 0
        self.space_amp = 0.0

    def samples(self, label: str) -> list[float]:
        return self.head.of(label) + self.tail.of(label)

    def put_bytes(self) -> int:
        return self.head.put_bytes + self.tail.put_bytes


def trace_cluster(tracer: Tracer, cluster: ShardedDB,
                  already: set[int]) -> None:
    """Spans on the facade (once) and on every engine not yet wrapped."""
    if not already:
        for call in ("put", "get", "lookup", "range_lookup"):
            tracer.wrap(cluster, call, f"dist.{call}")
        for gsi in cluster.global_indexes.values():
            for index in gsi.shards:
                engines.trace_table(tracer, index.index_db)
        already.add(id(cluster))
    for sdb in cluster_engines(cluster):
        if id(sdb) not in already:
            already.add(id(sdb))
            engines.trace_engine(tracer, sdb)


def run_config(cluster: ShardedDB, oracle: Oracle, plan: Plan, tally: Tally,
               tracer: Tracer | None, calibrator: Calibrator) -> ConfigRun:
    result = ConfigRun()
    wrapped: set[int] = set()
    if tracer is not None:
        trace_cluster(tracer, cluster, wrapped)
    before = cluster_counters(cluster)
    clock = time.perf_counter
    ops = plan.ops
    midpoint = len(ops) // 2
    run_closed(cluster, ops[:plan.rf1_ops], oracle, tally, result.head,
               tracer=tracer, calibrator=calibrator)
    run_closed(cluster, ops[plan.rf1_ops:midpoint], oracle, tally,
               result.tail, tracer=tracer, start=plan.rf1_ops,
               calibrator=calibrator)

    window_began = clock()
    split = cluster.begin_split()
    position = midpoint
    stepping = True
    while stepping and position < len(ops):
        began = clock()
        stepping = split.step()
        result.split_step_seconds += clock() - began
        if tracer is not None:
            trace_cluster(tracer, cluster, wrapped)  # the new shard
        chunk = ops[position:position + OPS_PER_SPLIT_STEP]
        run_closed(cluster, chunk, oracle, tally, result.tail, tracer=tracer,
                   start=position, calibrator=calibrator)
        position += len(chunk)
    while stepping:  # a stream too short to finish the split under load
        began = clock()
        stepping = split.step()
        result.split_step_seconds += clock() - began
    result.split_window_seconds = clock() - window_began
    result.split_window_ops = position - midpoint
    if cluster.stats()["splits_completed"] != 1:
        tally.fail("the live split did not complete")
    else:
        tally.ok()

    run_closed(cluster, ops[position:], oracle, tally, result.tail,
               tracer=tracer, start=position, calibrator=calibrator)
    result.io = engines.delta(cluster_counters(cluster), before)

    bad = [table for table, report in cluster.verify_integrity().items()
           if not report.ok]
    if bad:
        tally.fail(f"verify_integrity after the split: {bad[:3]}")
    else:
        tally.ok()
    cluster.flush()
    result.space_amp = cluster.total_size() / oracle.live_bytes()
    run_closed(cluster, plan.closing, oracle, tally, result.closing,
               exact=True, calibrator=calibrator)
    return result


def run(args: RunArgs) -> Outcome:
    tally = Tally()
    loaded, setup_seconds = args.timed_setup(lambda: Loaded(args))
    plan = loaded.plan

    tracers = {config: Tracer() for config in CONFIGS} if args.trace else {}
    runs = {config: run_config(loaded.clusters[config],
                               loaded.oracles[config], plan, tally,
                               tracers.get(config), args.calibrator)
            for config in CONFIGS}
    notes = [f"sizes: 4 shards x RF 2, preload {len(plan.preload)} tweets, "
             f"{len(plan.ops)} ops per configuration "
             f"({', '.join(CONFIGS)}), split at op {len(plan.ops) // 2} "
             f"stepped every {OPS_PER_SPLIT_STEP} ops; closing sample "
             f"{len(plan.closing)} queries; block cache "
             f"{BLOCK_CACHE_BYTES >> 20} MiB per engine"]

    if not args.trace:
        metrics = _end_to_end(runs, setup_seconds)
    else:
        metrics = _layers(runs, plan, tracers, tally, notes,
                          args.calibrator)
        spans.dump(spans.concat(tracer.spans() for tracer in tracers.values()),
                   f"{args.out_dir}/trace-cluster_mixed.json")
    loaded.close()
    return Outcome(tally, metrics, notes)


def _end_to_end(runs: dict[str, ConfigRun],
                setup_seconds: float) -> dict[str, float]:
    def over_configs(value) -> float:
        return geomean(value(run) for run in runs.values())

    def p50(label: str):
        return lambda run: micros(percentile(run.samples(label), 0.5))

    ops = sum(run.head.count() + run.tail.count() for run in runs.values())
    seconds = sum(run.head.seconds() + run.tail.seconds()
                  + run.split_step_seconds for run in runs.values())
    return {
        "setup_s": setup_seconds,
        "ops_per_s": ops / seconds,
        "put_p50_us": over_configs(p50("put")),
        "put_mean_us": over_configs(
            lambda run: micros(fmean(run.samples("put")))),
        "get_p50_us": over_configs(p50("get")),
        "lookup_p50_us": over_configs(p50("lookup")),
        "lookup_mean_us": over_configs(
            lambda run: micros(fmean(run.samples("lookup")))),
        "rangelookup_p50_us": over_configs(
            lambda run: micros(percentile(run.closing.of("range"), 0.5))),
        "read_blocks_per_query": over_configs(
            lambda run: run.io["query_read_blocks"]
            / (len(run.samples("get")) + len(run.samples("lookup")))),
        "write_amp": over_configs(
            lambda run: run.io["write_bytes"] / run.put_bytes()),
        "space_amp": over_configs(lambda run: run.space_amp),
        "peak_rss_mib": peak_rss_mib(),
    }


def _layers(runs: dict[str, ConfigRun], plan: Plan,
            tracers: dict[str, Tracer], tally: Tally, notes: list[str],
            calibrator: Calibrator) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for config, result in runs.items():
        metrics[f"dist.{config}.put_p50_us"] = micros(
            percentile(result.samples("put"), 0.5))
        metrics[f"dist.{config}.lookup_p50_us"] = micros(
            percentile(result.samples("lookup"), 0.5))
    lookups = sum(result.head.ran("lookup") + result.tail.ran("lookup")
                  for result in runs.values())
    done = engines.sum_counters(result.io for result in runs.values())
    metrics["dist.shards_contacted_per_lookup"] = \
        done["data_shards_contacted"] / lookups

    # Replication baseline: the same first ops on the same preload, RF=1.
    cluster, oracle = preloaded("local", plan, calibrator,
                                replication_factor=1)
    baseline = Timings()
    run_closed(cluster, plan.ops[:plan.rf1_ops], oracle, tally, baseline)
    cluster.close()
    metrics["dist.rf_put_ratio"] = \
        fmean(runs["local"].head.of("put")) / fmean(baseline.of("put"))

    split_seconds = [result.split_window_seconds for result in runs.values()]
    metrics["dist.split_s"] = fmean(split_seconds)
    metrics["dist.split_ops_per_s"] = \
        sum(result.split_window_ops for result in runs.values()) \
        / sum(split_seconds)

    all_spans = spans.concat(tracer.spans() for tracer in tracers.values())
    metrics["dist.put_self_share"] = spans.self_share(all_spans, "dist.put")
    metrics["dist.lookup_self_share"] = spans.self_share(
        all_spans, "dist.lookup")
    metrics.update(layers.lsm_write_counters(done))
    metrics.update(layers.lsm_read_counters(done))
    metrics.update(layers.lsm_span_metrics(
        engines.sum_counters(tracer.yielded for tracer in tracers.values()),
        all_spans))
    timings = [timing for result in runs.values()
               for timing in (result.head, result.tail)]
    plain = engines.merge_samples(timing.plain for timing in timings)
    traced = engines.merge_samples(timing.traced for timing in timings)
    metrics["lsm.put_slow_share"] = slow_share(plain["put"] + traced["put"])
    metrics["workloads.trace_overhead_frac"] = layers.trace_overhead(
        plain, traced)

    by_layer = spans.self_time_by_layer(all_spans)
    notes.append("traced blocks, self time: " + ", ".join(
        f"{layer} {seconds:.3f}s" for layer, seconds in sorted(
            by_layer.items())))
    return metrics
