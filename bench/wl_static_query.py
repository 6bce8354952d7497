"""``static_query`` — build once, then only read (paper Figs. 8c, 10, 11).

In-process, metered ``MemoryVFS``, paper geometry, **block cache 0 B**
against ~1 MB of data: the working set is far larger than the cache, every
query pays its block reads.  A ``StaticWorkload`` (30 tweets per Zipf user)
is loaded into one engine per index kind with indexes on ``UserID`` and
``CreationTime``; the measured phase runs, per indexed kind and on one
thread, GETs, LOOKUPs, 3-second CreationTime ranges and 5-user UserID
ranges, all K=10.

The ``core`` read paths and the ``lsm`` read path do all the work; the write
path, ``server`` and ``dist`` do none (the harness fails the run if the
measured phase writes a single VFS block).  This is where a LOOKUP
optimisation must show.

Every secondary answer of every indexed kind is compared, keys and order,
with the oracle's exact top-K; NoIndex — the paper's reference — answers a
smaller sample against the same oracle (a NoIndex LOOKUP is a full scan,
~50x the indexed cost).  PUT metrics come from the load, the only place
this workload writes.
"""

from __future__ import annotations

import time
from statistics import fmean

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.workloads.generator import StaticWorkload
from repro.workloads.tweets import SeedProfile

import engines
import layers
import spans
from calibrate import OPS_PER_SLICE, Calibrator
from closedloop import Tally, Timings, run_closed
from context import Outcome, RunArgs
from measure import (geomean, micros, p99_or_supported, peak_rss_mib,
                     percentile, slow_share)
from opstream import Oracle, static_queries, user_bytes, users_for
from spans import Tracer

INDEXED = (IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
           IndexKind.COMPOSITE)
ALL_KINDS = INDEXED + (IndexKind.NOINDEX,)
ATTRIBUTES = ("UserID", "CreationTime")
SECONDARY = ("lookup", "range_time", "range_user")

#: Sizes of one replica at ``--seconds 10`` (query counts per indexed kind).
TWEETS = 3000
GETS, LOOKUPS, TIME_RANGES, USER_RANGES = 1000, 300, 150, 100
#: NoIndex sample: each query is a scan of the whole table.
NOINDEX_GETS, NOINDEX_QUERIES = 100, 8


class Built:
    """One set-up: the dataset and a loaded engine per index kind."""

    def __init__(self) -> None:
        self.workload: StaticWorkload | None = None
        self.engines: dict[IndexKind, SecondaryIndexedDB] = {}
        self.oracles: dict[IndexKind, Oracle] = {}
        self.load_puts: dict[IndexKind, list[float]] = {}
        self.load_io: dict[IndexKind, dict[str, float]] = {}
        self.user_bytes = 0

    def close(self) -> None:
        for sdb in self.engines.values():
            sdb.close()


def build(seed: int, num_tweets: int, calibrator: Calibrator) -> Built:
    built = Built()
    built.workload = StaticWorkload(
        num_tweets=num_tweets,
        profile=SeedProfile(num_users=users_for(num_tweets)), seed=seed)
    built.user_bytes = sum(user_bytes(key, document)
                           for key, document in built.workload.tweets)
    clock = time.perf_counter
    for kind in ALL_KINDS:
        sdb = SecondaryIndexedDB.open_memory(
            indexes={attribute: kind for attribute in ATTRIBUTES},
            options=engines.paper_options())
        oracle = Oracle()
        samples = []
        for position, (key, document) in enumerate(built.workload.tweets):
            if position % OPS_PER_SLICE == 0:
                calibrator.slice()
            began = clock()
            seq = sdb.put(key, document)
            samples.append(clock() - began)
            oracle.put(key, document, seq)
        sdb.flush()
        built.engines[kind] = sdb
        built.oracles[kind] = oracle
        built.load_puts[kind] = samples
        built.load_io[kind] = engines.counters([sdb])
    calibrator.slice()
    return built


def run(args: RunArgs) -> Outcome:
    tally = Tally()
    num_tweets = args.size(TWEETS, floor=150)
    built, setup_seconds = args.timed_setup(
        lambda: build(args.seed, num_tweets, args.calibrator))
    assert built.workload is not None

    # One tracer per engine, so spans can be read per index kind.
    tracers: dict[IndexKind, Tracer] = {}
    if args.trace:
        for kind, sdb in built.engines.items():
            tracers[kind] = Tracer()
            engines.trace_engine(tracers[kind], sdb)

    queries = static_queries(
        built.workload, args.size(GETS, 40), args.size(LOOKUPS, 20),
        args.size(TIME_RANGES, 10), args.size(USER_RANGES, 10))
    noindex_queries = {
        label: ops[:(NOINDEX_GETS if label == "get" else NOINDEX_QUERIES)]
        for label, ops in queries.items()}

    timings: dict[IndexKind, Timings] = {}
    read_io: dict[IndexKind, dict[str, dict[str, float]]] = {}
    for kind in ALL_KINDS:
        sdb, oracle = built.engines[kind], built.oracles[kind]
        plan = noindex_queries if kind is IndexKind.NOINDEX else queries
        # Warm-up: open every table the queries will touch (index and
        # filter blocks load on first use); a tenth of each phase, untimed.
        for label, ops in plan.items():
            run_closed(sdb, ops[:max(1, len(ops) // 10)], oracle, Tally(),
                       Timings(), label=label)
        timings[kind] = Timings()
        read_io[kind] = {}
        for label, ops in plan.items():
            before = engines.counters([sdb])
            run_closed(sdb, ops, oracle, tally, timings[kind], label=label,
                       tracer=tracers.get(kind), exact=True,
                       calibrator=args.calibrator)
            read_io[kind][label] = engines.delta(
                engines.counters([sdb]), before)
        written = sum(done.get("write_blocks", 0)
                      for done in read_io[kind].values())
        if written:
            tally.fail(f"{kind.value}: measured phase wrote {written} blocks")

    sizes = {kind: built.engines[kind].size_breakdown() for kind in ALL_KINDS}
    notes = [f"sizes: {num_tweets} tweets / {users_for(num_tweets)} users, "
             f"{built.user_bytes} user bytes, block cache 0 B; per indexed "
             f"kind {len(queries['get'])} GET, {len(queries['lookup'])} "
             f"LOOKUP, {len(queries['range_time'])}+"
             f"{len(queries['range_user'])} RANGELOOKUP"]

    if not args.trace:
        metrics = _end_to_end(built, timings, read_io, sizes, setup_seconds)
    else:
        metrics = _layers(built, timings, read_io, sizes, tracers, notes)
        spans.dump(spans.concat(tracer.spans() for tracer in tracers.values()),
                   f"{args.out_dir}/trace-static_query.json")
    built.close()
    return Outcome(tally, metrics, notes)


def _pooled_ranges(timing: Timings) -> list[float]:
    return timing.of("range_time") + timing.of("range_user")


def _end_to_end(built: Built, timings: dict[IndexKind, Timings],
                read_io: dict, sizes: dict,
                setup_seconds: float) -> dict[str, float]:
    ops = sum(timings[kind].count() for kind in INDEXED)
    seconds = sum(timings[kind].seconds() for kind in INDEXED)

    def over_kinds(value) -> float:
        return geomean(value(kind) for kind in INDEXED)

    def blocks_per_query(kind: IndexKind) -> float:
        blocks = sum(read_io[kind][label]["query_read_blocks"]
                     for label in SECONDARY)
        count = sum(len(timings[kind].of(label)) for label in SECONDARY)
        return blocks / count

    return {
        "setup_s": setup_seconds,
        "ops_per_s": ops / seconds,
        "put_p50_us": over_kinds(
            lambda kind: micros(percentile(built.load_puts[kind], 0.5))),
        "put_mean_us": over_kinds(
            lambda kind: micros(fmean(built.load_puts[kind]))),
        "get_p50_us": over_kinds(
            lambda kind: micros(percentile(timings[kind].of("get"), 0.5))),
        "lookup_p50_us": over_kinds(
            lambda kind: micros(percentile(timings[kind].of("lookup"), 0.5))),
        "lookup_mean_us": over_kinds(
            lambda kind: micros(fmean(timings[kind].of("lookup")))),
        "rangelookup_p50_us": over_kinds(
            lambda kind: micros(percentile(_pooled_ranges(timings[kind]),
                                           0.5))),
        "read_blocks_per_query": over_kinds(blocks_per_query),
        "write_amp": over_kinds(
            lambda kind: built.load_io[kind]["write_bytes"]
            / built.user_bytes),
        "space_amp": over_kinds(
            lambda kind: sum(sizes[kind].values()) / built.user_bytes),
        "peak_rss_mib": peak_rss_mib(),
    }


def _layers(built: Built, timings: dict[IndexKind, Timings], read_io: dict,
            sizes: dict, tracers: dict[IndexKind, Tracer], notes: list[str]
            ) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for kind in ALL_KINDS:
        name = f"core.{kind.value}"
        timing = timings[kind]
        metrics[f"{name}.get_p50_us"] = micros(
            percentile(timing.of("get"), 0.5))
        metrics[f"{name}.lookup_p50_us"] = micros(
            percentile(timing.of("lookup"), 0.5))
        metrics[f"{name}.rangelookup_time_p50_us"] = micros(
            percentile(timing.of("range_time"), 0.5))
        metrics[f"{name}.rangelookup_user_p50_us"] = micros(
            percentile(timing.of("range_user"), 0.5))
        metrics[f"{name}.lookup_read_blocks"] = \
            read_io[kind]["lookup"]["query_read_blocks"] \
            / timing.ran("lookup")
        metrics[f"{name}.load_put_mean_us"] = micros(
            fmean(built.load_puts[kind]))
        metrics[f"{name}.index_bytes"] = sum(
            size for table, size in sizes[kind].items()
            if table != "primary")
        if kind is IndexKind.NOINDEX:
            continue
        metrics[f"{name}.lookup_p99_us"] = micros(
            p99_or_supported(timing.of("lookup")))
        done = read_io[kind]["lookup"]
        examined = done["validation_gets"] + done["getlite_probes"]
        metrics[f"{name}.candidates_per_result"] = engines.ratio(
            examined, timing.hits.get("lookup", 0))
        metrics[f"{name}.lookup_self_share"] = spans.self_share(
            tracers[kind].spans(), "core.lookup")

    all_spans = spans.concat(tracer.spans() for tracer in tracers.values())
    yielded = engines.sum_counters(tracer.yielded for tracer in tracers.values())
    load = engines.sum_counters(built.load_io[kind] for kind in ALL_KINDS)
    reads = engines.sum_counters(done for kind in ALL_KINDS
                          for done in read_io[kind].values())
    metrics.update(layers.lsm_write_counters(load))
    metrics.update(layers.lsm_read_counters(reads))
    metrics.update(layers.lsm_span_metrics(yielded, all_spans))
    metrics["lsm.put_slow_share"] = slow_share(
        [sample for kind in INDEXED for sample in built.load_puts[kind]])
    plain = engines.merge_samples(timing.plain for timing in timings.values())
    traced = engines.merge_samples(timing.traced for timing in timings.values())
    metrics["workloads.trace_overhead_frac"] = layers.trace_overhead(
        plain, traced)

    by_layer = spans.self_time_by_layer(all_spans)
    traced_seconds = sum(sum(samples) for samples in traced.values())
    covered = sum(by_layer.values())
    notes.append(
        "traced blocks: core+lsm spans cover "
        f"{100 * engines.ratio(covered, traced_seconds):.1f}% of measured "
        f"op time (core self {by_layer.get('core', 0):.3f}s, lsm "
        f"{by_layer.get('lsm', 0):.3f}s); measured phase wrote "
        f"{int(reads.get('write_blocks', 0))} VFS blocks")
    return metrics
