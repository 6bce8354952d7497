"""``mixed_ingest`` — continuous arrivals with queries mixed in (Figs. 9, 12-15).

Same engine set-up as ``static_query`` (in-process, metered ``MemoryVFS``,
paper geometry, block cache 0 B), but the other way round: Table 7(b)'s
``write_heavy`` mix (80 % PUT / 15 % GET / 5 % LOOKUP K=5) and then its
``update_heavy`` mix (40 % PUT / 15 % GET / 5 % LOOKUP / 40 % update) run
back to back against one preloaded engine per surviving index kind —
Embedded, Lazy, Composite; the paper drops Eager here as unusable, and its
ingest cost is already in ``static_query``'s set-up.  Flush and compaction
run inline (``background_compaction=False``, the default), so their cost
lands on the PUT that triggers them.

The ``lsm`` write path (WAL, memtable, flush, compaction) and ``core`` index
*maintenance* do the work; reads are the minority.  A LOOKUP gain bought
with heavier maintenance, more write amplification or staler postings shows
up here as a loss.

Every GET is compared with the oracle, every mid-stream LOOKUP hit must be
live, matching and newest-first, and a closing sample of LOOKUPs and
5-user RANGELOOKUPs (which also gives this workload its RANGELOOKUP
latency) must equal the oracle's exact top-K — for Embedded, in the
exhaustive mode that promises it (see ``run``).
"""

from __future__ import annotations

from statistics import fmean

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.workloads.generator import MIXED_RATIOS

import engines
import layers
import spans
from closedloop import Tally, Timings, run_closed
from context import Outcome, RunArgs
from measure import (geomean, micros, p99_or_supported, peak_rss_mib,
                     percentile, slow_share)
from opstream import Op, Oracle, StreamBuilder, users_for
from spans import Tracer

KINDS = (IndexKind.EMBEDDED, IndexKind.LAZY, IndexKind.COMPOSITE)
MIXES = ("write_heavy", "update_heavy")

#: Sizes of one replica at ``--seconds 10``; the phases are per kind.
PRELOAD = 1500
PHASE_OPS = 2000
CLOSING_LOOKUPS, CLOSING_RANGES = 60, 100
#: Embedded's exhaustive cross-check (a 5-user UserID range costs it ~25 ms:
#: zone maps cannot prune an attribute that is not time-correlated).
EXHAUSTIVE_SAMPLE = 15


class Plan:
    """The seeded inputs, identical for every index kind."""

    def __init__(self, args: RunArgs) -> None:
        preload = args.size(PRELOAD, 100)
        phase_ops = args.size(PHASE_OPS, 300)
        # Users sized for everything the stream will insert, so the
        # 30-tweets-per-user shape holds at the end of the run.
        builder = StreamBuilder(args.seed,
                                users_for(preload + 2 * phase_ops))
        self.preload: list[Op] = builder.load(preload)
        self.phases: dict[str, list[Op]] = {
            mix: builder.mixed(phase_ops, MIXED_RATIOS[mix], lookup_k=5)
            for mix in MIXES}
        self.closing_lookups = builder.lookups(
            args.size(CLOSING_LOOKUPS, 20), k=10)
        self.closing_ranges = builder.user_ranges(
            args.size(CLOSING_RANGES, 20))


class Loaded:
    """One set-up: the plan plus a preloaded engine per kind."""

    def __init__(self, args: RunArgs) -> None:
        self.plan = Plan(args)
        self.engines: dict[IndexKind, SecondaryIndexedDB] = {}
        self.oracles: dict[IndexKind, Oracle] = {}
        for kind in KINDS:
            sdb = SecondaryIndexedDB.open_memory(
                indexes={"UserID": kind}, options=engines.paper_options())
            oracle = Oracle()
            engines.preload(sdb, self.plan.preload, oracle, args.calibrator)
            self.engines[kind] = sdb
            self.oracles[kind] = oracle

    def close(self) -> None:
        for sdb in self.engines.values():
            sdb.close()


def run(args: RunArgs) -> Outcome:
    tally = Tally()
    loaded, setup_seconds = args.timed_setup(lambda: Loaded(args))
    plan = loaded.plan

    tracers: dict[IndexKind, Tracer] = {}
    if args.trace:
        for kind, sdb in loaded.engines.items():
            tracers[kind] = Tracer()
            engines.trace_engine(tracers[kind], sdb)

    timings: dict[IndexKind, Timings] = {}
    closing: dict[IndexKind, Timings] = {}
    phase_io: dict[IndexKind, dict[str, float]] = {}
    space_amp: dict[IndexKind, float] = {}
    for kind in KINDS:
        sdb, oracle = loaded.engines[kind], loaded.oracles[kind]
        timings[kind] = Timings()
        before = engines.counters([sdb])
        position = 0
        for mix in MIXES:
            run_closed(sdb, plan.phases[mix], oracle, tally, timings[kind],
                       tracer=tracers.get(kind), start=position,
                       calibrator=args.calibrator)
            position += len(plan.phases[mix])
        phase_io[kind] = engines.delta(engines.counters([sdb]), before)
        sdb.flush()
        space_amp[kind] = sdb.total_size() / oracle.live_bytes()
        closing[kind] = Timings()
        sample = plan.closing_lookups + plan.closing_ranges
        if kind is IndexKind.EMBEDDED:
            # Embedded's default early termination is documented as
            # inexact once updates let a newer version sink below an older
            # record of another key range; it promises the exact top-K
            # only when told to scan exhaustively.  Time the default,
            # check it for validity, and check the exhaustive answer
            # against the oracle.
            run_closed(sdb, sample, oracle, tally, closing[kind],
                       calibrator=args.calibrator)
            run_closed(_Exhaustive(sdb),
                       plan.closing_lookups[:EXHAUSTIVE_SAMPLE]
                       + plan.closing_ranges[:EXHAUSTIVE_SAMPLE],
                       oracle, tally, Timings(), exact=True)
        else:
            run_closed(sdb, sample, oracle, tally, closing[kind], exact=True,
                       calibrator=args.calibrator)

    notes = [f"sizes: preload {len(plan.preload)} tweets, then "
             + " + ".join(f"{len(plan.phases[mix])} ops {mix}"
                          for mix in MIXES)
             + f" per kind ({', '.join(kind.value for kind in KINDS)}); "
             f"closing sample {len(plan.closing_lookups)} LOOKUP + "
             f"{len(plan.closing_ranges)} RANGELOOKUP; block cache 0 B"]

    if not args.trace:
        metrics = _end_to_end(timings, closing, phase_io, space_amp,
                              setup_seconds)
    else:
        metrics = _layers(timings, phase_io, tracers, notes)
        spans.dump(spans.concat(tracer.spans() for tracer in tracers.values()),
                   f"{args.out_dir}/trace-mixed_ingest.json")
    loaded.close()
    return Outcome(tally, metrics, notes)


class _Exhaustive:
    """The engine with early termination switched off for secondary reads."""

    def __init__(self, sdb: SecondaryIndexedDB) -> None:
        self.put, self.get = sdb.put, sdb.get
        self._sdb = sdb

    def lookup(self, attribute, value, k):
        return self._sdb.lookup(attribute, value, k, early_termination=False)

    def range_lookup(self, attribute, low, high, k):
        return self._sdb.range_lookup(attribute, low, high, k,
                                      early_termination=False)


def _reads(timing: Timings) -> int:
    return len(timing.of("get")) + len(timing.of("lookup"))


def _end_to_end(timings: dict[IndexKind, Timings],
                closing: dict[IndexKind, Timings],
                phase_io: dict[IndexKind, dict[str, float]],
                space_amp: dict[IndexKind, float],
                setup_seconds: float) -> dict[str, float]:
    def over_kinds(value) -> float:
        return geomean(value(kind) for kind in KINDS)

    def p50(label: str):
        return lambda kind: micros(percentile(timings[kind].of(label), 0.5))

    return {
        "setup_s": setup_seconds,
        "ops_per_s": sum(timings[kind].count() for kind in KINDS)
        / sum(timings[kind].seconds() for kind in KINDS),
        "put_p50_us": over_kinds(p50("put")),
        "put_mean_us": over_kinds(
            lambda kind: micros(fmean(timings[kind].of("put")))),
        "get_p50_us": over_kinds(p50("get")),
        "lookup_p50_us": over_kinds(p50("lookup")),
        "lookup_mean_us": over_kinds(
            lambda kind: micros(fmean(timings[kind].of("lookup")))),
        "rangelookup_p50_us": over_kinds(
            lambda kind: micros(percentile(closing[kind].of("range"), 0.5))),
        "read_blocks_per_query": over_kinds(
            lambda kind: phase_io[kind]["query_read_blocks"]
            / _reads(timings[kind])),
        "write_amp": over_kinds(
            lambda kind: phase_io[kind]["write_bytes"]
            / timings[kind].put_bytes),
        "space_amp": over_kinds(lambda kind: space_amp[kind]),
        "peak_rss_mib": peak_rss_mib(),
    }


def _layers(timings: dict[IndexKind, Timings],
            phase_io: dict[IndexKind, dict[str, float]],
            tracers: dict[IndexKind, Tracer], notes: list[str]
            ) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for kind in KINDS:
        name = f"core.{kind.value}"
        timing, done = timings[kind], phase_io[kind]
        metrics[f"{name}.mixed_put_mean_us"] = micros(fmean(timing.of("put")))
        metrics[f"{name}.mixed_put_p99_us"] = micros(
            p99_or_supported(timing.of("put")))
        metrics[f"{name}.mixed_lookup_p50_us"] = micros(
            percentile(timing.of("lookup"), 0.5))
        metrics[f"{name}.mixed_write_amp"] = \
            done["write_bytes"] / timing.put_bytes
        # Update-heavy leaves stale postings behind: keys examined per
        # result returned rises above static_query's 1.0.
        examined = done["validation_gets"] + done["getlite_probes"]
        metrics[f"{name}.candidates_per_result"] = engines.ratio(
            examined, timing.hits.get("lookup", 0))
        metrics[f"{name}.lookup_self_share"] = spans.self_share(
            tracers[kind].spans(), "core.lookup")

    all_spans = spans.concat(tracer.spans() for tracer in tracers.values())
    done = engines.sum_counters(phase_io.values())
    metrics.update(layers.lsm_write_counters(done))
    metrics.update(layers.lsm_read_counters(done))
    metrics.update(layers.lsm_span_metrics(
        engines.sum_counters(tracer.yielded for tracer in tracers.values()),
        all_spans))
    plain = engines.merge_samples(t.plain for t in timings.values())
    traced = engines.merge_samples(t.traced for t in timings.values())
    metrics["lsm.put_slow_share"] = slow_share(plain["put"] + traced["put"])
    metrics["workloads.trace_overhead_frac"] = layers.trace_overhead(
        plain, traced)

    seconds = {label: sum(plain.get(label, [])) + sum(traced.get(label, []))
               for label in ("put", "get", "lookup")}
    notes.append("op time shares: " + ", ".join(
        f"{label} {100 * value / sum(seconds.values()):.1f}%"
        for label, value in seconds.items()))
    by_layer = spans.self_time_by_layer(all_spans)
    notes.append(f"traced blocks: core self {by_layer.get('core', 0):.3f}s, "
                 f"lsm {by_layer.get('lsm', 0):.3f}s")
    return metrics
