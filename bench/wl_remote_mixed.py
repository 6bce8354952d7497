"""``remote_mixed`` — the store behind a socket, in a process of its own.

``python -m repro serve <dir> db --port 0 --indexes UserID=lazy`` runs as a
**separate process** with the shipped defaults — flush policy
``sync_writes=True``: one fsync per commit group, ``LocalVFS`` under the
benchmark's ``bench/out/`` directory — and the load generator talks to it
over loopback from this process with at most two threads, one connection
each.  Sandbox loopback and a sandbox filesystem: the latencies are this
box's, not a network's or a device's.  Generator and server are pinned to
one CPU (:func:`pin_to_one_cpu` says why), and the untraced run's timed
work goes in rounds with a calibration slice between every two
(``calibrate.Rounds``).

* set-up: spawn, preload through a ``Pipeline``;
* phase A: closed loop, 1 connection, Table 7(b) ``read_heavy`` (20 % PUT /
  70 % GET / 10 % LOOKUP K=5) — the latencies;
* phase B: closed loop, 2 connections — ``ops_per_s``;
* closing sample: LOOKUPs and 5-user RANGELOOKUPs, exact answers;
* phase C (traced run): **open loop**, 2 senders, an ascending ladder of
  offered rates, each request timed from its due time;
* phase D: SIGTERM-drain and restart, then a burst of PUTs ended by SIGKILL
  and a restart — every acknowledged PUT must read back.  (SIGKILL leaves
  the OS page cache intact, so this proves "acked means written", not
  "acked means on the platter"; the fault-injecting VFS drills under
  ``tests/`` cover the latter.)

``server`` does most of the work: the engine is the minority of every round
trip, so a ``core``/``lsm`` change should barely move this workload and a
``server`` change should move only this one.

The traced run also runs the same phase-A stream on an identically opened
in-process twin and prints the layer budget of one remote PUT and LOOKUP.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from statistics import fmean
from typing import Any, Sequence

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options
from repro.lsm.vfs import LocalVFS
from repro.server.client import Client
from repro.server.protocol import (STATUS_OK, decode_value, encode_frame,
                                   encode_value)
from repro.workloads.generator import MIXED_RATIOS

import engines
import layers
import spans
from calibrate import Calibrator, Rounds
from closedloop import Tally, Timings, run_closed
from context import Outcome, RunArgs
from measure import micros, p99_or_supported, percentile
from openloop import StepResult, run_sender
from opstream import Op, Oracle, StreamBuilder, users_for
from serverproc import ServerProcess
from spans import Tracer

MIX = MIXED_RATIOS["read_heavy"]
LADDER = (500, 1000, 1500, 2000, 3000)
#: A ladder step passes with p99-from-due at or under this.
LATENCY_LIMIT_SECONDS = 0.020
PRELOAD_BURST = 100
READBACK_BURST = 200
ABSENT_KEY = "t9999999999"
#: The budget's round-trip floor is taken with this idle gap between
#: requests: while the engine works (or waits for its fsync) both ends sit
#: blocked, and waking them costs more than back-to-back requests show.
IDLE_PAUSE_SECONDS = 0.0005

#: Sizes of one replica at ``--seconds 10``.
PRELOAD = 3000
PHASE_A_OPS = 6000
PHASE_B_OPS = 4000
CLOSING_LOOKUPS, CLOSING_RANGES = 60, 300
STEP_SECONDS = 2.0
KILL_BURST = 100
FLOOR_GETS = 1000
#: Metrics this workload puts into reference-box time itself.
CALIBRATED = frozenset({
    "setup_s", "ops_per_s", "put_p50_us", "put_mean_us", "get_p50_us",
    "lookup_p50_us", "lookup_mean_us", "rangelookup_p50_us",
    "server.pipelined_put_ops_per_s"})
#: The preload and phases A and B run in rounds of this many ops and the
#: closing sample in rounds of a quarter of it, a calibration slice between
#: two rounds; a round's times are scaled by the slices around it.
ROUND_OPS = 200


class Plan:
    def __init__(self, args: RunArgs) -> None:
        preload = args.size(PRELOAD, 150)
        phase_a = args.size(PHASE_A_OPS, 600)
        phase_b = args.size(PHASE_B_OPS, 300)
        step_seconds = max(0.2, STEP_SECONDS * args.scale)
        ladder_ops = [int(rate * step_seconds) for rate in LADDER]
        total = preload + phase_a + phase_b + sum(ladder_ops)
        builder = StreamBuilder(args.seed, users_for(preload + total // 5))
        self.preload: list[Op] = builder.load(preload)
        self.phase_a: list[Op] = builder.mixed(phase_a, MIX, lookup_k=5)
        # Two client threads race from here on: GETs aim at keys that exist
        # already, so the expected answer does not depend on the race.
        self.phase_b: list[Op] = builder.mixed(phase_b, MIX, lookup_k=5,
                                               frozen_targets=True)
        self.ladder: list[list[Op]] = (
            [builder.mixed(count, MIX, lookup_k=5, frozen_targets=True)
             for count in ladder_ops] if args.trace else [])
        self.kill_burst: list[Op] = builder.load(args.size(KILL_BURST, 20))
        self.closing_lookups = builder.lookups(args.size(CLOSING_LOOKUPS, 20))
        self.closing_ranges = builder.user_ranges(
            args.size(CLOSING_RANGES, 20))
        self.floor_gets = args.size(FLOOR_GETS, 100)


class Running:
    """One set-up: a live, preloaded server and the oracle of its contents."""

    def __init__(self, plan: Plan, directory: str,
                 calibrator: Calibrator) -> None:
        self.server = ServerProcess(directory)
        self.oracle = Oracle()
        try:
            began = time.perf_counter()
            self.server.start()
            self.spawn_seconds = time.perf_counter() - began
            self.preload = Rounds(calibrator)
            with self.server.client() as client:
                for part in _cut(plan.preload, ROUND_OPS):
                    began = time.perf_counter()
                    for burst in _cut(part, PRELOAD_BURST):
                        with client.pipeline() as pipeline:
                            for _put, key, document in burst:
                                pipeline.put(key, document)
                        for (_put, key, document), seq in zip(
                                burst, pipeline.results):
                            self.oracle.put(key, document, seq)
                    self.preload.add(len(part), time.perf_counter() - began)
        except BaseException:
            self.discard()
            raise

    def setup_seconds(self, calibrator: Calibrator, plan: Plan) -> float:
        """Spawn plus preload, in reference-box time.

        The preload is scaled round by round; the spawn cannot be cut
        into rounds and takes the replica's overall factor.
        """
        return self.spawn_seconds * calibrator.factor() + \
            self.preload.seconds_per_op() * len(plan.preload)

    def discard(self) -> None:
        self.server.kill()
        shutil.rmtree(self.server.directory, ignore_errors=True)


def pin_to_one_cpu() -> str:
    """Generator and server on one CPU, taking turns.

    A round trip is a chain of wake-ups: client to server reader to worker
    and back.  Across two virtual CPUs of a shared host each of them is an
    inter-processor interrupt into a CPU that may have been descheduled —
    it doubles the GET round trip here and its cost swings by the second;
    on one CPU it is a plain context switch.  The child inherits the mask.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return f"generator and server pinned to CPU {cpu}"


def _cut(ops: Sequence[Op], size: int) -> list[Sequence[Op]]:
    return [ops[at:at + size] for at in range(0, len(ops), size)]


def run(args: RunArgs) -> Outcome:
    tally = Tally()
    plan = Plan(args)
    pinned = pin_to_one_cpu()
    base = os.path.join(args.out_dir, f"remote-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    running = None
    try:
        running = Running(plan, os.path.join(base, "db"), args.calibrator)
        if args.trace:
            metrics, notes = _traced(args, plan, running, tally, base)
        else:
            metrics, notes = _plain(args, plan, running, tally)
    finally:
        if running is not None:
            running.discard()
        shutil.rmtree(base, ignore_errors=True)
    notes.insert(0, (
        f"sizes: preload {len(plan.preload)} tweets, phase A "
        f"{len(plan.phase_a)} ops on 1 connection, phase B "
        f"{len(plan.phase_b)} ops on 2 connections, closing sample "
        f"{len(plan.closing_lookups)} LOOKUPs and "
        f"{len(plan.closing_ranges)} RANGELOOKUPs, kill burst "
        f"{len(plan.kill_burst)} PUTs; server defaults (sync_writes=True, "
        "4 KiB blocks, 256 KiB memtable, block cache 0 B), LocalVFS; "
        f"{pinned}"))
    return Outcome(tally, metrics, notes, CALIBRATED)


# -- phases --------------------------------------------------------------------


def _phase_b(server: ServerProcess, plan: Plan, oracle: Oracle,
             tally: Tally, calibrator: Calibrator) -> tuple[Rounds, int]:
    """Two closed-loop clients, a thread and a connection each, in rounds.

    Returns the rounds' wall times and the user bytes PUT.
    """
    clients = [server.client(), server.client()]
    rounds = Rounds(calibrator)
    put_bytes = 0
    try:
        for ops in _cut(plan.phase_b, ROUND_OPS):
            timings = [Timings(), Timings()]
            tallies = [Tally(), Tally()]
            threads = [threading.Thread(
                target=run_closed,
                args=(clients[which], ops[which::2], oracle, tallies[which],
                      timings[which]), kwargs={"racing": True})
                for which in range(2)]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rounds.add(len(ops), time.perf_counter() - began)
            for which in range(2):
                tally.absorb(tallies[which])
                put_bytes += timings[which].put_bytes
    finally:
        for client in clients:
            client.close()
    return rounds, put_bytes


def _read_back(client: Client, oracle: Oracle, keys: Sequence[str],
               tally: Tally, what: str) -> None:
    """Every key must read back as the oracle's live document."""
    for at in range(0, len(keys), READBACK_BURST):
        burst = keys[at:at + READBACK_BURST]
        with client.pipeline() as pipeline:
            for key in burst:
                pipeline.get(key)
        for key, document in zip(burst, pipeline.results):
            if document == oracle.docs[key]:
                tally.ok()
            else:
                tally.fail(f"{what}: acked PUT {key} did not read back")


def _durability(plan: Plan, running: Running, tally: Tally
                ) -> tuple[float, float]:
    """Phase D.  Returns (recovery seconds, bytes on disk after drain)."""
    server, oracle = running.server, running.oracle
    code = server.drain()
    if code != 0:
        tally.fail(f"SIGTERM drain exited {code}")
    else:
        tally.ok()
    stored = _bytes_under(server.directory)
    began = time.perf_counter()
    server.start()
    with server.client() as client:
        client.get(plan.preload[0][1])
        recovery = time.perf_counter() - began
        _read_back(client, oracle, list(oracle.docs), tally, "after drain")
        for _put, key, document in plan.kill_burst:
            oracle.put(key, document, client.put(key, document))
    server.kill()
    server.start()
    with server.client() as client:
        survivors = [op[1] for op in plan.kill_burst] + \
            list(oracle.docs)[::10]
        _read_back(client, oracle, survivors, tally, "after SIGKILL")
    return recovery, stored


def _bytes_under(directory: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


# -- the untraced run: end-to-end metrics ------------------------------------------


def _closed_in_rounds(client: Client, ops: Sequence[Op], size: int,
                      oracle: Oracle, tally: Tally, calibrator: Calibrator,
                      exact: bool = False) -> Timings:
    """One closed-loop client, in rounds of ``size`` ops.

    Returns the samples in reference-box time: each round's are scaled by
    the calibration slices around it (``calibrate.Rounds``).
    """
    rounds = Rounds(calibrator)
    pooled = Timings()
    for index, part in enumerate(_cut(ops, size)):
        timings = Timings()
        run_closed(client, part, oracle, tally, timings, exact=exact)
        rounds.add(len(part), timings.seconds())
        factor = rounds.factor(index)
        for label, samples in timings.plain.items():
            pooled.plain.setdefault(label, []).extend(
                factor * sample for sample in samples)
        pooled.put_bytes += timings.put_bytes
    return pooled


def _plain(args: RunArgs, plan: Plan, running: Running, tally: Tally
           ) -> tuple[dict[str, float], list[str]]:
    server, oracle = running.server, running.oracle
    calibrator = args.calibrator
    with server.client() as client:
        io_start = client.stats()["db"]["io"]
        preload_bytes = oracle.live_bytes()
        phase_a = _closed_in_rounds(client, plan.phase_a, ROUND_OPS, oracle,
                                    tally, calibrator)
        io_after_a = client.stats()["db"]["io"]
        phase_b, put_bytes_b = _phase_b(server, plan, oracle, tally,
                                        calibrator)
        io_after_b = client.stats()["db"]["io"]
        run_closed(client, plan.closing_lookups, oracle, tally, Timings(),
                   exact=True)
        closing = _closed_in_rounds(client, plan.closing_ranges,
                                    ROUND_OPS // 4, oracle, tally,
                                    calibrator, exact=True)
    peak_rss = server.peak_rss_mib()
    live_bytes_before_burst = oracle.live_bytes()
    _recovery, stored = _durability(plan, running, tally)

    put_bytes = phase_a.put_bytes + put_bytes_b
    reads_a = sum(op[0] in ("get", "lookup") for op in plan.phase_a)
    metrics = {
        "setup_s": running.setup_seconds(calibrator, plan),
        "ops_per_s": 1.0 / phase_b.seconds_per_op(),
        "put_p50_us": micros(percentile(phase_a.of("put"), 0.5)),
        "put_mean_us": micros(fmean(phase_a.of("put"))),
        "get_p50_us": micros(percentile(phase_a.of("get"), 0.5)),
        "lookup_p50_us": micros(percentile(phase_a.of("lookup"), 0.5)),
        "lookup_mean_us": micros(fmean(phase_a.of("lookup"))),
        "rangelookup_p50_us": micros(percentile(closing.of("range"), 0.5)),
        # All causes, compaction included: the wire shows no category split.
        "read_blocks_per_query":
            (io_after_a["read_blocks"] - io_start["read_blocks"]) / reads_a,
        # Over the server's whole life, preload included: at these sizes
        # the window after the preload holds one L0 compaction or none,
        # and which one would be a coin flip on the seed.
        "write_amp": io_after_b["write_bytes"] / (preload_bytes + put_bytes),
        "space_amp": stored / live_bytes_before_burst,
        "peak_rss_mib": peak_rss,
    }
    notes = [f"phase B: 2 connections {metrics['ops_per_s']:.0f} op/s vs "
             f"phase A: 1 connection "
             f"{phase_a.count() / phase_a.seconds():.0f} op/s"]
    return metrics, notes


# -- the traced run: layer metrics and the layer budget --------------------------------


def _traced(args: RunArgs, plan: Plan, running: Running, tally: Tally,
            base: str) -> tuple[dict[str, float], list[str]]:
    server, oracle = running.server, running.oracle
    metrics: dict[str, float] = {
        "server.pipelined_put_ops_per_s":
            1.0 / running.preload.seconds_per_op()}
    notes: list[str] = []
    tracer = Tracer()
    phase_a = Timings()
    recorded: list[tuple[Op, Any]] = []
    with server.client() as client:
        for call in ("put", "get", "lookup", "range_lookup"):
            tracer.wrap(client, call, f"client.{call}")
        run_closed(client, plan.phase_a, oracle, tally, phase_a,
                   tracer=tracer, record=recorded,
                   calibrator=args.calibrator)
        floor = _absent_gets(client, plan.floor_gets, pause=0.0)
        idle_floor = _absent_gets(client, plan.floor_gets // 2,
                                  pause=IDLE_PAUSE_SECONDS)

    remote = {op: percentile(phase_a.of(op), 0.5)
              for op in ("put", "get", "lookup")}
    for op in remote:
        metrics[f"server.{op}_p99_us"] = micros(
            p99_or_supported(phase_a.of(op)))
    metrics["server.rtt_floor_us"] = micros(percentile(floor, 0.5))
    codec = _codec_replay(recorded)
    metrics.update(codec["metrics"])
    metrics["workloads.trace_overhead_frac"] = layers.trace_overhead(
        phase_a.plain, phase_a.traced)

    twin = _twin(plan, os.path.join(base, "twin-sync"), True, tally)
    twin_nosync = _twin(plan, os.path.join(base, "twin-nosync"), False, tally)
    for op in remote:
        metrics[f"server.rtt_tax_{op}_us"] = micros(
            remote[op] - twin["p50"][op])
    notes.append("phase A p50, remote vs in-process twin (us): " + ", ".join(
        f"{op} {micros(remote[op]):.0f} vs {micros(twin['p50'][op]):.0f}"
        for op in remote))

    steps = _ladder(server, plan, oracle, tally)
    passed = 0
    late_p99 = 0.0
    for step in steps:
        name = f"server.rate{int(step.rate)}"
        p99 = p99_or_supported(step.from_due) if step.from_due else 0.0
        metrics[f"{name}.p50_us"] = micros(
            percentile(step.from_due, 0.5)) if step.from_due else 0.0
        metrics[f"{name}.p99_us"] = micros(p99)
        metrics[f"{name}.late_frac"] = step.late_frac
        ok = step.passes(p99, LATENCY_LIMIT_SECONDS)
        if ok:
            passed = int(step.rate)
            if step.overshoot:
                late_p99 = max(late_p99, p99_or_supported(step.overshoot))
        notes.append(
            f"open loop {int(step.rate)} op/s offered: achieved "
            f"{step.achieved:.0f}, p50 {metrics[f'{name}.p50_us']:.0f} us, "
            f"p99 {micros(p99):.0f} us from due, late "
            f"{100 * step.late_frac:.1f}%"
            f"{', ABORTED (backlog > 1 s)' if step.aborted else ''} -> "
            f"{'ok' if ok else 'FAILS'}")
    metrics["server.max_rate_ok"] = passed
    metrics["workloads.gen_late_p99_us"] = micros(late_p99)

    with server.client() as client:
        stats = client.stats()
    for name in ("requests", "errors", "backpressure_waits", "dedup_applied"):
        metrics[f"server.{name}"] = stats["server"][name]
    pipeline = stats["db"]["pipeline"]
    metrics["lsm.stall_events"] = pipeline["stall_events"]
    metrics["lsm.group_commit_ratio"] = pipeline["mean_group_batches"]
    compaction = stats["db"]["compaction"]
    for name in ("flush_count", "compaction_count", "bytes_compacted_in",
                 "bytes_compacted_out"):
        metrics[f"lsm.{name}"] = compaction[name]

    recovery, _stored = _durability(plan, running, tally)
    metrics["lsm.recovery_s"] = recovery

    notes.extend(_budget(remote, percentile(idle_floor, 0.5), codec, twin,
                         twin_nosync))
    spans.dump(spans.concat([tracer.spans(), twin["spans"]]),
               f"{args.out_dir}/trace-remote_mixed.json")
    return metrics, notes


def _absent_gets(client: Client, count: int, pause: float) -> list[float]:
    """Round trips that do next to nothing, optionally with idle gaps."""
    samples = []
    for _ in range(count):
        if pause:
            time.sleep(pause)
        began = time.perf_counter()
        client.get(ABSENT_KEY)
        samples.append(time.perf_counter() - began)
    return samples


def _codec_replay(recorded: list[tuple[Op, Any]]) -> dict[str, Any]:
    """Push phase A's messages through the wire codec again, offline.

    Rebuilds each request and response as the client and server framed
    them, and times ``encode_value``+``encode_frame`` and ``decode_value``
    on both.  Returns layer metrics plus, per op type, the mean seconds a
    round trip spends in the codec (two encodes and two decodes).
    """
    wire_name = {"put": "put", "get": "get", "lookup": "lookup",
                 "range": "rangelookup"}
    clock = time.perf_counter
    encode_seconds = decode_seconds = 0.0
    request_bytes = response_bytes = 0
    per_op: dict[str, list[float]] = {}
    for number, (op, response) in enumerate(recorded, 1):
        request = [number, wire_name[op[0]], *op[1:]]
        reply = [number, STATUS_OK, response]
        spent = 0.0
        for message, is_request in ((request, True), (reply, False)):
            began = clock()
            frame = encode_frame(encode_value(message))
            middle = clock()
            decode_value(frame[4:])
            ended = clock()
            encode_seconds += middle - began
            decode_seconds += ended - middle
            spent += ended - began
            if is_request:
                request_bytes += len(frame)
            else:
                response_bytes += len(frame)
        per_op.setdefault(op[0], []).append(spent)
    messages = 2 * len(recorded)
    return {
        "metrics": {
            "server.protocol.encode_us_per_msg":
                micros(encode_seconds / messages),
            "server.protocol.decode_us_per_msg":
                micros(decode_seconds / messages),
            "server.protocol.request_bytes_mean":
                request_bytes / len(recorded),
            "server.protocol.response_bytes_mean":
                response_bytes / len(recorded),
        },
        "round_trip": {op: fmean(samples) for op, samples in per_op.items()},
        "floor": _floor_codec(),
    }


def _floor_codec() -> float:
    """Codec seconds of one absent-key GET round trip."""
    clock = time.perf_counter
    samples = []
    for number in range(1, 2001):
        began = clock()
        for message in ([number, "get", ABSENT_KEY],
                        [number, STATUS_OK, None]):
            decode_value(encode_frame(encode_value(message))[4:])
        samples.append(clock() - began)
    return fmean(samples)


def _twin(plan: Plan, directory: str, sync_writes: bool, tally: Tally
          ) -> dict[str, Any]:
    """Phase A's stream on an identically opened engine, in this process."""
    sdb = SecondaryIndexedDB.open(
        LocalVFS(directory), "db", indexes={"UserID": IndexKind.LAZY},
        options=Options(sync_writes=sync_writes))
    try:
        oracle = Oracle()
        for _put, key, document in plan.preload:
            oracle.put(key, document, sdb.put(key, document))
        tracer = Tracer()
        engines.trace_engine(tracer, sdb)
        timings = Timings()
        run_closed(sdb, plan.phase_a, oracle, tally, timings, tracer=tracer)
        absent = []
        for _ in range(plan.floor_gets):
            began = time.perf_counter()
            sdb.get(ABSENT_KEY)
            absent.append(time.perf_counter() - began)
    finally:
        sdb.close()
        shutil.rmtree(directory, ignore_errors=True)
    twin_spans = tracer.spans()
    core_share = {op: spans.self_share(twin_spans, f"core.{op}")
                  for op in ("put", "get", "lookup")}
    return {"p50": {op: percentile(timings.of(op), 0.5)
                    for op in ("put", "get", "lookup")},
            "absent_get": percentile(absent, 0.5),
            "core_share": core_share, "spans": twin_spans}


def _ladder(server: ServerProcess, plan: Plan, oracle: Oracle, tally: Tally
            ) -> list[StepResult]:
    """Phase C: ascending offered rates, 2 senders, stop at the first miss."""
    steps: list[StepResult] = []
    clients = [server.client(), server.client()]
    try:
        for rate, ops in zip(LADDER, plan.ladder):
            halves = [ops[0::2], ops[1::2]]
            logs: list[Any] = [None, None]
            tallies = [Tally(), Tally()]
            start = time.perf_counter() + 0.05

            def sender_main(which: int) -> None:
                scratch = Timings()

                def send(op: Op) -> None:
                    # run_closed does the dispatch, the answer check and
                    # the oracle update; its own stopwatch is not used.
                    run_closed(clients[which], (op,), oracle,
                               tallies[which], scratch, racing=True)

                logs[which] = run_sender(send, halves[which], rate / 2.0,
                                         start, offset=which / rate)

            threads = [threading.Thread(target=sender_main, args=(which,))
                       for which in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            step = StepResult(rate, logs, LATENCY_LIMIT_SECONDS)
            for part in tallies:
                tally.absorb(part)
            for _ in range(step.unsent):
                tally.fail(f"open loop {rate} op/s: request never sent "
                           "(backlog > 1 s)")
            steps.append(step)
            p99 = p99_or_supported(step.from_due) if step.from_due else 0.0
            if not step.passes(p99, LATENCY_LIMIT_SECONDS):
                break
    finally:
        for client in clients:
            client.close()
    return steps


def _budget(remote: dict[str, float], floor: float, codec: dict[str, Any],
            twin: dict[str, Any], twin_nosync: dict[str, Any]) -> list[str]:
    """The layer budget of one remote PUT and one remote LOOKUP (p50s).

    Every part is measured on its own — the codec by offline replay, the
    fixed cost of a round trip from paced absent-key GETs, the engine on
    the in-process twin — so the parts need not add up.  What is left over
    is what timing from outside cannot see (waking after a blocking call,
    refilling caches after the other process ran); it is printed, not
    spread over the other lines.
    """
    # What a round trip costs with the codec and the engine taken out:
    # sockets, the server's reader/worker hand-offs, the scheduler.
    wire_and_server = floor - codec["floor"] - twin["absent_get"]
    lines = ["", "layer budget (p50, us; loopback, sandbox filesystem)"]
    for op in ("put", "lookup"):
        engine = twin["p50"][op]
        core_self = engine * twin["core_share"][op]
        lsm = engine - core_self
        parts = [("client+server codec", codec["round_trip"][op]),
                 ("wire + server threads", wire_and_server),
                 ("core self", core_self)]
        if op == "put":
            fsync = max(0.0, engine - twin_nosync["p50"]["put"])
            parts += [("lsm (WAL append, memtable)", lsm - fsync),
                      ("lsm fsync", fsync)]
        else:
            parts += [("lsm (reads)", lsm)]
        total = sum(value for _name, value in parts)
        lines.append(f"  remote {op.upper()}: measured "
                     f"{micros(remote[op]):.0f}")
        for name, value in parts:
            lines.append(f"    {name:28s} {micros(value):8.0f}  "
                         f"{100 * value / remote[op]:5.1f}%")
        lines.append(f"    {'unattributed':28s} "
                     f"{micros(remote[op] - total):8.0f}  "
                     f"{100 * (1 - total / remote[op]):5.1f}%")
    in_process = twin_nosync["p50"]["put"]
    gap = remote["put"] - in_process
    fsync = max(0.0, twin["p50"]["put"] - in_process)
    lines.append(
        f"  in-process PUT (no fsync) {micros(in_process):.0f} us vs remote "
        f"{micros(remote['put']):.0f} us: of the {micros(gap):.0f} us gap, "
        f"fsync is {100 * fsync / gap:.0f}% and server (codec, wire, "
        f"threads) {100 * (gap - fsync) / gap:.0f}%")
    return lines
