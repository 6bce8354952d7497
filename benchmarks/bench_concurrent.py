"""Concurrent-client benchmark: background pipeline vs inline maintenance.

Measures what the background flush/compaction pipeline buys a
multi-threaded writer: with inline maintenance a put occasionally pays for
a whole flush (and its cascade of compactions) in its own latency, so the
write tail is dominated by maintenance; the pipeline moves that work to a
background thread and the tail collapses to the stall ladder.  A plain
script, not a pytest module::

    PYTHONPATH=src python benchmarks/bench_concurrent.py \
        [--scale full|ci] [--threads N] [--output FILE] [--check]

Per mode it reports client throughput, put latency percentiles (p50/p99),
and the engine's pipeline gauges (stalls, group commit, background runs).
``--check`` is the CI smoke gate: the background mode must cut the p99 put
latency to at most ``P99_TOLERANCE`` of inline's while keeping at least
``THROUGHPUT_TOLERANCE`` of its throughput.

``--interference`` runs the compaction-interference scenario instead
(DESIGN.md §11): steady GET load while a forced major compaction runs,
comparing how much read throughput each engine mode *retains* —

* ``inline``: single-threaded contract, readers serialize with the
  compaction behind one lock (reads effectively stop);
* ``threaded``: compaction on another thread, same interpreter — the GIL
  forces readers and the merge to time-share;
* ``multiprocess``: compaction in worker processes + shared-memory block
  cache — the coordinator waits in ``poll`` (GIL released) and readers
  keep the interpreter.

The multiprocess win requires a second CPU; the report records ``cpus``
and ``--check`` arms the retention gate only when the run had >= 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.concurrent import ThreadSafeDB  # noqa: E402
from repro.core.database import SecondaryIndexedDB  # noqa: E402
from repro.lsm.options import Options  # noqa: E402
from repro.workloads.ops import Get, Put  # noqa: E402
from repro.workloads.runner import WorkloadRunner  # noqa: E402

SCHEMA = 1

#: CI fails when background p99 put latency exceeds this fraction of the
#: inline p99 measured in the same run (same machine, same interference).
P99_TOLERANCE = 0.90

#: ...or when background throughput drops below this fraction of inline's.
THROUGHPUT_TOLERANCE = 0.60

#: Every mode runs this many times and the run with the lowest p99 wins:
#: the minimum is the run least disturbed by other tenants of the machine,
#: which matters doubly for tail latencies on shared CI runners.
REPEATS = 3

#: Small geometry so flushes and compactions actually happen at benchmark
#: op counts; zlib (the paper's engine default) makes maintenance heavy
#: enough to dominate the inline write tail.
ENGINE_OPTIONS = dict(
    block_size=2048,
    sstable_target_size=16 * 1024,
    # Small enough that well over 1% of puts trigger maintenance: the
    # inline p99 then *structurally* contains a flush, instead of flushes
    # straddling the percentile boundary and making the ratio bimodal.
    memtable_budget=8 * 1024,
    l1_target_size=64 * 1024,
    compression="zlib",
)

SCALES = {
    "full": dict(threads=4, puts_per_thread=4000),
    "ci": dict(threads=4, puts_per_thread=1200),
}


def _streams(threads: int, puts_per_thread: int) -> list:
    """Per-thread op lists: 9 puts then 1 get of an own key, repeated."""
    streams = []
    for tid in range(threads):
        ops = []
        for i in range(puts_per_thread):
            body = "x" * (60 + (i * 7919 + tid) % 80)
            ops.append(Put(f"t{tid}-{i:06d}",
                           {"UserID": f"u{(i + tid) % 97:04d}",
                            "body": body}))
            if i % 10 == 9:
                ops.append(Get(f"t{tid}-{i - 5:06d}"))
        streams.append(ops)
    return streams


def run_mode(background: bool, threads: int, puts_per_thread: int) -> dict:
    best = None
    for _ in range(REPEATS):
        result = _run_mode_once(background, threads, puts_per_thread)
        if best is None or result["put_p99_micros"] < best["put_p99_micros"]:
            best = result
    return best


def _run_mode_once(background: bool, threads: int,
                   puts_per_thread: int) -> dict:
    options = Options(background_compaction=background, **ENGINE_OPTIONS)
    db = SecondaryIndexedDB.open_memory(indexes={}, options=options)
    # The inline engine is single-threaded by contract: concurrent clients
    # must serialize through ThreadSafeDB.  The pipeline engine takes
    # concurrent callers directly.
    target = db if background else ThreadSafeDB(db)
    report = WorkloadRunner(target).run_concurrent(
        _streams(threads, puts_per_thread))
    if report.errors:
        raise RuntimeError(f"benchmark clients failed: {report.errors}")
    db.flush()
    pipeline = db.primary.stats()["pipeline"]
    db.close()
    return {
        "background": background,
        "threads": report.threads,
        "total_ops": report.total_ops,
        "wall_seconds": round(report.wall_seconds, 4),
        "ops_per_sec": round(report.ops_per_sec, 1),
        "put_mean_micros": round(report.mean_micros("put"), 2),
        "put_p50_micros": round(report.percentile_micros("put", 0.50), 2),
        "put_p99_micros": round(report.percentile_micros("put", 0.99), 2),
        "put_max_micros": round(
            report.percentile_micros("put", 1.0), 2),
        "get_p99_micros": round(report.percentile_micros("get", 0.99), 2),
        "pipeline": {
            "stall_events": pipeline["stall_events"],
            "stall_seconds": round(pipeline["stall_seconds"], 4),
            "slowdown_events": pipeline["slowdown_events"],
            "mean_group_batches": round(pipeline["mean_group_batches"], 3),
            "max_group_batches": pipeline["max_group_batches"],
            "bg_flushes": pipeline["bg_flushes"],
            "bg_compactions": pipeline["bg_compactions"],
        },
    }


def run_benchmark(scale: str, threads: int | None) -> dict:
    cfg = SCALES[scale]
    n_threads = threads or cfg["threads"]
    inline = run_mode(False, n_threads, cfg["puts_per_thread"])
    background = run_mode(True, n_threads, cfg["puts_per_thread"])
    comparison = {
        "throughput_ratio": round(
            background["ops_per_sec"] / inline["ops_per_sec"], 3),
        "p99_ratio": round(
            background["put_p99_micros"] / inline["put_p99_micros"], 3),
        "p50_ratio": round(
            background["put_p50_micros"] / inline["put_p50_micros"], 3),
    }
    return {
        "schema": SCHEMA,
        "harness": "benchmarks/bench_concurrent.py",
        "scale": scale,
        "python": sys.version.split()[0],
        "inline": inline,
        "background": background,
        "comparison": comparison,
    }


def check(report: dict) -> int:
    """CI gate: the pipeline must actually deliver its latency win."""
    comparison = report["comparison"]
    failures = []
    p99 = comparison["p99_ratio"]
    status = "ok" if p99 <= P99_TOLERANCE else "REGRESSED"
    print(f"  put_p99 background/inline   {p99:6.2f}x  "
          f"(must be <= {P99_TOLERANCE})  [{status}]")
    if p99 > P99_TOLERANCE:
        failures.append("put_p99")
    throughput = comparison["throughput_ratio"]
    status = "ok" if throughput >= THROUGHPUT_TOLERANCE else "REGRESSED"
    print(f"  throughput background/inline{throughput:6.2f}x  "
          f"(must be >= {THROUGHPUT_TOLERANCE})  [{status}]")
    if throughput < THROUGHPUT_TOLERANCE:
        failures.append("throughput")
    if failures:
        print(f"FAIL: background pipeline lost its edge on "
              f"{', '.join(failures)}")
        return 1
    print("concurrent benchmark smoke: pipeline win holds")
    return 0


# -- compaction interference (multiprocess executor, DESIGN.md §11) -----------

#: Worker processes for the multiprocess mode.
INTERFERENCE_PROCESSES = 2

#: With a real second CPU, multiprocess must retain this multiple of the
#: threaded mode's contended GET throughput (acceptance says >= 1.3x on an
#: idle multicore box; the CI gate stays conservative for noisy runners).
INTERFERENCE_TOLERANCE = 1.15

#: Geometry for the interference dataset: auto-compaction disabled (huge
#: L0 triggers) so the forced ``compact_range`` is the only maintenance in
#: the measured window, and every key overwritten each round so the merge
#: has real dropping/deduplication work.
INTERFERENCE_OPTIONS = dict(
    block_size=4096,
    sstable_target_size=32 * 1024,
    memtable_budget=1 << 30,  # explicit flushes only
    l0_compaction_trigger=999,
    l0_slowdown_writes_trigger=1000,
    l0_stop_writes_trigger=1001,
    compression="zlib",
)

INTERFERENCE_SCALES = {
    "full": dict(readers=2, rounds=10, keys=2500, baseline_seconds=1.5),
    "ci": dict(readers=2, rounds=6, keys=1200, baseline_seconds=0.6),
}

INTERFERENCE_MODES = ("inline", "threaded", "multiprocess")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _interference_db(mode: str, root: str):
    from repro.lsm.db import DB
    from repro.lsm.vfs import LocalVFS

    overrides = dict(INTERFERENCE_OPTIONS)
    if mode != "inline":
        overrides["background_compaction"] = True
    if mode == "multiprocess":
        overrides["compaction_processes"] = INTERFERENCE_PROCESSES
        overrides["shm_cache_bytes"] = 4 << 20
    db = DB.open(LocalVFS(root), "db", Options(**overrides))
    if mode == "multiprocess" and db._executor is None:
        raise RuntimeError("multiprocess executor failed to start")
    return db


def _read_loop(db, lock, keys, stop, counts, index):
    i = index
    ops = 0
    step = 7919  # prime stride: touches every key, defeats block locality
    n = len(keys)
    while not stop.is_set():
        if lock is not None:
            with lock:
                db.get(keys[i % n])
        else:
            db.get(keys[i % n])
        i += step
        ops += 1
    counts.append(ops)


def _measure_reads(db, lock, keys, readers, window_fn):
    """Reader throughput over the window ``window_fn`` defines.

    ``window_fn(stop_event)`` runs in the driver thread and returns when
    the window closes (a timer, or a compaction finishing); it must set
    ``stop_event`` before returning.
    """
    import threading
    import time

    stop = threading.Event()
    counts: list = []
    threads = [
        threading.Thread(target=_read_loop,
                         args=(db, lock, keys, stop, counts, seed * 131),
                         daemon=True)
        for seed in range(readers)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    window_fn(stop)
    elapsed = time.monotonic() - started
    for thread in threads:
        thread.join()
    return sum(counts) / elapsed, elapsed


def _run_interference_mode(mode: str, cfg: dict) -> dict:
    import tempfile
    import threading
    import time

    keys = [f"k{i:06d}".encode() for i in range(cfg["keys"])]
    with tempfile.TemporaryDirectory(prefix=f"bench-intf-{mode}-") as root:
        db = _interference_db(mode, root)
        try:
            for r in range(cfg["rounds"]):
                for i, key in enumerate(keys):
                    db.put(key, f"r{r}-{i}".encode() * 16)
                db.flush()
            lock = threading.RLock() if mode == "inline" else None

            def timed_window(stop):
                time.sleep(cfg["baseline_seconds"])
                stop.set()

            baseline_ops, _ = _measure_reads(
                db, lock, keys, cfg["readers"], timed_window)

            compaction_seconds = []

            def compaction_window(stop):
                started = time.monotonic()
                if lock is not None:
                    with lock:
                        db.compact_range()
                else:
                    db.compact_range()
                compaction_seconds.append(time.monotonic() - started)
                stop.set()

            contended_ops, window = _measure_reads(
                db, lock, keys, cfg["readers"], compaction_window)

            result = {
                "mode": mode,
                "baseline_gets_per_sec": round(baseline_ops, 1),
                "contended_gets_per_sec": round(contended_ops, 1),
                "retention": round(contended_ops / baseline_ops, 3),
                "compaction_seconds": round(compaction_seconds[0], 3),
                "levels": db.level_file_counts(),
            }
            pipeline = db.stats()["pipeline"]
            if pipeline["workers"] is not None:
                workers = pipeline["workers"]
                result["workers"] = {
                    "processes": workers["processes"],
                    "jobs_completed": workers["jobs_completed"],
                    "jobs_failed": workers["jobs_failed"],
                    "worker_cpu_seconds": workers["worker_cpu_seconds"],
                }
                result["shm_cache"] = pipeline["shm_cache"]
            return result
        finally:
            db.close()


def run_interference(scale: str) -> dict:
    cfg = INTERFERENCE_SCALES[scale]
    modes = {mode: _run_interference_mode(mode, cfg)
             for mode in INTERFERENCE_MODES}
    threaded = modes["threaded"]["contended_gets_per_sec"]
    multiprocess = modes["multiprocess"]["contended_gets_per_sec"]
    return {
        "schema": SCHEMA,
        "harness": "benchmarks/bench_concurrent.py --interference",
        "scale": scale,
        "python": sys.version.split()[0],
        "cpus": _cpus(),
        "modes": modes,
        "comparison": {
            "multiprocess_vs_threaded": round(
                multiprocess / threaded, 3) if threaded else None,
            "threaded_retention": modes["threaded"]["retention"],
            "multiprocess_retention": modes["multiprocess"]["retention"],
        },
    }


def check_interference(report: dict) -> int:
    """CI gate: multiprocess must out-read threaded during compaction.

    Only meaningful with >= 2 CPUs — on one core the scheduler halves the
    core between server and worker, while the threaded mode's readers get
    the GIL between merge checkpoints, so the multiprocess win physically
    cannot appear.  Such runs pass with a notice instead of lying.
    """
    ratio = report["comparison"]["multiprocess_vs_threaded"]
    if report["cpus"] < 2:
        print(f"  interference gate SKIPPED: {report['cpus']} cpu(s); "
              f"multiprocess/threaded measured {ratio}x (informational)")
        return 0
    status = "ok" if ratio >= INTERFERENCE_TOLERANCE else "REGRESSED"
    print(f"  contended GETs multiprocess/threaded {ratio:6.2f}x  "
          f"(must be >= {INTERFERENCE_TOLERANCE})  [{status}]")
    if ratio < INTERFERENCE_TOLERANCE:
        print("FAIL: multiprocess compaction lost its interference win")
        return 1
    print("interference benchmark smoke: multiprocess win holds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the scale's client thread count")
    parser.add_argument("--output", help="write the JSON report here")
    parser.add_argument("--check", action="store_true",
                        help="gate on the background-vs-inline ratios "
                        "(CI mode)")
    parser.add_argument("--interference", action="store_true",
                        help="run the compaction-interference scenario "
                        "(GET retention during forced major compaction)")
    args = parser.parse_args(argv)

    if args.interference:
        report = run_interference(args.scale)
    else:
        report = run_benchmark(args.scale, args.threads)
    print(json.dumps(report, indent=2))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.check:
        return check_interference(report) if args.interference \
            else check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
