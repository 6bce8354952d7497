"""Maintenance CLI: inspect, dump, verify, and profile databases.

Mirrors LevelDB's ``ldb``/``leveldbutil`` utilities::

    python -m repro stats   <directory> <db-name>
    python -m repro dump    <directory> <db-name> [--limit N]
    python -m repro verify  <directory> <db-name>
    python -m repro scrub   <directory> <db-name>
    python -m repro repair  <directory> <db-name> [--dry-run]
    python -m repro profile <workload> [--ops N] [--top N]
    python -m repro serve   <directory> <db-name> [--port P] [--indexes ...]

``directory`` is a :class:`~repro.lsm.vfs.LocalVFS` root (where the
database's files live); ``db-name`` is the name it was opened under —
``data/primary`` for the primary table of a
:class:`~repro.core.database.SecondaryIndexedDB` opened as ``"data"``.

``profile`` runs a synthetic engine workload (``put``, ``get``, ``scan``
or ``lookup``) against an in-memory database under :mod:`cProfile` and
prints the top functions by cumulative time — the view the hot-path work
in DESIGN.md §7 was driven by.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from dataclasses import replace
from itertools import groupby
from typing import IO, Iterator

from repro.lsm.db import DB
from repro.lsm.iterator import merge_streams
from repro.lsm.keys import KIND_MERGE, KIND_VALUE
from repro.lsm.manifest import current_file_name
from repro.lsm.options import Options
from repro.lsm.vfs import LocalVFS

#: The commands that inspect an existing database: on a path holding none
#: they fail instead of letting ``DB.open`` create one there.
INSPECTING_COMMANDS = ("stats", "dump", "verify", "scrub")


def _open(directory: str, name: str, options: Options | None = None) -> DB:
    return DB.open(LocalVFS(directory), name, options or Options())


def _database_exists(directory: str, name: str) -> bool:
    """Does ``directory`` hold database ``name`` (a ``CURRENT`` file)?
    Checked on the path itself: a :class:`LocalVFS` creates its root."""
    return os.path.exists(os.path.join(directory, current_file_name(name)))


def cmd_stats(directory: str, name: str, out: IO[str]) -> int:
    """The database's stats tree and level shapes (``DB.debug_string``)."""
    db = _open(directory, name)
    try:
        out.write(db.debug_string() + "\n")
        return 0
    finally:
        db.close()


def cmd_dump(directory: str, name: str, out: IO[str],
             limit: int | None = None) -> int:
    """Print visible key/value pairs in key order.

    A key whose newest versions are merge operands is printed with its
    operand chain unfolded: the tool has no merge operator to fold it."""
    db = _open(directory, name)
    try:
        printed = 0
        for key, value, operands in _visible_versions(db):
            shown = "" if value is None else _show(value)
            if operands:
                chain = ", ".join(_show(operand) for operand in operands)
                shown = (f"{len(operands)} merge operands, unfolded (newest "
                         f"first): {chain}" + (shown and f" over {shown}"))
            out.write(f"{key!r} => {shown}\n")
            printed += 1
            if limit is not None and printed >= limit:
                out.write(f"... (stopped at --limit {limit})\n")
                break
        out.write(f"{printed} entries\n")
        return 0
    finally:
        db.close()


def _show(value: bytes) -> str:
    return f"{value[:80]!r}{' ...' if len(value) > 80 else ''}"


def _visible_versions(db: DB) -> Iterator[tuple[bytes, bytes | None,
                                                list[bytes]]]:
    """``(key, value, operands)`` per visible key, in key order.

    ``operands`` are the merge operands above the key's newest value or
    tombstone, newest first, and ``value`` the value they apply to
    (``None``: a tombstone or no base at all); a key with no operands has
    a value.  Read raw, level by level, so no merge operator is needed.
    """
    streams = [db.scan_level(level)
               for level in range(-1, db.options.max_levels)]
    for key, versions in groupby(merge_streams(streams),
                                 key=lambda entry: entry[0].user_key):
        operands: list[bytes] = []
        value = None
        for ikey, stored in versions:
            if ikey.kind != KIND_MERGE:
                value = stored if ikey.kind == KIND_VALUE else None
                break
            operands.append(stored)
        if operands or value is not None:
            yield key, value, operands


def cmd_verify(directory: str, name: str, out: IO[str]) -> int:
    """Run the integrity checker; exit status 1 on any finding."""
    db = _open(directory, name)
    try:
        report = db.verify_integrity()
        out.write(f"tables:  {report.tables_checked}\n")
        out.write(f"blocks:  {report.blocks_checked}\n")
        out.write(f"entries: {report.entries_checked}\n")
        return _report_problems(report.problems, out)
    finally:
        db.close()


def _report_problems(problems: list[str], out: IO[str]) -> int:
    """Print an audit's findings; returns the exit status (1 on any)."""
    if not problems:
        out.write("OK\n")
        return 0
    for problem in problems:
        out.write(f"PROBLEM: {problem}\n")
    return 1


def cmd_scrub(directory: str, name: str, out: IO[str]) -> int:
    """CRC-verify every live block, the WAL tail and the manifest.

    Exit status 1 on any finding.  The CLI opens with the default
    ``on_corruption="raise"`` policy, so a scrub only *reports* — it never
    quarantines behind the running database's back.
    """
    from repro.lsm.errors import CorruptionError

    try:
        db = _open(directory, name)
    except CorruptionError as exc:
        out.write(f"PROBLEM: cannot open database: {exc}\n")
        out.write("hint: try `repair` to salvage readable data\n")
        return 1
    try:
        report = db.scrub()
        out.write(f"tables:   {report.tables_scanned}\n")
        out.write(f"blocks:   {report.blocks_verified}\n")
        out.write(f"wal:      {report.wal_files_verified} file(s)\n")
        out.write(f"manifest: "
                  f"{'ok' if report.manifest_verified else 'PROBLEM'}\n")
        return _report_problems(report.problems, out)
    finally:
        db.close()


def cmd_repair(directory: str, name: str, out: IO[str],
               dry_run: bool = False) -> int:
    """Salvage a damaged database (LevelDB's ``RepairDB``).

    Operates on the files directly — never opens the database through the
    normal recovery path, so it works even when the manifest or WAL is too
    damaged for ``open`` to succeed.  ``--dry-run`` reports what would be
    done without touching anything.
    """
    from repro.lsm.repair import repair_db

    report = repair_db(LocalVFS(directory), name, dry_run=dry_run)
    mode = "dry-run: " if dry_run else ""
    out.write(f"{mode}tables kept:     {report.tables_kept}\n")
    out.write(f"{mode}tables salvaged: {report.tables_salvaged} "
              f"({report.blocks_dropped} bad blocks dropped)\n")
    out.write(f"{mode}tables dropped:  {report.tables_dropped}\n")
    out.write(f"{mode}wal records:     {report.wal_records_salvaged}\n")
    out.write(f"{mode}last sequence:   {report.last_sequence}\n")
    for problem in report.problems:
        out.write(f"found: {problem}\n")
    for action in report.actions:
        out.write(f"{action}\n")
    return 0


PROFILE_WORKLOADS = ("put", "get", "scan", "lookup")


def _profile_target(workload: str, ops: int):
    """Build the workload's state and return the callable to profile.

    Setup (data loading, flushes) happens *outside* the profiled region so
    the report shows the operation's own hot path, not the build phase.
    Table geometry is the paper's (``bench/engines.py`` ``PAPER_GEOMETRY``) so
    conclusions carry over to the ``bench/`` numbers.
    """
    from repro.lsm.db import DB

    options = Options(block_size=2048, sstable_target_size=16 * 1024,
                      memtable_budget=16 * 1024, l1_target_size=64 * 1024,
                      compression="none")

    def key(i: int) -> bytes:
        return b"user%06d" % (i * 2654435761 % 1000003)

    def value(i: int) -> bytes:
        return b'{"UserID": "u%04d", "body": "%s"}' % (i % 97, b"x" * 60)

    if workload == "put":
        db = DB.open_memory(options=options)

        def run_put():
            for i in range(ops):
                db.put(key(i), value(i))
        return run_put

    if workload == "lookup":
        from repro.core.base import IndexKind
        from repro.core.database import SecondaryIndexedDB

        sdb = SecondaryIndexedDB.open_memory(
            indexes={"UserID": IndexKind.LAZY}, options=options)
        for i in range(max(ops, 2000)):
            sdb.put(b"t%06d" % i, {"UserID": "u%03d" % (i % 53), "n": i})
        sdb.flush()

        def run_lookup():
            for i in range(ops):
                sdb.lookup("UserID", "u%03d" % (i % 53), k=5)
        return run_lookup

    db = DB.open_memory(options=options)
    load = max(ops, 5000)
    for i in range(load):
        db.put(key(i), value(i))
    db.flush()

    if workload == "get":
        def run_get():
            for i in range(ops):
                db.get(key(i * 3 % load))
        return run_get

    def run_scan():
        seen = 0
        while seen < ops:
            for _k, _v in db.scan():
                seen += 1
    return run_scan


def cmd_profile(workload: str, ops: int, top: int, out: IO[str]) -> int:
    """cProfile one synthetic workload; print top functions by cumtime."""
    target = _profile_target(workload, ops)
    profiler = cProfile.Profile()
    profiler.enable()
    target()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def _parse_index_map(indexes: str, out: IO[str]):
    """Parse ``attr=kind,...`` into ``{attr: IndexKind}``; None on error."""
    from repro.core.base import IndexKind

    index_map = {}
    for spec in indexes.split(","):
        attribute, _, kind = spec.partition("=")
        if not attribute or not kind:
            out.write(f"bad --indexes entry {spec!r} "
                      "(want attr=kind)\n")
            return None
        if attribute in index_map:
            out.write(f"repeated --indexes attribute {attribute!r}\n")
            return None
        try:
            index_map[attribute] = IndexKind(kind.lower())
        except ValueError:
            choices = ", ".join(k.value for k in IndexKind)
            out.write(f"unknown index kind {kind!r} "
                      f"(choose from {choices})\n")
            return None
    return index_map


def cmd_serve(directory: str, name: str, out: IO[str], host: str,
              port: int, indexes: str | None, sync: bool,
              shards: int = 0, replication: int = 1) -> int:
    """Serve one database over the framed socket protocol (ROADMAP item 1).

    Without ``--indexes`` the database is served raw (keys and values are
    bytes; the pipeline engine takes every connection's writes straight
    into group commit).  With ``--indexes attr=kind,...`` it opens as a
    :class:`~repro.core.database.SecondaryIndexedDB` and also serves
    LOOKUP/RANGELOOKUP (single-writer: operations serialize server-side).

    ``--shards N`` serves a :class:`~repro.dist.cluster.ShardedDB` instead:
    N hash-ring shards under ``directory`` (each replica in its own
    subdirectory, recovered on restart), ``--replication R`` synchronous
    copies per shard, with ``--indexes`` becoming each shard's local
    indexes.

    Prints ``listening on HOST:PORT`` once the socket is bound; runs until
    interrupted.  SIGTERM (and Ctrl-C) triggers a graceful drain: stop
    accepting, finish every fully received request, answer it, flush, then
    exit 0 — no acked write is lost, no request half-applied.
    """
    import signal as _signal
    import threading as _threading

    from repro.server import Server

    options = Options(sync_writes=sync)
    index_map = _parse_index_map(indexes, out) if indexes else {}
    if index_map is None:
        return 2
    if shards:
        from repro.dist.cluster import ShardedDB

        def shard_vfs(shard_id: int, replica_id: int) -> LocalVFS:
            return LocalVFS(os.path.join(
                directory, f"{name}-s{shard_id}-r{replica_id}"))

        db: object = ShardedDB.open(
            shard_vfs, num_shards=shards, replication_factor=replication,
            local_indexes=index_map, options=options,
            meta_vfs=LocalVFS(os.path.join(directory, f"{name}-cluster")))
    elif indexes:
        from repro.core.database import SecondaryIndexedDB

        db = SecondaryIndexedDB.open(LocalVFS(directory), name,
                                     indexes=index_map, options=options)
    else:
        db = _open(directory, name,
                   replace(options, background_compaction=True))
    server = Server(db, host=host, port=port)
    stop = _threading.Event()
    previous_handler = None
    try:
        previous_handler = _signal.signal(
            _signal.SIGTERM, lambda _signo, _frame: stop.set())
    except ValueError:
        pass  # not the main thread (tests drive cmd_serve directly)
    try:
        bound_host, bound_port = server.start()
        out.write(f"listening on {bound_host}:{bound_port}\n")
        out.flush()
        while not stop.wait(0.5):
            pass
        out.write("draining\n")
        out.flush()
        return 0
    except KeyboardInterrupt:
        out.write("draining\n")
        return 0
    finally:
        # Graceful drain on every exit path: every fully received
        # request is executed and answered before the threads join, so
        # acked writes reach the engine before close() makes them
        # durable on disk.
        server.close(drain=True)
        db.close()
        if previous_handler is not None:
            try:
                _signal.signal(_signal.SIGTERM, previous_handler)
            except ValueError:
                pass


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Inspect, verify, and profile LevelDB++ databases.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in ("stats", "dump", "verify", "scrub", "repair"):
        sub = subparsers.add_parser(command)
        sub.add_argument("directory", help="LocalVFS root directory")
        sub.add_argument("name", help="database name within the directory")
        if command == "dump":
            sub.add_argument("--limit", type=int, default=None,
                             help="stop after N entries")
        elif command == "repair":
            sub.add_argument("--dry-run", action="store_true",
                             help="report what would be done; change nothing")
    profile = subparsers.add_parser(
        "profile", help="cProfile a synthetic engine workload")
    profile.add_argument("workload", choices=PROFILE_WORKLOADS)
    profile.add_argument("--ops", type=int, default=2000,
                         help="operations to profile (default 2000)")
    profile.add_argument("--top", type=int, default=25,
                         help="functions to print (default 25)")
    serve = subparsers.add_parser(
        "serve", help="serve a database over the framed socket protocol")
    serve.add_argument("directory", help="LocalVFS root directory")
    serve.add_argument("name", help="database name within the directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7841,
                       help="TCP port (0 = ephemeral; default 7841)")
    serve.add_argument("--indexes", default=None, metavar="ATTR=KIND,...",
                       help="serve a SecondaryIndexedDB with these indexes "
                            "(e.g. UserID=lazy,Time=composite)")
    serve.add_argument("--no-sync", dest="sync", action="store_false",
                       help="acknowledge writes before fsync (faster, "
                            "riskier)")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve a ShardedDB with N hash-ring shards "
                            "(default 0 = single database; --indexes become "
                            "per-shard local indexes)")
    serve.add_argument("--replication", type=int, default=1,
                       help="synchronous replicas per shard (with --shards; "
                            "default 1)")
    args = parser.parse_args(argv)
    if args.command in INSPECTING_COMMANDS and \
            not _database_exists(args.directory, args.name):
        out.write(f"no database at "
                  f"{os.path.join(args.directory, args.name)}\n")
        return 1
    if args.command == "stats":
        return cmd_stats(args.directory, args.name, out)
    if args.command == "dump":
        return cmd_dump(args.directory, args.name, out, args.limit)
    if args.command == "scrub":
        return cmd_scrub(args.directory, args.name, out)
    if args.command == "repair":
        return cmd_repair(args.directory, args.name, out, args.dry_run)
    if args.command == "profile":
        return cmd_profile(args.workload, args.ops, args.top, out)
    if args.command == "serve":
        return cmd_serve(args.directory, args.name, out, args.host,
                         args.port, args.indexes, args.sync, args.shards,
                         args.replication)
    return cmd_verify(args.directory, args.name, out)
