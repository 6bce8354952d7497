"""A threaded socket server over one database.

Each accepted connection gets one thread that loops *frame in → decode →
execute → response out* (pipelined requests are answered strictly FIFO).
Frames come off the socket through a
:class:`~repro.server.protocol.FrameReader`.

Concurrency model (DESIGN.md §10): the threads of all connections call
the engine *concurrently*.  Under the threaded maintenance scheduler
(``Options.background_compaction``) the engine's leader/follower group
commit coalesces their WAL appends, so one fsync covers a whole batch of
network writers — the server adds no locking of its own on that path.
On top of it a connection coalesces a *run* of consecutive pipelined
writes into a single :class:`~repro.lsm.db.WriteBatch`, so a client that
pipelines N puts enqueues one group-commit entry, not N: after a write
the thread looks ahead at the frames the kernel already holds, without
blocking, and folds in the writes it finds.

Backpressure is the kernel's: a connection reads the socket only when it
has nothing left to execute, and holds at most one frame plus one receive
of unexecuted bytes.  When its writes stall — the thread is parked in the
engine's write-stall ladder — nothing is read, the socket's receive
window fills, and TCP pushes back on the client.  A flood of writers
degrades into flow control instead of unbounded buffering.

Serving an engine under the inline scheduler still works: the handlers
serialize on one lock, since that scheduler runs a flush in the writing
thread and its reads take no pin, both safe for one caller at a time.
:class:`~repro.core.database.SecondaryIndexedDB` is always served behind
that lock: its reads go through the engine's read view and tolerate
background maintenance, but index maintenance on PUT takes one caller at
a time.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Any, Callable

from repro.core.records import key_to_bytes
from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import InvalidArgumentError
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    FrameTooLargeError,
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    TornFrameError,
    decode_value,
    encode_frame,
    encode_value,
)

logger = logging.getLogger(__name__)

__all__ = ["Server", "ServerStats", "DEFAULT_SCAN_LIMIT",
           "MAX_COALESCED_OPS", "DEDUP_WINDOW", "DEDUP_CLIENTS"]

#: SCAN responses are paged: a request with no explicit limit gets at
#: most this many entries, keeping one response inside a frame.
DEFAULT_SCAN_LIMIT = 1000

#: Longest run of pipelined writes folded into one WriteBatch.
MAX_COALESCED_OPS = 128

#: Acked write results remembered per client for idempotent-retry dedup:
#: bounded, refusing.  A retry more than this many writes behind the
#: client's newest is refused, not applied again — far beyond any real
#: retry horizon (a client retries its most recent unacked writes).
DEDUP_WINDOW = 1024

#: Clients whose dedup windows are kept: the most recently active ones.
#: Every ``Client`` object draws a fresh id, so without a bound a server
#: fed by short-lived clients grows one window per client forever.  A
#: client idle long enough for this many others to write after it has no
#: retry in flight any more (retries run against a deadline of seconds).
DEDUP_CLIENTS = 1024

_WRITES = ("put", "delete")


@dataclass
class ServerStats:
    """Counters for ``stats`` responses and tests."""

    connections_accepted: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0               # error responses sent
    frames_rejected: int = 0      # oversized frames (connection dropped)
    torn_frames: int = 0          # connections ended with unexecuted bytes
    # Always 0: no server-side request queue is left to fill (backpressure
    # is TCP's).  Kept until the [benchmark] PR that drops the
    # server.backpressure_waits metric bench/wl_remote_mixed.py reads.
    backpressure_waits: int = 0
    coalesced_groups: int = 0     # write runs folded into one WriteBatch
    coalesced_ops: int = 0        # ops committed through those runs
    max_coalesced_ops: int = 0
    dedup_hits: int = 0           # retried writes answered from the window
    dedup_applied: int = 0        # idempotent writes applied first-hand
    leaked_threads: int = 0       # threads still alive after close() joins

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class _DedupWindow:
    """One client's remembered write results (idempotent-retry dedup).

    ``results`` maps the client's write sequence to the result it was
    (or would have been) acked with; the lock makes check-and-apply
    atomic per client, so a retry racing its original attempt — the old
    connection's thread may still be draining when the client has
    already reconnected — can never double-apply.  ``forgotten``: the
    highest sequence evicted from ``results``; a retry at or below it is
    refused, since it may have been applied.
    """

    __slots__ = ("lock", "results", "forgotten")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.results: OrderedDict[int, Any] = OrderedDict()
        self.forgotten = 0


class _Connection:
    """One accepted socket, its frame reader and its thread."""

    __slots__ = ("sock", "frames", "thread", "peer")

    def __init__(self, sock: socket.socket, max_frame_bytes: int) -> None:
        self.sock = sock
        self.frames = FrameReader(sock, max_frame_bytes)
        self.thread: threading.Thread | None = None
        try:
            self.peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self.peer = "?"


def _readable(sock: socket.socket) -> bool:
    """Zero-timeout poll: would a ``recv`` return (data, EOF or error)?"""
    try:
        return bool(select.select([sock], (), (), 0)[0])
    except (OSError, ValueError):
        return True  # closed under us: the recv that follows reports it


class Server:
    """Serve one database over a framed socket protocol.

    ``db`` is either a raw :class:`~repro.lsm.db.DB` (keys and values are
    bytes; LOOKUP is rejected) or a
    :class:`~repro.core.database.SecondaryIndexedDB` (values are JSON
    documents; LOOKUP/RANGELOOKUP are served).  The server does not close
    ``db`` — the caller owns its lifecycle.

    Usage::

        server = Server(db)
        server.start()                 # returns once the port is bound
        host, port = server.address
        ...
        server.close()
    """

    def __init__(self, db: Any, host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 backlog: int = 128) -> None:
        self._host = host
        self._port = port
        self._backlog = backlog
        self.max_frame_bytes = max_frame_bytes
        self.stats = ServerStats()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        # Idempotent-retry dedup: client_id -> its bounded result window.
        # Per-client locks make check-and-apply atomic even when a retry
        # races the original attempt still draining on a dead connection.
        self._dedup: OrderedDict[str, _DedupWindow] = OrderedDict()
        self._dedup_lock = threading.Lock()
        # -- engine binding -------------------------------------------------
        self.db = db
        if isinstance(db, DB):
            self._primary = db
            self._indexed = None
            # Under the threaded scheduler the engine takes concurrent
            # writers natively (group commit); the inline one takes one
            # caller at a time, so concurrent handlers must serialize.
            self._lock: threading.Lock | None = \
                None if db.options.background_compaction \
                else threading.Lock()
        else:
            # SecondaryIndexedDB or ShardedDB (duck-typed; the cluster has
            # no one primary table).  Index maintenance, validation and
            # the cluster's replica fan-out expect one call at a time, so
            # every op serializes, whatever the tables' pipeline setting.
            self._primary = getattr(db, "primary", None)
            self._indexed = db
            self._lock = threading.Lock()
        self._step_hook = self._primary.options.step_hook \
            if self._primary is not None else getattr(db, "_step_hook", None)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start accepting; returns the bound address."""
        if self._listener is not None:
            raise InvalidArgumentError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(self._backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="server:accept", daemon=True)
        self._accept_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def close(self, drain: bool = False, timeout: float = 5.0) -> None:
        """Stop the server and join all threads.

        ``drain=False`` (the default) drops every connection immediately:
        in-flight requests may die unanswered.  ``drain=True`` is the
        graceful path — the drain state machine (DESIGN.md §13):

        1. stop accepting (close the listener);
        2. half-close every connection for reading (``SHUT_RD``): the
           bytes already received stay readable, and the end of stream
           sits *behind* every fully received request;
        3. each connection's thread executes those requests — commits
           them through the engine's group commit and writes every
           response — then reads the EOF and exits.

        A torn frame at the cut is discarded whole (never half-applied),
        and every request whose last byte arrived gets executed *and*
        answered, so a pipelining client loses nothing it was acked.

        Either way, threads still alive after their ``timeout`` join are
        counted in ``stats.leaked_threads`` (and logged) instead of being
        silently abandoned; tests assert the counter stays zero.
        """
        if self._closing.is_set():
            return
        self._closing.set()
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a
            # thread already blocked in accept() on Linux — the silent
            # leak the leaked_threads counter exists to catch.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
        threads = [thread for thread in
                   (self._accept_thread, *(c.thread for c in connections))
                   if thread is not None]
        if drain:
            for conn in connections:
                try:
                    conn.sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            for thread in threads:
                thread.join(timeout=timeout)
        # Hard phase: whatever is still up (everything, when drain=False;
        # only stragglers past the drain timeout otherwise) gets dropped.
        for conn in connections:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=timeout)
        leaked = sum(thread.is_alive() for thread in threads)
        if leaked:
            self.stats.leaked_threads += leaked
            logger.warning("server close leaked %d threads "
                           "(still alive after %.1fs joins)", leaked, timeout)

    def __enter__(self) -> "Server":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def active_connections(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    # -- accept / serve ----------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock, self.max_frame_bytes)
            with self._conn_lock:
                if self._closing.is_set():
                    sock.close()
                    return
                self._connections.add(conn)
                self.stats.connections_accepted += 1
            conn.thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"server:conn:{conn.peer}", daemon=True)
            conn.thread.start()

    def _next_frame(self, conn: _Connection) -> bytes | None:
        """Blocking read of the next frame, cooperative under a step hook.

        With the deterministic scheduler installed, a blocking ``recv``
        would hold the run token while waiting and freeze every scheduled
        thread; instead the wait is a guarded park until the socket is
        readable, same pattern as ``DB._await_locked``.
        """
        frames, hook = conn.frames, self._step_hook
        if hook is None:
            return frames.next()
        park_until = getattr(hook, "park_until", None)
        while True:
            payload = frames.next(wait=False)
            if payload is not None:
                return payload
            if frames.eof:
                return frames.next()  # None, or the torn frame's error
            if park_until is not None:
                park_until("server:recv", lambda: _readable(conn.sock))
            else:
                hook("server:recv")

    def _serve(self, conn: _Connection) -> None:
        """One connection: frame in, decode, execute, response out."""
        frames = conn.frames
        ahead = None  # the one request decoded past the end of a write run
        rejected = False
        try:
            while True:
                request, ahead = ahead, None
                if request is None:
                    payload = self._next_frame(conn)
                    if payload is None:
                        return  # clean EOF between frames
                    request = self._decode_request(payload)
                if isinstance(request, Exception):
                    # Framing stayed in sync, so a bad payload costs one
                    # error response, not the connection.
                    self._respond_error(conn, 0, request)
                elif request[1] in _WRITES and self._can_coalesce():
                    run = [request]
                    try:
                        while len(run) < MAX_COALESCED_OPS:
                            payload = frames.next(wait=False)
                            if payload is None:
                                break
                            follow = self._decode_request(payload)
                            if isinstance(follow, Exception) \
                                    or follow[1] not in _WRITES:
                                ahead = follow
                                break
                            run.append(follow)
                    except FrameTooLargeError:
                        pass  # after the run's answers: next read re-raises
                    self._execute_write_run(conn, run)
                else:
                    self._execute(conn, *request)
        except FrameTooLargeError as exc:
            # The oversized payload was never read, so the stream cannot
            # be re-synchronized: report, then drop the connection.
            self.stats.frames_rejected += 1
            rejected = True
            try:
                self._respond_error(conn, 0, exc)
            except OSError:
                pass
        except (TornFrameError, OSError):
            pass  # peer died mid-frame, reset, or server close
        finally:
            # Counted here, not where the read failed: a peer that dies
            # mid-frame may surface first as a failed response write.
            if frames.pending and not rejected:
                self.stats.torn_frames += 1
            try:
                conn.sock.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.discard(conn)

    # -- request handling -------------------------------------------------------

    def _decode_request(self, payload: bytes
                        ) -> tuple[int, str, list] | Exception:
        """Parse one request; a malformed one comes back as its error."""
        self.stats.requests += 1
        try:
            request = decode_value(payload)
            if not isinstance(request, list) or len(request) < 2:
                raise InvalidArgumentError(
                    "request must be [id, op, *args]")
            request_id, op = request[0], request[1]
            if not isinstance(request_id, int) or not isinstance(op, str):
                raise InvalidArgumentError(
                    "request id must be int, op must be str")
            return request_id, op, request[2:]
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            return exc

    def _respond(self, conn: _Connection, request_id: int, status: int,
                 payload: Any) -> None:
        try:
            frame = encode_frame(encode_value([request_id, status, payload]))
        except ProtocolError as exc:  # a result the wire cannot carry
            self._respond_error(conn, request_id, exc)
            return
        self.stats.responses += 1
        if status == STATUS_ERROR:
            self.stats.errors += 1
        conn.sock.sendall(frame)

    def _respond_error(self, conn: _Connection, request_id: int,
                       exc: Exception) -> None:
        self._respond(conn, request_id, STATUS_ERROR,
                      [type(exc).__name__, str(exc)])

    def _execute(self, conn: _Connection, request_id: int, op: str,
                 args: list) -> None:
        try:
            result = self._dispatch(op, args)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            self._respond_error(conn, request_id, exc)
            return
        self._respond(conn, request_id, STATUS_OK, result)

    def _can_coalesce(self) -> bool:
        # A raw DB under the threaded scheduler only: the run becomes one
        # WriteBatch (one group-commit entry).  The others go op by op.
        return self._indexed is None and self._lock is None

    def _execute_write_run(self, conn: _Connection,
                           members: list[tuple[int, str, list]]) -> None:
        """Commit a run of pipelined writes as one atomic WriteBatch.

        All members succeed (each acked with its own sequence number) or
        all fail with the same error — exactly the engine's group-commit
        contract, surfaced per request.
        """
        if len(members) == 1:
            request_id, op, args = members[0]
            self._execute(conn, request_id, op, args)
            return
        batch = WriteBatch()
        try:
            for _request_id, op, args in members:
                key, value = self._write_args(op, args)
                if op == "put":
                    batch.put(key, value)
                else:
                    batch.delete(key)
        except Exception:  # noqa: BLE001 - malformed member
            # Fall back to op-by-op so the well-formed members still apply
            # and only the malformed one is refused.
            for request_id, op, args in members:
                self._execute(conn, request_id, op, args)
            return
        try:
            last_seq = self.db.write(batch)
        except Exception as exc:  # noqa: BLE001 - shared by the whole run
            for request_id, _op, _args in members:
                self._respond_error(conn, request_id, exc)
            return
        self.stats.coalesced_groups += 1
        self.stats.coalesced_ops += len(members)
        if len(members) > self.stats.max_coalesced_ops:
            self.stats.max_coalesced_ops = len(members)
        first_seq = last_seq - len(members) + 1
        for offset, (request_id, _op, _args) in enumerate(members):
            self._respond(conn, request_id, STATUS_OK, first_seq + offset)

    @staticmethod
    def _write_args(op: str, args: list) -> tuple[bytes, bytes]:
        if op == "put":
            if len(args) != 2:
                raise InvalidArgumentError("put needs [key, value]")
            key, value = args
            if not isinstance(value, bytes):
                raise InvalidArgumentError("put value must be bytes")
            return key_to_bytes(key), value
        if len(args) != 1:
            raise InvalidArgumentError("delete needs [key]")
        return key_to_bytes(args[0]), b""

    # -- op dispatch -------------------------------------------------------------

    def _dispatch(self, op: str, args: list) -> Any:
        if op == "apply":
            # Handled outside the engine lock: _op_apply re-enters
            # _dispatch for the inner op (the lock is not reentrant).
            return self._op_apply(args)
        if self._lock is not None:
            with self._lock:
                return self._dispatch_unlocked(op, args)
        return self._dispatch_unlocked(op, args)

    def _op_apply(self, args: list) -> Any:
        """Idempotent write envelope: ``[client_id, client_seq, op, args]``.

        The first application stores its result in the client's dedup
        window; a retry of the same ``(client_id, client_seq)`` replays
        that result — same sequence number, nothing re-applied.  Errors
        are not cached: nothing was applied, so retrying is safe, and a
        deterministic error simply errors again.  A retry older than the
        window's memory is refused, not applied a second time.
        """
        if len(args) != 4 or not isinstance(args[0], str) \
                or not isinstance(args[1], int) \
                or not isinstance(args[2], str) \
                or not isinstance(args[3], list):
            raise InvalidArgumentError(
                "apply needs [client_id, client_seq, op, args]")
        client_id, client_seq, op, inner_args = args
        if op not in _WRITES:
            raise InvalidArgumentError(
                f"apply wraps writes only, not {op!r} "
                "(reads are idempotent without it)")
        with self._dedup_lock:
            window = self._dedup.get(client_id)
            if window is None:
                window = self._dedup[client_id] = _DedupWindow()
                while len(self._dedup) > DEDUP_CLIENTS:
                    self._dedup.popitem(last=False)  # least recently active
            else:
                self._dedup.move_to_end(client_id)
        with window.lock:
            if client_seq in window.results:
                self.stats.dedup_hits += 1
                return window.results[client_seq]
            if client_seq <= window.forgotten:
                raise InvalidArgumentError(
                    f"write {client_seq} of client {client_id} is older than "
                    f"its dedup window: it may have been applied already")
            result = self._dispatch(op, inner_args)
            self.stats.dedup_applied += 1
            window.results[client_seq] = result
            while len(window.results) > DEDUP_WINDOW:
                evicted, _result = window.results.popitem(last=False)
                window.forgotten = max(window.forgotten, evicted)
            return result

    def _dispatch_unlocked(self, op: str, args: list) -> Any:
        if op == "put":
            return self._op_put(args)
        if op == "get":
            return self._op_get(args)
        if op == "delete":
            return self._op_delete(args)
        if op == "scan":
            return self._op_scan(args)
        if op == "lookup":
            return self._op_lookup(args)
        if op == "rangelookup":
            return self._op_range_lookup(args)
        if op == "stats":
            return self._op_stats()
        raise InvalidArgumentError(f"unknown op {op!r}")

    def _op_put(self, args: list) -> int:
        if self._indexed is not None:
            if len(args) != 2 or not isinstance(args[1], dict):
                raise InvalidArgumentError(
                    "put needs [key, document] (document mode)")
            return self._indexed.put(args[0], args[1])
        key, value = self._write_args("put", args)
        return self.db.put(key, value)

    def _op_get(self, args: list) -> Any:
        if len(args) != 1:
            raise InvalidArgumentError("get needs [key]")
        if self._indexed is not None:
            return self._indexed.get(args[0])
        return self.db.get(key_to_bytes(args[0]))

    def _op_delete(self, args: list) -> int:
        if len(args) != 1:
            raise InvalidArgumentError("delete needs [key]")
        if self._indexed is not None:
            return self._indexed.delete(args[0])
        key, _ = self._write_args("delete", args)
        return self.db.delete(key)

    def _op_scan(self, args: list) -> list:
        lo = args[0] if len(args) > 0 else None
        hi = args[1] if len(args) > 1 else None
        limit = args[2] if len(args) > 2 else None
        if limit is None:
            limit = DEFAULT_SCAN_LIMIT
        elif type(limit) is not int or limit < 0:  # bool is not a limit
            raise InvalidArgumentError(
                f"scan limit must be a non-negative int, got {limit!r}")
        if self._indexed is not None:
            rows = self._indexed.scan(lo, hi)
        else:
            rows = self.db.scan(key_to_bytes(lo) if lo is not None else None,
                                key_to_bytes(hi) if hi is not None else None)
        return [[key, value] for key, value in islice(rows, limit)]

    def _op_lookup(self, args: list) -> list:
        if self._indexed is None:
            raise InvalidArgumentError(
                "LOOKUP needs a server started with secondary indexes "
                "(repro serve --indexes ...)")
        if len(args) < 2:
            raise InvalidArgumentError("lookup needs [attribute, value, k?]")
        attribute, value = args[0], args[1]
        k = args[2] if len(args) > 2 else None
        results = self._indexed.lookup(attribute, value, k)
        return [[r.key, r.document, r.seq] for r in results]

    def _op_range_lookup(self, args: list) -> list:
        if self._indexed is None:
            raise InvalidArgumentError(
                "RANGELOOKUP needs a server started with secondary indexes "
                "(repro serve --indexes ...)")
        if len(args) < 3:
            raise InvalidArgumentError(
                "rangelookup needs [attribute, low, high, k?]")
        attribute, low, high = args[0], args[1], args[2]
        k = args[3] if len(args) > 3 else None
        results = self._indexed.range_lookup(attribute, low, high, k)
        return [[r.key, r.document, r.seq] for r in results]

    def _op_stats(self) -> dict:
        stats = self.db.stats() if self._primary is None \
            else self._primary.stats()
        return {
            "db": stats,
            "server": self.stats.as_dict(),
            "active_connections": self.active_connections(),
        }


# Typing helper for CLI wiring; avoids an import cycle with tools.py.
ServeFactory = Callable[[], Server]
