"""Client for the serving layer: pooled connections, pipelining, retries.

One :class:`Client` owns a pool of sockets.  Single-shot calls
(:meth:`Client.put`, :meth:`Client.get`, ...) check a connection out,
run one request/response round trip, and return it.  The pool is lazy
and LIFO — a single-threaded caller reuses one warm socket; ``pool_size``
threads can call concurrently without sharing a connection.

Pipelining batches round trips::

    with client.pipeline() as p:
        for key, value in items:
            p.put(key, value)
    seqs = p.results          # one result per queued op, in order

The pipeline sends every queued request in one write and then reads the
responses back in order (the server answers FIFO per connection).  On
the server side a pipelined run of writes is coalesced into a single
WriteBatch — one group-commit entry, one fsync — which is where the
serving layer's throughput comes from.

Failures inside a pipeline surface as :class:`RemoteError` after *all*
responses are drained, so the connection stays usable.

Fault tolerance (opt-in): construct with ``retry=RetryPolicy(...)`` and
every transient transport failure — refused connect, reset, torn frame,
per-op timeout — is retried on a fresh connection with exponential
backoff + jitter, up to the policy's deadline.  Reads are naturally
idempotent and retried as-is; **writes** are wrapped in the ``apply``
envelope (per-client UUID + monotonically increasing write sequence,
assigned once per logical write, before the first attempt) so the
server's dedup window recognizes a retry of an acked-but-lost write and
replays the original result instead of applying it twice — the retried
PUT returns the *same* sequence number the lost ack carried.  Without
``retry`` the client behaves exactly as before: the first transport
fault surfaces to the caller.

A closed client raises :class:`ClientClosedError` from every call —
including callers already blocked waiting for a pooled connection, which
:meth:`Client.close` wakes instead of leaving parked forever.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Iterator, TypeVar

from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    FrameTooLargeError,
    ProtocolError,
    STATUS_OK,
    decode_value,
    encode_frame,
    encode_value,
)

__all__ = ["Client", "Pipeline", "RemoteError", "RetryPolicy",
           "ClientClosedError"]

_T = TypeVar("_T")


class RemoteError(Exception):
    """The server answered a request with an error response.

    ``remote_type`` carries the exception class name raised server-side
    (e.g. ``"InvalidArgumentError"``).
    """

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message


class ClientClosedError(ProtocolError):
    """The client was closed; the call (even one already waiting for a
    pooled connection) cannot proceed.  Never retried."""


@dataclass
class RetryPolicy:
    """How a client survives transient transport faults.

    Attempt *n* (0-based) backs off ``base_delay * 2**n`` capped at
    ``max_delay``, shrunk by up to ``jitter`` (a 0..1 fraction) of itself
    so a thundering herd decorrelates.  Retrying stops — re-raising the
    last transport error — once ``deadline`` seconds have elapsed since
    the call started.  ``sleep``/``clock``/``rng`` are injectable so
    drills can run the policy deterministically and without wall-clock
    waits.
    """

    deadline: float = 10.0
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic
    rng: random.Random = field(default_factory=random.Random)

    def backoff(self, attempt: int) -> float:
        """The delay before retry number ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * self.rng.random()
        return delay

    def run(self, attempt: Callable[[], _T]) -> _T:
        """Call ``attempt`` until it returns, backing off after each
        transient transport failure; past the deadline the last one
        re-raises."""
        deadline = self.clock() + self.deadline
        retries = 0
        while True:
            try:
                return attempt()
            except ClientClosedError:
                raise
            except _TRANSIENT:
                now = self.clock()
                if now >= deadline:
                    raise
                delay = min(self.backoff(retries), deadline - now)
                if delay > 0:
                    self.sleep(delay)
                retries += 1


#: Pool sentinel: close() enqueues it to wake blocked waiters; every
#: waiter that receives it puts it back for the next one and raises.
_POOL_CLOSED: Any = object()

#: Transport failures a RetryPolicy is allowed to absorb.  RemoteError is
#: deliberately absent: the server *answered* — retrying cannot help.
_TRANSIENT = (OSError, ProtocolError)


class _Conn:
    """One pooled socket and its response frames."""

    __slots__ = ("sock", "frames", "broken")

    def __init__(self, sock: Any, max_frame_bytes: int) -> None:
        self.sock = sock
        self.frames = FrameReader(sock, max_frame_bytes)
        self.broken = False


class Client:
    """Pooled client for one server address.

    Thread-safe: up to ``pool_size`` threads run requests in parallel,
    each on its own connection; further threads wait for a free one.

    ``timeout`` bounds connection establishment; ``op_timeout`` (when
    set) bounds each request/response round trip on an established
    connection — a hung server surfaces as ``socket.timeout`` (an
    ``OSError``, so a retrying client treats it as transient).
    ``connector`` replaces ``socket.create_connection`` — the hook the
    network fault drills use to splice in a
    :class:`~repro.server.netfaults.FaultInjectingTransport`.
    """

    def __init__(self, host: str, port: int, *, pool_size: int = 4,
                 timeout: float | None = 30.0,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 retry: RetryPolicy | None = None,
                 op_timeout: float | None = None,
                 connector: Callable[..., Any] | None = None) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self._address = (host, port)
        self._timeout = timeout
        self._op_timeout = op_timeout
        self._max_frame_bytes = max_frame_bytes
        self._retry = retry
        self._connector = connector or socket.create_connection
        self._pool: queue.LifoQueue = queue.LifoQueue()
        self._pool_size = pool_size
        self._created = 0
        self._lock = threading.Lock()
        self._closed = False
        # Idempotent-write identity: unique per client instance, with a
        # per-write sequence assigned once per logical write (stable
        # across retries) — the server's dedup key.
        self._client_id = uuid.uuid4().hex
        self._write_seq = 0
        self._request_ids = count(1)

    def _next_write_seq(self) -> int:
        with self._lock:
            self._write_seq += 1
            return self._write_seq

    # -- pool -----------------------------------------------------------------

    def _connect(self) -> _Conn:
        sock = self._connector(self._address, timeout=self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        if self._op_timeout is not None:
            sock.settimeout(self._op_timeout)
        return _Conn(sock, self._max_frame_bytes)

    def _checkout(self) -> _Conn:
        if self._closed:
            raise ClientClosedError("client is closed")
        try:
            conn = self._pool.get_nowait()
        except queue.Empty:
            pass
        else:
            if conn is _POOL_CLOSED:
                self._pool.put(_POOL_CLOSED)
                raise ClientClosedError("client is closed")
            return conn
        with self._lock:
            if self._created < self._pool_size:
                self._created += 1
                try:
                    return self._connect()
                except BaseException:
                    self._created -= 1
                    raise
        conn = self._pool.get()
        if conn is _POOL_CLOSED:
            self._pool.put(_POOL_CLOSED)
            raise ClientClosedError("client is closed")
        return conn

    def _release(self, conn: _Conn) -> None:
        if conn.broken or self._closed:
            self._discard(conn)
        else:
            self._pool.put(conn)

    def _discard(self, conn: _Conn) -> None:
        try:
            conn.sock.close()
        except OSError:
            pass
        with self._lock:
            self._created -= 1

    def close(self) -> None:
        """Close every pooled connection and fail pending/future calls.

        Threads blocked in checkout are woken with
        :class:`ClientClosedError` (the sentinel re-propagates through
        the pool), instead of hanging on an empty pool forever.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                conn = self._pool.get_nowait()
            except queue.Empty:
                break
            if conn is not _POOL_CLOSED:
                self._discard(conn)
        self._pool.put(_POOL_CLOSED)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request plumbing -----------------------------------------------------

    def _request(self, op: str, args: list) -> tuple[int, bytes]:
        """A fresh request id and the frame every attempt sends: a value
        the codec refuses, or a frame over ``max_frame_bytes``, raises
        here, never inside a retry loop."""
        request_id = next(self._request_ids)
        payload = encode_value([request_id, op, *args])
        if len(payload) > self._max_frame_bytes:
            raise FrameTooLargeError(
                f"request of {len(payload)} bytes exceeds limit "
                f"{self._max_frame_bytes}")
        return request_id, encode_frame(payload)

    def _call_once(self, request_id: int, frame: bytes) -> Any:
        conn = self._checkout()
        try:
            conn.sock.sendall(frame)
            return _read_response(conn, request_id)
        except (OSError, ProtocolError):
            conn.broken = True
            raise
        finally:
            self._release(conn)

    def _call(self, op: str, args: list) -> Any:
        request_id, frame = self._request(op, args)
        if self._retry is None:
            return self._call_once(request_id, frame)
        return self._retry.run(lambda: self._call_once(request_id, frame))

    def _call_write(self, op: str, args: list) -> Any:
        if self._retry is not None:
            # Envelope once, outside the retry loop: every attempt carries
            # the same (client_id, seq), which is what makes it deduplicable.
            op, args = "apply", [self._client_id, self._next_write_seq(),
                                 op, args]
        return self._call(op, args)

    # -- operations -----------------------------------------------------------

    def put(self, key: Any, value: Any) -> int:
        """Write one key; returns the committed sequence number."""
        return self._call_write("put", [key, value])

    def get(self, key: Any) -> Any:
        """Read one key; ``None`` if absent."""
        return self._call("get", [key])

    def delete(self, key: Any) -> int:
        """Delete one key; returns the tombstone's sequence number."""
        return self._call_write("delete", [key])

    def scan(self, low: Any = None, high: Any = None,
             limit: int | None = None) -> list:
        """One page of ``[key, value]`` pairs in ``[low, high)``."""
        return self._call("scan", [low, high, limit])

    def lookup(self, attribute: str, value: Any,
               k: int | None = None) -> list:
        """Secondary-index lookup: ``[key, document, seq]`` triples."""
        return self._call("lookup", [attribute, value, k])

    def range_lookup(self, attribute: str, low: Any, high: Any,
                     k: int | None = None) -> list:
        """Secondary-index range lookup: ``[key, document, seq]`` triples."""
        return self._call("rangelookup", [attribute, low, high, k])

    def stats(self) -> dict:
        """Server + engine stats (see ``DB.stats`` and ``ServerStats``)."""
        return self._call("stats", [])

    def pipeline(self) -> "Pipeline":
        """Batch requests on one dedicated connection (context manager)."""
        return Pipeline(self)


class Pipeline:
    """Buffered requests flushed as one burst on one connection.

    Not thread-safe; one pipeline belongs to one caller.  Exiting the
    ``with`` block flushes; :attr:`results` then holds one entry per
    queued op, in order.

    On a retrying client, a flush that hits a transport fault re-sends
    the *whole* burst on a fresh connection: queued writes were wrapped
    in dedup envelopes (sequence assigned at queue time, stable across
    attempts) so re-applying is impossible, and queued reads simply
    re-execute.  A torn burst therefore converges to exactly-once for
    every write, whatever prefix of it the server saw.
    """

    def __init__(self, client: Client) -> None:
        self._client = client
        self._conn: _Conn | None = None
        self._queued: list[tuple[int, bytes]] = []
        self.results: list[Any] = []

    # -- queuing --------------------------------------------------------------

    def _queue_op(self, op: str, args: list) -> int:
        """Encode and queue one request (a value the codec refuses raises
        here); returns its index into :attr:`results`."""
        client = self._client
        if client._retry is not None and op in ("put", "delete"):
            args = [client._client_id, client._next_write_seq(), op, args]
            op = "apply"
        self._queued.append(client._request(op, args))
        return len(self.results) + len(self._queued) - 1

    def put(self, key: Any, value: Any) -> int:
        return self._queue_op("put", [key, value])

    def get(self, key: Any) -> int:
        return self._queue_op("get", [key])

    def delete(self, key: Any) -> int:
        return self._queue_op("delete", [key])

    def lookup(self, attribute: str, value: Any,
               k: int | None = None) -> int:
        return self._queue_op("lookup", [attribute, value, k])

    def __len__(self) -> int:
        return len(self._queued)

    # -- flushing -------------------------------------------------------------

    def _attempt(self, queued: list[tuple[int, bytes]]
                 ) -> tuple[list[Any], RemoteError | None]:
        """One send-all/read-all pass; drops the connection on failure."""
        if self._conn is None:
            self._conn = self._client._checkout()
        conn = self._conn
        try:
            conn.sock.sendall(b"".join(frame for _id, frame in queued))
            batch: list[Any] = []
            first_error: RemoteError | None = None
            for request_id, _frame in queued:
                try:
                    batch.append(_read_response(conn, request_id))
                except RemoteError as exc:
                    batch.append(exc)
                    if first_error is None:
                        first_error = exc
            return batch, first_error
        except (OSError, ProtocolError):
            conn.broken = True
            self._conn = None
            self._client._release(conn)
            raise

    def flush(self, raise_errors: bool = True) -> list:
        """Send everything queued, read every response, return results.

        All responses are drained before any error is raised, so the
        connection stays in sync and reusable.  With
        ``raise_errors=False`` failed ops yield :class:`RemoteError`
        *instances* in the result list instead of raising.
        """
        if not self._queued:
            return []
        queued, self._queued = self._queued, []
        policy = self._client._retry
        if policy is None:
            batch, first_error = self._attempt(queued)
        else:
            batch, first_error = policy.run(lambda: self._attempt(queued))
        self.results.extend(batch)
        if first_error is not None and raise_errors:
            raise first_error
        return batch

    def close(self) -> None:
        """Return the dedicated connection to the pool (unflushed ops drop)."""
        self._queued = []
        if self._conn is not None:
            self._client._release(self._conn)
            self._conn = None

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                self.flush()
        finally:
            self.close()

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)


def _read_response(conn: _Conn, request_id: int) -> Any:
    payload = conn.frames.next()
    if payload is None:
        raise ProtocolError("server closed the connection mid-request")
    response = decode_value(payload)
    if not isinstance(response, list) or len(response) != 3:
        raise ProtocolError("malformed response from server")
    echoed_id, status, body = response
    if status == STATUS_OK:
        if echoed_id != request_id:
            raise ProtocolError(
                f"response id {echoed_id} != request id {request_id}")
        return body
    remote_type, message = (body if isinstance(body, list)
                            and len(body) == 2 else ("ServerError", str(body)))
    raise RemoteError(str(remote_type), str(message))
