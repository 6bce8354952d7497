"""Network fault injection: scheduled disconnects, torn frames, delays.

The socket adapter of the one fault schedule.  The storage layer earns its
crash-safety claims from :class:`~repro.lsm.faults.FaultInjectingVFS`, an
adapter of :class:`~repro.lsm.faults.FaultSchedule`; this module executes
the same schedule on the wire.  A :class:`FaultInjectingTransport` wraps
each client socket and reports *counted protocol events* — ``connect``
attempts, ``send`` calls (a pipeline burst is one call), ``response``
frame reads — so a drill can disconnect the client at every response
boundary in turn and prove the retry machinery keeps each acked write
applied exactly once.  Counters are global across every socket the
schedule touches, so they keep advancing across reconnects.

The faults each event can carry:

* ``connect`` / ``"refuse"`` — the attempt raises
  ``ConnectionRefusedError`` (server down / backlog full);
  ``FaultSchedule([("connect", 1, "refuse", 3)])`` refuses the first three.
* ``send`` / ``"break"`` — the send fails before any byte leaves: the
  request never reached the server (safe to retry blindly).
* ``send`` / ``"torn"`` — half the bytes leave, then the connection dies:
  the server reads a torn frame and discards it whole, so a torn
  *request* is never half-applied (DESIGN.md §10); any complete frames in
  front of the tear *are* applied — exactly the case idempotent retry
  exists for.
* ``response`` / ``"drop"`` — that response frame is read whole, then
  lost with the connection: the server applied the write and sent the
  ack, the client never saw it.  The acked-but-lost case; a blind retry
  would double-apply without the server's dedup window.
* ``response`` / ``"torn"`` — the response frame arrives cut in half
  (``TornFrameError`` on the client), same recovery obligation.

The schedule's ``delay`` hook sees every event (``"net:send:3"``), and
:meth:`FaultSchedule.random(seed, sends=..., responses=...)
<repro.lsm.faults.FaultSchedule.random>` derives a randomized but
reproducible schedule from a seed — the chaos job prints the seed on
failure so any red run replays bit-for-bit.
"""

from __future__ import annotations

import socket
import struct
from typing import Any

from repro.lsm.faults import FaultSchedule

__all__ = [
    "FaultSchedule",
    "FaultInjectingTransport",
    "FaultyConnector",
]

_LENGTH = struct.Struct(">I")


class FaultInjectingTransport:
    """One faulty socket: a real socket behind a :class:`FaultSchedule`.

    Satisfies the slice of the socket API the client stack uses
    (``sendall``/``recv``/``close``/timeouts/options).  The receive side
    reassembles whole response frames internally — that is what lets the
    schedule target exact response boundaries — and hands bytes back in
    whatever chunk sizes the caller asks for.
    """

    def __init__(self, sock: socket.socket, schedule: FaultSchedule) -> None:
        self._sock = sock
        self._schedule = schedule
        self._buffer = b""      # unconsumed bytes of the current frame
        self._forced_eof = False

    # -- fault execution ---------------------------------------------------

    def _die(self) -> None:
        """Kill the connection the way a reset does."""
        self._forced_eof = True
        try:
            self._sock.close()
        except OSError:
            pass

    def sendall(self, data: bytes) -> None:
        fault = self._schedule.hit("send")
        if fault == "break":
            self._die()
            raise ConnectionResetError("injected disconnect before send")
        if fault == "torn":
            try:
                self._sock.sendall(data[:max(1, len(data) // 2)])
            except OSError:
                pass
            self._die()
            raise ConnectionResetError("injected disconnect mid-send")
        self._sock.sendall(data)

    def _read_exact(self, length: int) -> bytes | None:
        chunks = []
        received = 0
        while received < length:
            chunk = self._sock.recv(min(length - received, 1 << 16))
            if not chunk:
                return None  # EOF (clean or torn — caller decides)
            chunks.append(chunk)
            received += len(chunk)
        return b"".join(chunks)

    def recv(self, size: int) -> bytes:
        if size <= 0:
            return b""
        if not self._buffer:
            if self._forced_eof:
                return b""
            # Frame boundary: pull one whole response frame, consulting
            # the schedule first.
            fault = self._schedule.hit("response")
            header = self._read_exact(_LENGTH.size)
            if header is not None:
                (length,) = _LENGTH.unpack(header)
                payload = self._read_exact(length)
                frame = header + (payload if payload is not None else b"")
            if fault == "drop":
                # Only now: the frame in hand proves the server answered.
                self._die()
                raise ConnectionResetError(
                    "injected disconnect after the response was sent")
            if header is None:
                return b""  # true EOF from the server
            if fault == "torn":
                # Deliver the header and half the payload, then EOF:
                # the client's frame reader sees a torn response.
                self._buffer = frame[:_LENGTH.size + max(0, length // 2)]
                self._die()
            else:
                self._buffer = frame
        served, self._buffer = self._buffer[:size], self._buffer[size:]
        return served

    # -- socket API pass-through -------------------------------------------

    def settimeout(self, timeout: float | None) -> None:
        try:
            self._sock.settimeout(timeout)
        except OSError:
            pass

    def gettimeout(self) -> float | None:
        return self._sock.gettimeout()

    def setsockopt(self, *args: Any) -> None:
        self._sock.setsockopt(*args)

    def getpeername(self) -> Any:
        return self._sock.getpeername()

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def fileno(self) -> int:
        return self._sock.fileno()


class FaultyConnector:
    """``Client(connector=...)`` hook: dial through the fault schedule.

    Callable with the same shape as ``socket.create_connection`` (the
    client's default connector); refusals and per-socket faults all come
    from the shared :class:`FaultSchedule`.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule

    def __call__(self, address: tuple[str, int],
                 timeout: float | None = None) -> FaultInjectingTransport:
        if self.schedule.hit("connect") == "refuse":
            raise ConnectionRefusedError(
                "injected connection refusal (attempt "
                f"{self.schedule.counts['connect']})")
        sock = socket.create_connection(address, timeout=timeout)
        return FaultInjectingTransport(sock, self.schedule)
