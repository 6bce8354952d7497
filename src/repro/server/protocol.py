"""Wire format of the serving layer: frames and a small value codec.

Framing
-------

Every message travels as one *frame*::

    +----------------+---------------------+
    | length (4B BE) | payload (length B)  |
    +----------------+---------------------+

The length covers only the payload.  A frame whose declared length
exceeds the receiver's ``max_frame_bytes`` is rejected *before* any
payload is read (the declared length alone condemns it), so a hostile or
confused peer cannot make the server buffer gigabytes.  A connection
that closes mid-frame leaves a *torn* frame: the truncated bytes are
discarded whole — a torn request is never half-applied, a torn response
is never half-delivered.

Value codec
-----------

Payloads are encoded with a self-describing tagged binary codec (the
shape of msgpack, hand-rolled so the repo stays dependency-free).  It
covers exactly the types the database surface needs: ``None``, bools,
64-bit signed ints (zigzag varint), floats, ``bytes``, ``str``,
lists and dicts.  Documents (JSON objects), primary keys (bytes/str),
stats dicts and lookup results all round-trip losslessly.

Requests and responses are lists::

    request  = [request_id, op, *args]
    response = [request_id, status, payload]   # status 0 = ok, 1 = error

``request_id`` is chosen by the client and echoed back verbatim;
pipelined requests on one connection are answered strictly in order, so
the id is a sanity check rather than a routing key.
"""

from __future__ import annotations

import socket
import struct
from typing import Any

from repro.lsm.keys import decode_varint, encode_varint

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ProtocolError",
    "FrameTooLargeError",
    "TornFrameError",
    "encode_value",
    "decode_value",
    "encode_frame",
    "FrameReader",
    "RECV_BYTES",
    "OPS",
    "STATUS_OK",
    "STATUS_ERROR",
]

#: Default ceiling on one frame's payload.  Large enough for a fat SCAN
#: page, small enough that a bad length prefix cannot balloon memory.
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_FLOAT = struct.Struct(">d")

STATUS_OK = 0
STATUS_ERROR = 1

#: Operations the server understands (Table 1 plus engine surface).
#: ``apply`` is the idempotent write envelope the retrying client uses:
#: ``[request_id, "apply", client_id, client_seq, op, args]`` — the
#: server's dedup window keys on ``(client_id, client_seq)`` and replays
#: the original result (same sequence number) instead of re-applying.
OPS = ("put", "get", "delete", "lookup", "rangelookup", "scan", "stats",
       "apply")


class ProtocolError(Exception):
    """The peer sent bytes that do not parse as the protocol."""


class FrameTooLargeError(ProtocolError):
    """A frame's declared length exceeds the receiver's limit."""


class TornFrameError(ProtocolError):
    """The connection closed in the middle of a frame."""


# -- value codec -------------------------------------------------------------

_NIL = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT = 0x03
_FLOAT_TAG = 0x04
_BYTES = 0x05
_STR = 0x06
_LIST = 0x07
_DICT = 0x08


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_NIL)
    elif value is True:
        out.append(_TRUE)
    elif value is False:
        out.append(_FALSE)
    elif isinstance(value, int):
        # Zigzag maps signed ints onto the engine's non-negative varints.
        # The varint decoder caps at 10 bytes, so bound the magnitude here
        # and fail on the sender instead of poisoning the peer's stream.
        if not -(2**63) <= value < 2**63:
            raise ProtocolError(
                f"int {value} outside the codec's 64-bit range")
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        out.append(_INT)
        out += encode_varint(zigzag)
    elif isinstance(value, float):
        out.append(_FLOAT_TAG)
        out += _FLOAT.pack(value)
    elif isinstance(value, bytes):
        out.append(_BYTES)
        out += encode_varint(len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_STR)
        out += encode_varint(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_LIST)
        out += encode_varint(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_DICT)
        out += encode_varint(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise ProtocolError(
            f"cannot encode {type(value).__name__} on the wire")


def encode_value(value: Any) -> bytes:
    """Serialize one value (the whole payload of a frame)."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _decode_from(data: bytes, pos: int) -> tuple[Any, int]:
    try:
        tag = data[pos]
    except IndexError:
        raise ProtocolError("truncated payload") from None
    pos += 1
    if tag == _NIL:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    try:
        if tag == _INT:
            zigzag, pos = decode_varint(data, pos)
            return (zigzag >> 1) if zigzag % 2 == 0 \
                else -((zigzag + 1) >> 1), pos
        if tag == _FLOAT_TAG:
            return _FLOAT.unpack_from(data, pos)[0], pos + 8
        if tag == _BYTES:
            length, pos = decode_varint(data, pos)
            end = pos + length
            if end > len(data):
                raise ProtocolError("truncated bytes value")
            return data[pos:end], end
        if tag == _STR:
            length, pos = decode_varint(data, pos)
            end = pos + length
            if end > len(data):
                raise ProtocolError("truncated str value")
            return data[pos:end].decode("utf-8"), end
        if tag == _LIST:
            count, pos = decode_varint(data, pos)
            items = []
            for _ in range(count):
                item, pos = _decode_from(data, pos)
                items.append(item)
            return items, pos
        if tag == _DICT:
            count, pos = decode_varint(data, pos)
            mapping = {}
            for _ in range(count):
                key, pos = _decode_from(data, pos)
                item, pos = _decode_from(data, pos)
                mapping[key] = item
            return mapping, pos
    except (ValueError, struct.error) as exc:
        raise ProtocolError(f"malformed payload: {exc}") from None
    raise ProtocolError(f"unknown type tag 0x{tag:02x}")


def decode_value(data: bytes) -> Any:
    """Parse one payload back into a value; trailing bytes are an error."""
    value, pos = _decode_from(data, 0)
    if pos != len(data):
        raise ProtocolError(
            f"{len(data) - pos} trailing bytes after payload")
    return value


# -- framing -----------------------------------------------------------------

def encode_frame(payload: bytes) -> bytes:
    """One frame's full byte string (header + payload)."""
    return _LENGTH.pack(len(payload)) + payload


#: One ``recv``: what a :class:`FrameReader` asks the kernel for at a time.
RECV_BYTES = 1 << 16


class FrameReader:
    """The frames of one socket's byte stream, in order.

    Bytes are received ``RECV_BYTES`` at a time into one buffer and
    frames are sliced out of it, so a burst of pipelined frames costs one
    system call, and more is received only when the buffer holds no whole
    frame: it never grows past one frame plus one receive.

    :meth:`next` returns the next payload, or ``None`` at a clean end of
    stream (the peer closed between frames — the normal way a connection
    ends).  It raises :class:`TornFrameError` if the stream ends inside a
    frame (the fragment stays in :attr:`pending` and is never returned)
    and :class:`FrameTooLargeError` as soon as a header declares a
    payload over ``max_frame_bytes`` — from the header alone, without
    waiting for or buffering that payload; the stream cannot be
    re-synchronized after it, so every later call raises it again.

    ``next(wait=False)`` never blocks: it returns a frame only if the
    buffer plus what the kernel already holds completes one, else
    ``None``.  :attr:`eof` tells "nothing yet" from "never": it is set
    once the peer's end of stream has been seen.
    """

    __slots__ = ("_sock", "_max_frame_bytes", "_buffer", "eof")

    def __init__(self, sock: Any,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self._max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self.eof = False

    @property
    def pending(self) -> int:
        """Bytes received that no returned frame has consumed."""
        return len(self._buffer)

    def next(self, wait: bool = True) -> bytes | None:
        buffer = self._buffer
        while True:
            if len(buffer) >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer)
                if length > self._max_frame_bytes:
                    raise FrameTooLargeError(
                        f"frame of {length} bytes exceeds limit "
                        f"{self._max_frame_bytes}")
                end = _LENGTH.size + length
                if len(buffer) >= end:
                    payload = bytes(buffer[_LENGTH.size:end])
                    del buffer[:end]
                    return payload
            if not self.eof:
                if wait:
                    chunk = self._sock.recv(RECV_BYTES)
                else:
                    try:
                        chunk = self._sock.recv(RECV_BYTES,
                                                socket.MSG_DONTWAIT)
                    except BlockingIOError:
                        return None
                if chunk:
                    buffer += chunk
                    continue
                self.eof = True
            if wait and buffer:
                raise TornFrameError(
                    f"connection closed {len(buffer)} bytes into a frame")
            return None
