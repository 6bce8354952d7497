"""Wire format of the serving layer: frames carrying JSON text.

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

A payload is one JSON text, written and parsed by the standard library's
C ``json`` encoder and decoder.  It carries ``None``, bools, ints, floats
(``NaN`` and ``±Infinity`` too), ``str``, ``bytes``, lists (tuples
travel as lists) and dicts.  The two that JSON lacks each have one tagged
form, a one-key object whose key starts with the reserved character
U+0000: a ``bytes`` value is ``{"\\u0000b": "<base64>"}``, and a dict
with a key that is not a ``str``, or that holds U+0000, is
``{"\\u0000d": [[key, value], ...]}`` — so no user key passes for a tag.
Ints must fit in 64 signed bits, on both ends.  Text travels as UTF-8
(only control characters are escaped), and a str holding a lone
surrogate is refused on both ends too; ``bytes`` as base64 take 4/3
their size, so under the default frame limit a value a little under
3 MiB is the largest that fits.  The encoder rebuilds the containers in
Python to check keys and ints and to put in the tagged forms; the
decoder checks them back with an ``object_hook`` and a ``parse_int``.

Requests and responses are lists::

    request  = [request_id, op, *args]
    response = [request_id, status, payload]   # status 0 = ok, 1 = error

``request_id`` is chosen by the client and echoed back verbatim;
pipelined requests on one connection are answered strictly in order, so
the id is a sanity check rather than a routing key.
"""

from __future__ import annotations

import base64
import json
import re
import socket
import struct
from typing import Any

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
    "STATUS_OK",
    "STATUS_ERROR",
]

#: Default ceiling on one frame's payload.  Large enough for a fat SCAN
#: page, small enough that a bad length prefix cannot balloon memory.
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct(">I")

STATUS_OK = 0
STATUS_ERROR = 1


class ProtocolError(Exception):
    """Bytes that do not parse as the protocol, or a value it cannot carry."""


class FrameTooLargeError(ProtocolError):
    """A frame's declared length exceeds the receiver's limit."""


class TornFrameError(ProtocolError):
    """The connection closed in the middle of a frame."""


# -- value codec -------------------------------------------------------------

_TAG = "\x00"              # first character of a tagged form's one key
_BYTES_TAG = _TAG + "b"    # {"\u0000b": "<base64>"}
_PAIRS_TAG = _TAG + "d"    # {"\u0000d": [[key, value], ...]}
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1
#: Dict keys the pair form carries: the types that come back hashable.
_KEY_TYPES = (str, int, float, bytes, type(None))


def _encode_bytes(value: Any) -> dict[str, str]:
    """The C encoder's ``default``: a ``bytes`` value's tagged form."""
    if not isinstance(value, bytes):
        raise ProtocolError(
            f"cannot encode {type(value).__name__} on the wire")
    return {_BYTES_TAG: base64.b64encode(value).decode()}


_encode_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                                check_circular=False,
                                default=_encode_bytes).encode


#: Values the C encoder writes as they stand (``bytes`` via ``default``):
#: :func:`_tagged` copies them without a call.
_LEAVES = frozenset((str, float, bool, type(None), bytes))


def _tagged(value: Any) -> Any:
    """``value`` rebuilt for the C encoder: a dict with a key JSON cannot
    carry becomes the pair form and ints are range-checked.  ``bytes``,
    and the types the codec refuses, are left to ``default``."""
    if isinstance(value, dict):
        try:
            plain = _TAG not in "".join(value)
        except TypeError:  # a key that is not a str
            plain = False
        if plain:
            return {key: item if type(item) in _LEAVES else _tagged(item)
                    for key, item in value.items()}
        for key in value:
            if not isinstance(key, _KEY_TYPES):
                raise ProtocolError(f"cannot encode a {type(key).__name__} "
                                    "dict key on the wire")
        return {_PAIRS_TAG: [[_tagged(key), _tagged(item)]
                             for key, item in value.items()]}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _LEAVES else _tagged(item)
                for item in value]
    if isinstance(value, int) and not _INT_MIN <= value <= _INT_MAX:
        raise ProtocolError(f"int {value} outside the codec's 64-bit range")
    return value


def encode_value(value: Any) -> bytes:
    """Serialize one value (the whole payload of a frame)."""
    try:
        return _encode_json(_tagged(value)).encode()
    except RecursionError:
        raise ProtocolError("cannot encode a value nested past the "
                            "recursion limit, or circular") from None
    except UnicodeEncodeError:  # a str holding a lone surrogate
        raise ProtocolError("cannot encode a str that is not valid "
                            "Unicode on the wire") from None


def _parse_int(digits: str) -> int:
    """The decoder's ``parse_int``: refuses before converting."""
    # "-9223372036854775808" is 20 characters.
    if len(digits) <= 20 and _INT_MIN <= (value := int(digits)) <= _INT_MAX:
        return value
    raise ProtocolError(
        f"int {digits[:24]}... outside the codec's 64-bit range")


def _untag(obj: dict[str, Any]) -> Any:
    """The decoder's ``object_hook``: a tagged form's value."""
    if len(obj) == 1:
        ((key, body),) = obj.items()
        if key == _BYTES_TAG and isinstance(body, str):
            return base64.b64decode(body, validate=True)
        if key == _PAIRS_TAG and isinstance(body, list) and all(
                type(pair) is list and len(pair) == 2 for pair in body):
            pairs = dict(body)
            if len(pairs) == len(body):  # no key given twice
                return pairs
    for key in obj:
        if key[:1] == _TAG:
            raise ProtocolError(f"malformed tagged form {key!r}")
    return obj


_decode_json = json.JSONDecoder(object_hook=_untag,
                                parse_int=_parse_int).raw_decode

#: Writes a decoded value back out only to find a str holding a lone
#: surrogate, which UTF-8 cannot carry (``.encode()`` refuses it).
_unicode_text = json.JSONEncoder(ensure_ascii=False, check_circular=False,
                                 skipkeys=True,
                                 default=lambda _bytes: None).encode

#: The ``\uXXXX`` escape of a surrogate (U+D800..U+DFFF).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def decode_value(data: bytes) -> Any:
    """Parse one payload back into a value; trailing bytes are an error."""
    try:
        text = data.decode()
        value, end = _decode_json(text)
        # Only a surrogate's escape makes a lone surrogate, and the encoder
        # escapes nothing but control characters (the tags' U+0000 too).
        if "\\u" in text and _SURROGATE_ESCAPE.search(text):
            _unicode_text(value).encode()
    except RecursionError:
        raise ProtocolError(
            "payload nested past the recursion limit") from None
    except UnicodeEncodeError:
        raise ProtocolError("payload holds a lone surrogate, which is "
                            "not valid Unicode") from None
    except (ValueError, TypeError) as exc:
        # Not UTF-8, not JSON, bad base64 (ValueErrors), or a pair form
        # with an unhashable key (TypeError).
        raise ProtocolError(f"malformed payload: {exc}") from None
    if end != len(text):
        raise ProtocolError(
            f"{len(text) - end} trailing characters after payload")
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
