"""Wire-format unit tests: codec round trips, framing, torn/oversized."""

from __future__ import annotations

import math
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameReader,
    FrameTooLargeError,
    ProtocolError,
    TornFrameError,
    decode_value,
    encode_frame,
    encode_value,
)


# -- value codec -------------------------------------------------------------

ROUND_TRIP_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    63,
    64,
    -64,
    -65,
    2**40,
    -(2**40),
    2**63 - 1,
    -(2**63),
    0.0,
    -2.5,
    1e300,
    b"",
    b"\x00\xff" * 10,
    "",
    "héllo ☃",
    [],
    [1, "two", b"three", None, [True]],
    {},
    {"a": 1, "b": [2, 3], "c": {"d": None}},
    {b"bytes-key": "ok", 7: "int-key"},
    [0, 1, {"nested": [b"deep", {"deeper": -9}]}],
    {7: "x"},
    {"\x00b": "AAAA"},  # a user key spelled like the bytes tag
    {"a\x00": b"x"},  # a user key holding the tag character
    math.nan,
    math.inf,
    -math.inf,
]


def _same(got, want) -> bool:
    """Equal, with identical types all the way down (bool is not int,
    bytes is not str, a dict's key types are kept) and NaN equal to NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict):
        return list(map(type, got)) == list(map(type, want)) \
            and got.keys() == want.keys() \
            and all(_same(got[key], want[key]) for key in want)
    return got == want


@pytest.mark.parametrize("value", ROUND_TRIP_VALUES,
                         ids=[repr(v)[:40] for v in ROUND_TRIP_VALUES])
def test_codec_round_trip(value):
    assert _same(decode_value(encode_value(value)), value)


_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-(2**63), max_value=2**63 - 1)
            | st.floats() | st.text() | st.binary())
_KEYS = (st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1)
         | st.floats(allow_nan=False) | st.text() | st.binary()
         | st.text().map(lambda text: "\x00" + text))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_codec_round_trip_keeps_values_and_types(value):
    assert _same(decode_value(encode_value(value)), value)


def test_tuples_travel_as_lists():
    assert decode_value(encode_value((1, (b"x", "y")))) == [1, [b"x", "y"]]


def test_codec_distinguishes_bool_from_int():
    assert decode_value(encode_value(True)) is True
    assert decode_value(encode_value(1)) == 1
    assert decode_value(encode_value(1)) is not True


def test_codec_rejects_unencodable_type():
    for value in (object(), {1, 2}, [bytearray(b"x")], {(1, 2): "tuple key"}):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(value)


def test_codec_rejects_circular_value():
    loop: list = [1]
    loop.append(loop)
    mapping: dict = {}
    mapping["self"] = mapping
    for value in (loop, mapping):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(value)


def test_codec_rejects_out_of_range_int():
    # Fails on the sender, not as a poisoned stream on the peer.
    for value in (2**63, -(2**63) - 1, 2**80, [1, {"n": 2**70}], {2**64: 1}):
        with pytest.raises(ProtocolError, match="64-bit"):
            encode_value(value)


def test_decode_rejects_out_of_range_int():
    # A peer's int past 64 bits is refused before its digits are
    # converted, however many there are.
    for digits in ("9223372036854775808", "-9223372036854775809",
                   "1" * 5000):
        with pytest.raises(ProtocolError, match="64-bit"):
            decode_value(f'[1,{{"n":{digits}}}]'.encode())
    assert decode_value(b"[9223372036854775807,-9223372036854775808]") \
        == [2**63 - 1, -(2**63)]


def test_decode_rejects_hostile_nesting():
    # Deeper than the interpreter's recursion limit, far inside a frame.
    for payload in (b"[" * 100_000 + b"]" * 100_000,
                    b'{"a":' * 100_000 + b"1" + b"}" * 100_000):
        assert len(payload) < DEFAULT_MAX_FRAME_BYTES
        with pytest.raises(ProtocolError, match="recursion"):
            decode_value(payload)


def test_text_travels_as_utf8():
    # Non-ASCII characters are not escaped, so a str costs its UTF-8
    # bytes plus quotes on the wire; control characters still are.
    text = "h\u00e9llo \u2603 \U0001f600"
    assert encode_value(text) == b'"' + text.encode() + b'"'
    assert encode_value("\x00\n") == b'"\\u0000\\n"'


def test_codec_rejects_lone_surrogate():
    with pytest.raises(ProtocolError, match="cannot encode"):
        encode_value(["\ud800"])


def test_decode_rejects_lone_surrogate_escape():
    for payload in (b'["\\ud800"]', b'{"\\udc00": 1}',
                    b'["\\ude00\\ud83d"]'):
        with pytest.raises(ProtocolError, match="lone surrogate"):
            decode_value(payload)
    assert decode_value(b'["\\ud83d\\ude00", "\\\\ud800"]') == \
        ["\U0001f600", "\\ud800"]


def test_tagged_payload_skips_the_surrogate_check(monkeypatch):
    """The tags' ``\\u0000`` escapes are no surrogate's: a kv payload
    carrying bytes and pair-form dicts is not written out again."""
    def refuse(_value):
        raise AssertionError("exact surrogate check ran")

    monkeypatch.setattr(protocol, "_unicode_text", refuse)
    value = [b"\x00\xff", {1: b"v"}, {"\x00k": 2}, "\x01\u20ac"]
    assert decode_value(encode_value(value)) == value


def test_decode_near_the_recursion_limit_is_never_a_recursion_error():
    """A payload that just decodes must not recurse out of the surrogate
    check: whichever step hits the limit, the error is a ProtocolError."""
    for depth in range(900, 1100):
        payload = b"[" * depth + b'"\\ud83d\\ude00"' + b"]" * depth
        try:
            decode_value(payload)
        except ProtocolError:
            pass


def test_decode_rejects_non_utf8():
    with pytest.raises(ProtocolError):
        decode_value(b'["\xff\xfe"]')


def test_decode_rejects_trailing_bytes():
    with pytest.raises(ProtocolError, match="trailing"):
        decode_value(encode_value(1) + b"\x00")


def test_decode_rejects_empty_and_truncated():
    with pytest.raises(ProtocolError):
        decode_value(b"")
    payload = encode_value({"key": [1, 2, 3], "other": b"abcdef"})
    for cut in range(1, len(payload)):
        with pytest.raises(ProtocolError):
            decode_value(payload[:cut])


def test_decode_rejects_unknown_tag():
    # Not JSON at all, then objects keyed by the reserved tag character
    # that are no tagged form.
    with pytest.raises(ProtocolError, match="malformed payload"):
        decode_value(b"\x7f")
    for bogus in (b'{"\\u0000z":1}', b'{"\\u0000b":"AAAA","x":1}',
                  b'{"\\u0000b":7}', b'{"\\u0000d":{"a":1}}'):
        with pytest.raises(ProtocolError, match="tagged form"):
            decode_value(bogus)
    # Pair forms that are not [[key, value], ...] with distinct keys.
    for bogus in (b'{"\\u0000d":["ab","cd"]}', b'{"\\u0000d":[[1,2,3]]}',
                  b'{"\\u0000d":[[1,"a"],[1,"b"]]}'):
        with pytest.raises(ProtocolError, match="tagged form"):
            decode_value(bogus)
    # A pair form whose key cannot be a dict key.
    with pytest.raises(ProtocolError):
        decode_value(b'{"\\u0000d":[[[1],2]]}')


def test_decode_rejects_length_past_end():
    # A bytes value whose base64 body is cut short or not base64.
    for body in (b"AAA", b"AA=A", b"@@@@"):
        with pytest.raises(ProtocolError, match="malformed payload"):
            decode_value(b'{"\\u0000b":"' + body + b'"}')


# -- framing over real sockets -----------------------------------------------

def _pair() -> tuple[socket.socket, socket.socket]:
    left, right = socket.socketpair()
    left.settimeout(5)
    right.settimeout(5)
    return left, right


def test_frame_round_trip():
    left, right = _pair()
    frames = FrameReader(right)
    try:
        left.sendall(encode_frame(b"hello"))
        assert frames.next() == b"hello"
        left.sendall(encode_frame(b""))
        assert frames.next() == b""
        assert frames.pending == 0
    finally:
        left.close()
        right.close()


def test_many_frames_one_stream():
    left, right = _pair()
    frames = FrameReader(right)
    payloads = [encode_value([i, "op", b"x" * i]) for i in range(50)]
    try:
        left.sendall(b"".join(encode_frame(p) for p in payloads))
        for expected in payloads:
            assert frames.next() == expected
    finally:
        left.close()
        right.close()


def test_clean_eof_returns_none():
    left, right = _pair()
    try:
        left.close()
        frames = FrameReader(right)
        assert frames.next() is None
        assert frames.eof and frames.pending == 0
    finally:
        right.close()


def test_torn_header_raises():
    left, right = _pair()
    try:
        left.sendall(b"\x00\x00")  # half a length prefix
        left.close()
        with pytest.raises(TornFrameError):
            FrameReader(right).next()
    finally:
        right.close()


def test_torn_payload_raises():
    left, right = _pair()
    try:
        left.sendall(struct.pack(">I", 100) + b"only-part")
        left.close()
        with pytest.raises(TornFrameError):
            FrameReader(right).next()
    finally:
        right.close()


def test_header_then_eof_raises_torn():
    left, right = _pair()
    try:
        left.sendall(struct.pack(">I", 8))
        left.close()
        with pytest.raises(TornFrameError):
            FrameReader(right).next()
    finally:
        right.close()


def test_truncation_at_every_offset_is_clean_eof_or_torn():
    """Two frames cut at every byte: whole frames come out, a cut on a
    frame boundary is a clean EOF, a cut anywhere else is torn — and the
    fragment stays in ``pending``, never returned."""
    payloads = [encode_value([1, "put", b"k", b"v"]), b""]
    stream = b"".join(encode_frame(p) for p in payloads)
    ends = [4 + len(payloads[0]), len(stream)]  # where each frame ends
    for cut in range(len(stream) + 1):
        left, right = _pair()
        try:
            left.sendall(stream[:cut])
            left.close()
            frames = FrameReader(right)
            whole = sum(1 for end in ends if end <= cut)
            for expected in payloads[:whole]:
                assert frames.next() == expected
            fragment = cut - ([0] + ends)[whole]
            if fragment == 0:
                assert frames.next() is None, cut
            else:
                with pytest.raises(TornFrameError):
                    frames.next()
            assert frames.eof and frames.pending == fragment
        finally:
            right.close()


def test_frame_split_across_three_segments():
    left, right = socket.socketpair()  # no timeout: wait=False polls
    frames = FrameReader(right)
    frame = encode_frame(b"split-me-in-three")
    try:
        left.sendall(frame[:2])                 # inside the header
        assert frames.next(wait=False) is None
        left.sendall(frame[2:9])                # header done, payload begun
        assert frames.next(wait=False) is None
        assert frames.pending == 9 and not frames.eof
        left.sendall(frame[9:])
        assert frames.next(wait=False) == b"split-me-in-three"
        assert frames.pending == 0
    finally:
        left.close()
        right.close()


def test_no_wait_returns_only_what_the_kernel_holds():
    left, right = socket.socketpair()  # no timeout: wait=False polls
    frames = FrameReader(right)
    try:
        assert frames.next(wait=False) is None  # empty stream, still open
        assert not frames.eof
        # Two frames in one segment: one recv, both sliced from the buffer.
        left.sendall(encode_frame(b"one") + encode_frame(b"two"))
        assert frames.next(wait=False) == b"one"
        assert frames.pending == 4 + 3
        assert frames.next(wait=False) == b"two"
        assert frames.next(wait=False) is None
        # At end of stream it still answers None (and notes the EOF); the
        # verdict on a half-arrived frame is the blocking call's.
        left.sendall(encode_frame(b"half")[:6])
        left.close()
        assert frames.next(wait=False) is None
        assert frames.eof and frames.pending == 6
        with pytest.raises(TornFrameError):
            frames.next()
    finally:
        right.close()


def test_oversized_frame_rejected_without_reading_payload():
    left, right = _pair()
    frames = FrameReader(right, max_frame_bytes=1024)
    try:
        # Only the header is sent; the reader must reject from the header
        # alone rather than wait for (or allocate) the declared payload.
        left.sendall(struct.pack(">I", 2**31))
        with pytest.raises(FrameTooLargeError):
            frames.next()
        # The stream cannot be re-synchronized: it stays rejected.
        with pytest.raises(FrameTooLargeError):
            frames.next()
    finally:
        left.close()
        right.close()


def test_frame_at_limit_accepted():
    left, right = _pair()
    payload = b"z" * 1024
    try:
        done = threading.Event()

        def sender():
            left.sendall(encode_frame(payload))
            done.set()

        thread = threading.Thread(target=sender)
        thread.start()
        assert FrameReader(right, max_frame_bytes=1024).next() == payload
        done.wait(5)
        thread.join(5)
    finally:
        left.close()
        right.close()
