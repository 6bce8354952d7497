"""End-to-end serving tests: ops, pipelining, errors, robustness."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS
from repro.server import Client, RemoteError, Server
from repro.server.client import RetryPolicy
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    RECV_BYTES,
    FrameTooLargeError,
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    FrameReader,
    decode_value,
    encode_frame,
    encode_value,
)


@pytest.fixture()
def kv_server():
    db = DB.open(MemoryVFS(), "data", Options(background_compaction=True))
    server = Server(db)
    server.start()
    yield server, db
    server.close()
    db.close()


@pytest.fixture()
def doc_server():
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": IndexKind.LAZY})
    server = Server(db)
    server.start()
    yield server, db
    server.close()
    db.close()


def connect(server: Server, **kwargs) -> Client:
    host, port = server.address
    return Client(host, port, **kwargs)


# -- basic operations --------------------------------------------------------

def test_kv_round_trip(kv_server):
    server, db = kv_server
    with connect(server) as client:
        seq1 = client.put(b"alpha", b"1")
        seq2 = client.put(b"beta", b"2")
        assert seq2 == seq1 + 1
        assert client.get(b"alpha") == b"1"
        assert client.get(b"missing") is None
        assert client.delete(b"alpha") == seq2 + 1
        assert client.get(b"alpha") is None
        # Acked writes are in the engine, not a server-side cache.
        assert db.get(b"beta") == b"2"


def test_kv_scan_pages_and_limits(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        for i in range(20):
            client.put(b"k%02d" % i, b"v%d" % i)
        page = client.scan(b"k05", b"k15", limit=5)
        assert page == [[b"k%02d" % i, b"v%d" % i] for i in range(5, 10)]
        everything = client.scan()
        assert len(everything) == 20


def _put_rows(client: Client, mode: str, count: int) -> None:
    for i in range(count):
        if mode == "kv_server":
            client.put(b"k%02d" % i, b"v")
        else:
            client.put("k%02d" % i, {"UserID": "u1"})


@pytest.mark.parametrize("mode", ["kv_server", "doc_server"])
def test_scan_limit_zero_is_an_empty_page(request, mode):
    server, _db = request.getfixturevalue(mode)
    with connect(server) as client:
        _put_rows(client, mode, 5)
        assert client.scan(limit=0) == []
        assert len(client.scan(limit=3)) == 3


@pytest.mark.parametrize("limit", [-1, True, 2.5])
@pytest.mark.parametrize("mode", ["kv_server", "doc_server"])
def test_scan_limit_that_is_not_a_count_is_an_error(request, mode, limit):
    server, _db = request.getfixturevalue(mode)
    with connect(server) as client:
        _put_rows(client, mode, 5)
        with pytest.raises(RemoteError, match="scan limit"):
            client.scan(limit=limit)
        assert len(client.scan()) == 5  # the connection still serves


def test_doc_mode_lookup_and_range(doc_server):
    server, _db = doc_server
    with connect(server) as client:
        client.put("t1", {"UserID": "u1", "n": 1})
        client.put("t2", {"UserID": "u2", "n": 2})
        client.put("t3", {"UserID": "u1", "n": 3})
        hits = client.lookup("UserID", "u1")
        assert [key for key, _doc, _seq in hits] == ["t3", "t1"]
        assert hits[0][1] == {"UserID": "u1", "n": 3}
        ranged = client.range_lookup("UserID", "u1", "u2")
        assert {key for key, _doc, _seq in ranged} == {"t1", "t2", "t3"}
        client.delete("t1")
        assert client.get("t1") is None
        assert [key for key, _d, _s in client.lookup("UserID", "u1")] \
            == ["t3"]


@pytest.mark.parametrize("k", [0, True, 2.5, "3"])
def test_lookup_k_that_is_not_a_positive_int_is_an_error(doc_server, k):
    server, _db = doc_server
    with connect(server) as client:
        _put_rows(client, "doc_server", 5)
        with pytest.raises(RemoteError,
                           match="InvalidArgumentError: k must be"):
            client.lookup("UserID", "u1", k)
        with pytest.raises(RemoteError,
                           match="InvalidArgumentError: k must be"):
            client.range_lookup("UserID", "u0", "u2", k)
        assert len(client.lookup("UserID", "u1", 2)) == 2  # still serves


def test_stats_exposes_engine_and_server(kv_server):
    server, db = kv_server
    with connect(server) as client:
        client.put(b"a", b"1")
        stats = client.stats()
    assert stats["db"].keys() == db.stats().keys()
    assert stats["db"]["pipeline"]["group_commit_ops"] >= 1
    assert stats["server"]["connections_accepted"] == 1
    assert stats["server"]["requests"] >= 2
    assert stats["active_connections"] == 1


# -- pipelining --------------------------------------------------------------

def test_pipeline_results_in_request_order(kv_server):
    server, db = kv_server
    with connect(server) as client:
        with client.pipeline() as p:
            for i in range(100):
                p.put(b"p%03d" % i, b"%d" % i)
        seqs = p.results
        assert len(seqs) == 100
        # In-order responses: sequence numbers ascend with request order.
        assert seqs == sorted(seqs)
        assert db.get(b"p099") == b"99"
    # The run was coalesced: fewer write groups than operations.
    pipeline = db.stats()["pipeline"]
    assert pipeline["write_groups"] < 100
    assert server.stats.coalesced_ops > 0


def test_pipeline_mixes_reads_and_writes(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        client.put(b"seed", b"s")
        with client.pipeline() as p:
            p.put(b"w1", b"1")
            p.get(b"seed")
            p.put(b"w2", b"2")
            p.get(b"w1")
        w1_seq, seed_val, w2_seq, w1_val = p.results
        assert seed_val == b"s"
        assert w1_val == b"1"
        assert w2_seq > w1_seq


def test_pipeline_indexes_count_across_flushes(kv_server):
    """An op's returned index points into :attr:`Pipeline.results`, which
    every flush extends, not into the burst being queued."""
    server, _db = kv_server
    with connect(server) as client:
        pipe = client.pipeline()
        put_at = pipe.put(b"a", b"1")
        pipe.flush()
        get_at = pipe.get(b"a")
        pipe.flush()
        assert (put_at, get_at) == (0, 1)
        assert pipe.results[get_at] == b"1"
        assert isinstance(pipe.results[put_at], int)
        pipe.close()


def test_pipeline_error_does_not_desync(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with client.pipeline() as p:
            p.put(b"good1", b"1")
            p.put(b"bad", "not-bytes")  # type: ignore[arg-type]
            p.put(b"good2", b"2")
            with pytest.raises(RemoteError):
                p.flush()
        results = p.results
        assert isinstance(results[1], RemoteError)
        assert isinstance(results[0], int)
        assert isinstance(results[2], int)
        # Connection still usable after the error.
        assert client.get(b"good2") == b"2"


def test_stalled_connection_buffers_one_receive_not_the_burst(doc_server):
    """Backpressure is the kernel's: while dispatch is stalled a
    connection reads nothing more, so a pipelined flood waits in the
    socket buffers, not in server memory — and is answered in order once
    the stall clears."""
    server, _db = doc_server
    count = 2000
    burst = [encode_frame(encode_value(
        [i, "put", "t%04d" % i, {"UserID": "u%d" % (i % 7), "pad": "x" * 100}]))
        for i in range(1, count + 1)]
    assert sum(map(len, burst)) > 3 * RECV_BYTES
    sock = socket.create_connection(server.address, timeout=30)
    sender = threading.Thread(target=sock.sendall, args=(b"".join(burst),))
    try:
        with server._lock:  # every handler of a document-mode server takes it
            sender.start()
            deadline = time.time() + 5
            while server.stats.requests == 0 and time.time() < deadline:
                time.sleep(0.005)
            (conn,) = server._connections
            for _ in range(40):  # the first request is parked on the lock
                assert conn.frames.pending <= RECV_BYTES + len(burst[0])
                time.sleep(0.005)
            assert server.stats.responses == 0
        responses = FrameReader(sock)
        seqs = []
        for request_id in range(1, count + 1):
            echoed_id, status, seq = decode_value(responses.next())
            assert (echoed_id, status) == (request_id, STATUS_OK)
            seqs.append(seq)
        assert seqs == sorted(seqs)
    finally:
        sock.close()
        sender.join(timeout=10)
    assert not sender.is_alive()
    assert server.stats.backpressure_waits == 0  # no server-side queue


# -- error handling ----------------------------------------------------------

def test_unknown_op_is_reported_not_fatal(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with pytest.raises(RemoteError, match="unknown op"):
            client._call("frobnicate", [])
        assert client.put(b"after", b"ok") > 0


def test_lookup_rejected_in_kv_mode(kv_server):
    server, _db = kv_server
    with connect(server) as client:
        with pytest.raises(RemoteError, match="LOOKUP"):
            client.lookup("UserID", "u1")


def test_malformed_request_payload_keeps_connection(kv_server):
    server, _db = kv_server
    sock = socket.create_connection(server.address, timeout=5)
    responses = FrameReader(sock)
    garbage = encode_frame(b"\x7f\x00garbage")
    try:
        sock.sendall(garbage)
        # An error response, not a hangup.
        assert decode_value(responses.next())[:2] == [0, STATUS_ERROR]
        # Framing stayed in sync: a well-formed request still works.
        sock.sendall(encode_frame(encode_value([1, "put", b"k", b"v"])))
        assert decode_value(responses.next())[:2] == [1, STATUS_OK]
        # Inside a pipelined write run it is answered in its own place.
        sock.sendall(encode_frame(encode_value([2, "put", b"k2", b"v"]))
                     + garbage
                     + encode_frame(encode_value([3, "put", b"k3", b"v"])))
        assert [decode_value(responses.next())[:2] for _ in range(3)] \
            == [[2, STATUS_OK], [0, STATUS_ERROR], [3, STATUS_OK]]
    finally:
        sock.close()
    assert server.stats.errors == 2


def test_a_result_the_codec_refuses_is_an_error_response(doc_server):
    server, db = doc_server
    # Stored in-process: the engine keeps any JSON int, the wire only
    # 64-bit ones.
    db.put("big", {"UserID": "u1", "n": 2**70})
    with connect(server) as client:
        assert client.get("missing") is None
        accepted = server.stats.connections_accepted
        errors = server.stats.errors
        with pytest.raises(RemoteError, match="ProtocolError.*64-bit"):
            client.get("big")
        with pytest.raises(RemoteError, match="ProtocolError.*64-bit"):
            client.lookup("UserID", "u1")
        # Same socket, still in sync.
        assert client.put("small", {"UserID": "u2", "n": 1}) > 0
        assert client.get("small") == {"UserID": "u2", "n": 1}
    assert server.stats.errors == errors + 2
    assert server.stats.connections_accepted == accepted


def test_a_lone_surrogate_is_refused_and_a_pair_is_kept(doc_server):
    """A foreign peer's ``\\ud800`` escape is a protocol error, so no
    document is stored that no client could read back; an escaped
    surrogate pair is one character and round-trips."""
    server, db = doc_server
    sock = socket.create_connection(server.address, timeout=5)
    responses = FrameReader(sock)
    try:
        sock.sendall(encode_frame(
            b'[1,"put","k",{"UserID":"u1","t":"\\ud800"}]'))
        error = decode_value(responses.next())
        assert error[:2] == [0, STATUS_ERROR]
        assert error[2][0] == "ProtocolError" and "surrogate" in error[2][1]
        sock.sendall(encode_frame(
            b'[2,"put","k",{"UserID":"u1","t":"\\ud83d\\ude00"}]'))
        assert decode_value(responses.next())[:2] == [2, STATUS_OK]
        sock.sendall(encode_frame(encode_value([3, "get", "k"])))
        assert decode_value(responses.next()) == \
            [3, STATUS_OK, {"UserID": "u1", "t": "\U0001f600"}]
    finally:
        sock.close()
    assert db.get("k") == {"UserID": "u1", "t": "\U0001f600"}


def test_hostile_nesting_is_an_error_response(kv_server):
    server, _db = kv_server
    sock = socket.create_connection(server.address, timeout=5)
    responses = FrameReader(sock)
    try:
        sock.sendall(encode_frame(b"[" * 100_000 + b"]" * 100_000))
        error = decode_value(responses.next())
        assert error[:2] == [0, STATUS_ERROR]
        assert error[2][0] == "ProtocolError" and "recursion" in error[2][1]
        sock.sendall(encode_frame(encode_value([1, "put", b"k", b"v"])))
        assert decode_value(responses.next())[:2] == [1, STATUS_OK]
    finally:
        sock.close()
    assert server.stats.errors == 1


def test_a_request_the_codec_refuses_is_not_retried(kv_server):
    # The caller's error, raised at once: no backoff, no reconnect, and
    # the pooled connection stays.
    server, _db = kv_server
    sleeps: list[float] = []
    with connect(server, retry=RetryPolicy(deadline=1.0,
                                           sleep=sleeps.append)) as client:
        assert client.put(b"before", b"v") > 0
        with pytest.raises(ProtocolError, match="64-bit"):
            client.put(b"k", {"n": 2**70})
        with pytest.raises(ProtocolError, match="cannot encode"):
            client.get(object())
        pipeline = client.pipeline()
        pipeline.put(b"p1", b"v")
        with pytest.raises(ProtocolError, match="64-bit"):
            pipeline.put(b"p2", 2**70)
        pipeline.put(b"p3", b"v")
        assert len(pipeline.flush()) == 2
        pipeline.close()
        assert client.get(b"p2") is None
        assert client.get(b"p3") == b"v"
    assert sleeps == []
    assert server.stats.connections_accepted == 1


def test_bytes_values_near_the_frame_limit(kv_server):
    # A bytes value travels as base64, 4/3 its size: under the default
    # limit the largest kv value is a little less than 3 MiB.  One over
    # it is refused by the client before sending, not retried.
    server, _db = kv_server
    fits = b"\xff" * (DEFAULT_MAX_FRAME_BYTES * 3 // 4 - 1024)
    sleeps: list[float] = []
    with connect(server, retry=RetryPolicy(deadline=1.0,
                                           sleep=sleeps.append)) as client:
        client.put(b"big", fits)
        assert client.get(b"big") == fits
        with pytest.raises(FrameTooLargeError):
            client.put(b"big", fits + b"\xff" * 2048)
        assert client.get(b"big") == fits
    assert sleeps == []
    assert server.stats.connections_accepted == 1


def test_oversized_frame_rejected_and_connection_dropped():
    db = DB.open(MemoryVFS(), "data", Options(background_compaction=True))
    server = Server(db, max_frame_bytes=1024)
    host, port = server.start()
    oversized = struct.pack(">I", 1 << 20)
    try:
        # Alone, then behind two whole PUTs in the same segment: what the
        # look-ahead already read is executed and answered first.
        for rejected, ahead in enumerate((0, 2), start=1):
            sock = socket.create_connection((host, port), timeout=5)
            responses = FrameReader(sock)
            try:
                sock.sendall(b"".join(
                    encode_frame(encode_value([i, "put", b"o%d" % i, b"v"]))
                    for i in range(1, ahead + 1)) + oversized)
                acks = [decode_value(responses.next()) for _ in range(ahead)]
                assert [ack[:2] for ack in acks] \
                    == [[i, STATUS_OK] for i in range(1, ahead + 1)]
                assert [ack[2] for ack in acks] \
                    == list(range(1, ahead + 1))  # their sequences
                error = decode_value(responses.next())
                assert error[:2] == [0, STATUS_ERROR]
                assert error[2][0] == "FrameTooLargeError"
                assert responses.next() is None  # then EOF
            finally:
                sock.close()
            assert server.stats.frames_rejected == rejected
            assert server.stats.torn_frames == 0
        assert db.get(b"o2") == b"v"
        # The server survives and serves new connections.
        with Client(host, port) as client:
            assert client.put(b"k", b"v") > 0
    finally:
        server.close()
        db.close()


# -- disconnects -------------------------------------------------------------

def test_torn_frame_discards_only_the_torn_request(kv_server):
    """Disconnect mid-pipelined-batch: complete frames apply, the torn
    one never half-applies."""
    server, db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    complete = (encode_frame(encode_value([1, "put", b"whole-1", b"a"]))
                + encode_frame(encode_value([2, "put", b"whole-2", b"b"])))
    torn = encode_frame(encode_value([3, "put", b"torn", b"c"]))
    sock.sendall(complete + torn[:len(torn) // 2])
    sock.close()  # vanish mid-frame, responses unread
    deadline = time.time() + 5
    while server.stats.torn_frames == 0 and time.time() < deadline:
        time.sleep(0.01)
    assert server.stats.torn_frames == 1
    deadline = time.time() + 5
    while db.get(b"whole-2") is None and time.time() < deadline:
        time.sleep(0.01)
    assert db.get(b"whole-1") == b"a"
    assert db.get(b"whole-2") == b"b"
    assert db.get(b"torn") is None  # never half-applied


def test_client_disconnect_with_responses_in_flight(kv_server):
    """A peer that vanishes without reading responses must not wedge or
    kill the server."""
    server, db = kv_server
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5)
    frames = b"".join(
        encode_frame(encode_value([i, "put", b"d%03d" % i, b"x"]))
        for i in range(50))
    sock.sendall(frames)
    sock.close()
    deadline = time.time() + 5
    while server.active_connections() > 0 and time.time() < deadline:
        time.sleep(0.01)
    # Server is alive and consistent afterwards.
    with connect(server) as client:
        assert client.put(b"after-disconnect", b"ok") > 0
    assert db.get(b"after-disconnect") == b"ok"


def test_many_clients_interleave(kv_server):
    server, db = kv_server
    clients = [connect(server) for _ in range(5)]
    try:
        for round_no in range(10):
            for cid, client in enumerate(clients):
                client.put(b"c%d-%02d" % (cid, round_no), b"v")
        for cid in range(5):
            for round_no in range(10):
                assert db.get(b"c%d-%02d" % (cid, round_no)) == b"v"
    finally:
        for client in clients:
            client.close()
