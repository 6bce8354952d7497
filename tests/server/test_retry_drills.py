"""Idempotent-retry drills: every acked write applies exactly once.

The attack: a write's response is the only proof the client has, so a
connection that dies at a response boundary leaves the client unable to
tell "never applied" from "applied, ack lost" — a blind retry
double-applies, no retry loses the write.  The ``apply`` envelope
(client UUID + write sequence) plus the server's dedup window resolves
it; these drills *enumerate* the boundary cases instead of sampling
them:

* a disconnect at **every** response boundary in a run of writes
  (dropped and torn flavours), and at every send boundary (broken and
  torn flavours);
* pipelined bursts torn mid-flight;
* a seeded randomized chaos schedule (seed in the failure message, so a
  red run replays bit-for-bit).

Exactly-once is pinned by the engine's own sequence numbers: N acked
puts must return sequences 1..N exactly, and the engine's
``last_sequence`` must equal N — a double-apply shows up as a hole or
an overshoot, a lost write as a missing ack.
"""

from __future__ import annotations

import os

import pytest

from repro.lsm.db import DB
from repro.lsm.errors import InvalidArgumentError
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS
from repro.server import Client, Server
from repro.server.client import RetryPolicy
from repro.server.netfaults import FaultSchedule, FaultyConnector

FULL = os.environ.get("REPRO_DIST_DRILLS") == "full"

NUM_WRITES = 8


def _fast_retry():
    return RetryPolicy(deadline=30.0, base_delay=0.001, max_delay=0.01,
                       sleep=lambda _s: None)


class _Rig:
    """One server + DB + fault-scheduled retrying client, torn down whole."""

    def __init__(self, schedule: FaultSchedule, **client_kwargs):
        self.db = DB.open(MemoryVFS(), "data",
                          Options(background_compaction=True))
        self.server = Server(self.db)
        host, port = self.server.start()
        client_kwargs.setdefault("retry", _fast_retry())
        self.client = Client(host, port, pool_size=1,
                             connector=FaultyConnector(schedule),
                             **client_kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.client.close()
        self.server.close()
        self.db.close()


def _run_writes(rig, count=NUM_WRITES):
    """``count`` puts through the faulty client; returns the acked seqs."""
    return [rig.client.put(b"key-%02d" % i, b"value-%02d" % i)
            for i in range(count)]


def _assert_exactly_once(rig, seqs, count=NUM_WRITES):
    # Acked sequences are exactly 1..N: no hole (lost write), no gap
    # from a double-apply shifting later writes.
    assert seqs == list(range(1, count + 1))
    assert rig.db.versions.last_sequence == count
    for i in range(count):
        assert rig.db.get(b"key-%02d" % i) == b"value-%02d" % i


class TestEveryResponseBoundary:
    @pytest.mark.parametrize("boundary", range(1, NUM_WRITES + 1))
    def test_dropped_response(self, boundary):
        schedule = FaultSchedule([("response", boundary, "drop")])
        with _Rig(schedule) as rig:
            seqs = _run_writes(rig)
            _assert_exactly_once(rig, seqs)
            assert ("drop_response", boundary) in schedule.injected
            # The ack was lost *after* the server applied: the retry hit
            # the dedup window instead of applying again.
            assert rig.server.stats.dedup_hits >= 1
            assert rig.server.stats.dedup_applied == NUM_WRITES

    @pytest.mark.parametrize("boundary", range(1, NUM_WRITES + 1))
    def test_torn_response(self, boundary):
        schedule = FaultSchedule([("response", boundary, "torn")])
        with _Rig(schedule) as rig:
            seqs = _run_writes(rig)
            _assert_exactly_once(rig, seqs)
            assert ("torn_response", boundary) in schedule.injected
            assert rig.server.stats.dedup_applied == NUM_WRITES


class TestEverySendBoundary:
    @pytest.mark.parametrize("boundary", range(1, NUM_WRITES + 1))
    def test_broken_send(self, boundary):
        schedule = FaultSchedule([("send", boundary, "break")])
        with _Rig(schedule) as rig:
            seqs = _run_writes(rig)
            _assert_exactly_once(rig, seqs)
            assert ("break_send", boundary) in schedule.injected

    @pytest.mark.parametrize("boundary", range(1, NUM_WRITES + 1))
    def test_torn_send(self, boundary):
        # A torn request frame reaches the server half-written; the
        # server discards it whole (never half-applied) and the retry
        # re-sends the same envelope.
        schedule = FaultSchedule([("send", boundary, "torn")])
        with _Rig(schedule) as rig:
            seqs = _run_writes(rig)
            _assert_exactly_once(rig, seqs)
            assert ("torn_send", boundary) in schedule.injected


class TestDedupWindow:
    def test_same_envelope_replays_same_result(self):
        with _Rig(FaultSchedule()) as rig:
            client = rig.client
            envelope = [client._client_id, 7, "put", [b"k", b"v"]]
            first = client._call("apply", envelope)
            second = client._call("apply", envelope)
            assert first == second == 1
            assert rig.db.versions.last_sequence == 1
            assert rig.server.stats.dedup_hits == 1

    def test_distinct_clients_do_not_collide(self):
        with _Rig(FaultSchedule()) as rig:
            client = rig.client
            seq_a = client._call("apply", ["client-a", 1, "put",
                                           [b"k", b"a"]])
            seq_b = client._call("apply", ["client-b", 1, "put",
                                           [b"k", b"b"]])
            assert seq_b == seq_a + 1  # same seq number, different client
            assert rig.server.stats.dedup_hits == 0

    def test_window_is_bounded(self):
        from repro.server.server import DEDUP_WINDOW
        with _Rig(FaultSchedule()) as rig:
            server = rig.server
            for seq in range(1, DEDUP_WINDOW + 10):
                server._op_apply(["bulk", seq, "put",
                                  [b"k%d" % seq, b"v"]])
            window = server._dedup["bulk"]
            assert len(window.results) == DEDUP_WINDOW
            # Oldest entries were evicted, newest retained.
            assert 1 not in window.results
            assert DEDUP_WINDOW + 9 in window.results

    def test_a_forgotten_retry_is_refused_not_applied_again(self):
        from repro.server.server import DEDUP_WINDOW
        with _Rig(FaultSchedule()) as rig:
            server = rig.server
            for seq in range(1, DEDUP_WINDOW + 10):
                server._op_apply(["bulk", seq, "put",
                                  [b"k%d" % seq, b"v"]])
            committed = rig.db.versions.last_sequence
            with pytest.raises(InvalidArgumentError,
                               match="older than its dedup window"):
                server._op_apply(["bulk", 1, "put", [b"k1", b"v"]])
            assert rig.db.versions.last_sequence == committed
            # A write newer than everything forgotten still applies.
            assert server._op_apply(["bulk", DEDUP_WINDOW + 10, "put",
                                     [b"k", b"v"]]) == committed + 1

    def test_client_windows_are_bounded(self):
        """One-shot clients (ROADMAP 5d) must not grow the server forever,
        and the bound evicts idle clients, never a live one."""
        from repro.server.server import DEDUP_CLIENTS
        with _Rig(FaultSchedule()) as rig:
            server = rig.server
            live_seq = server._op_apply(["live", 1, "put", [b"live", b"v"]])
            for i in range(10 * DEDUP_CLIENTS):
                server._op_apply([f"one-shot-{i}", 1, "put", [b"k", b"v"]])
                if i % (DEDUP_CLIENTS // 2) == 0:
                    # The live client keeps writing now and then ...
                    server._op_apply(["live", 2 + i, "put", [b"live", b"v"]])
            assert len(server._dedup) <= DEDUP_CLIENTS
            # ... so its window survived 10 x N strangers: a retry of its
            # first write still dedups to the same sequence number.
            hits = server.stats.dedup_hits
            assert server._op_apply(
                ["live", 1, "put", [b"live", b"v"]]) == live_seq
            assert server.stats.dedup_hits == hits + 1

    def test_errors_are_not_cached(self):
        with _Rig(FaultSchedule()) as rig:
            server = rig.server
            with pytest.raises(Exception, match="put value must be bytes"):
                server._op_apply(["c", 1, "put", [b"k", 42]])
            # The failed seq is free to be (correctly) applied later.
            assert server._op_apply(["c", 1, "put", [b"k", b"v"]]) == 1
            assert rig.server.stats.dedup_hits == 0


class TestPipelineRetry:
    @pytest.mark.parametrize("fault", [
        ("send", 1, "torn"),             # burst torn on the wire
        ("send", 1, "break"),            # burst never sent
        ("response", 3, "drop"),         # died mid-response-drain
        ("response", 5, "torn"),
    ], ids=["torn-send", "broken-send", "dropped-response",
            "torn-response"])
    def test_burst_converges_to_exactly_once(self, fault):
        count = 10
        schedule = FaultSchedule([fault])
        with _Rig(schedule) as rig:
            with rig.client.pipeline() as pipe:
                for i in range(count):
                    pipe.put(b"key-%02d" % i, b"value-%02d" % i)
            assert sorted(pipe.results) == list(range(1, count + 1))
            assert rig.db.versions.last_sequence == count
            for i in range(count):
                assert rig.db.get(b"key-%02d" % i) == b"value-%02d" % i
            assert schedule.injected  # the fault actually fired


class TestSeededChaos:
    def test_chaos_schedule_converges(self):
        """Randomized-but-seeded fault soup; the failure message carries
        the seed so CI reds replay exactly (REPRO_CHAOS_SEED=...)."""
        base_seed = int(os.environ.get("REPRO_CHAOS_SEED", "20260809"))
        rounds = 12 if FULL else 4
        writes = 25
        for round_index in range(rounds):
            seed = base_seed + round_index
            schedule = FaultSchedule.random(
                seed, sends=writes * 2, fault_rate=0.2)
            try:
                with _Rig(schedule) as rig:
                    seqs = _run_writes(rig, writes)
                    _assert_exactly_once(rig, seqs, writes)
            except BaseException as exc:
                raise AssertionError(
                    f"chaos round failed; replay with "
                    f"REPRO_CHAOS_SEED={seed} (injected: "
                    f"{schedule.injected!r})") from exc
