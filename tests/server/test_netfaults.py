"""Unit tests for the network fault machinery and client retry plumbing:
schedules, transports, backoff, reconnect, and the close()/checkout race.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS
from repro.server import Client, Server
from repro.server.client import ClientClosedError, RetryPolicy
from repro.server.netfaults import FaultSchedule, FaultyConnector
from repro.server.protocol import ProtocolError


@pytest.fixture()
def kv_server():
    db = DB.open(MemoryVFS(), "data", Options(background_compaction=True))
    server = Server(db)
    server.start()
    yield server, db
    server.close()
    db.close()


def _fast_retry(**overrides):
    """A RetryPolicy that never sleeps for real (drills stay instant)."""
    defaults = dict(deadline=30.0, base_delay=0.001, max_delay=0.01,
                    sleep=lambda _s: None)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def connect(server, schedule=None, **kwargs):
    host, port = server.address
    if schedule is not None:
        kwargs["connector"] = FaultyConnector(schedule)
    return Client(host, port, **kwargs)


# -- FaultSchedule -----------------------------------------------------------

class TestFaultSchedule:
    def test_overlapping_send_faults_rejected(self):
        with pytest.raises(ValueError, match="send faults overlap"):
            FaultSchedule([("send", 1, "break"), ("send", 2, "break"),
                           ("send", 2, "torn")])
        with pytest.raises(ValueError, match="response faults overlap"):
            FaultSchedule([("response", 3, "drop"),
                           ("response", 3, "torn")])

    def test_counters_and_injected_log(self):
        schedule = FaultSchedule([("connect", 1, "refuse"),
                                  ("send", 2, "break"),
                                  ("response", 1, "drop")])
        assert schedule.hit("connect") == "refuse"
        assert schedule.hit("connect") is None
        assert schedule.hit("send") is None
        assert schedule.hit("send") == "break"
        assert schedule.hit("response") == "drop"
        assert (schedule.counts["connect"], schedule.counts["send"],
                schedule.counts["response"]) == (2, 2, 1)
        assert schedule.injected == [("refuse_connect", 1),
                                     ("break_send", 2),
                                     ("drop_response", 1)]

    def test_random_is_reproducible(self):
        first = FaultSchedule.random(42, sends=100)
        second = FaultSchedule.random(42, sends=100)
        assert first.faults == second.faults
        different = FaultSchedule.random(43, sends=100)
        assert first.faults != different.faults

    def test_random_respects_fault_rate_extremes(self):
        none = FaultSchedule.random(1, sends=50, fault_rate=0.0)
        assert not none.faults
        full = FaultSchedule.random(1, sends=50, fault_rate=1.0)
        assert {at for event, at, _fault, _count in full.faults
                if event == "send"} == set(range(1, 51))

    def test_delay_hook_sees_every_event(self):
        events = []
        schedule = FaultSchedule(delay=events.append)
        schedule.hit("connect")
        schedule.hit("send")
        schedule.hit("response")
        assert events == ["net:connect:1", "net:send:1", "net:response:1"]


# -- RetryPolicy -------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        for attempt in range(6):
            nominal = min(1.0, 0.1 * 2 ** attempt)
            for _ in range(20):
                delay = policy.backoff(attempt)
                assert nominal * 0.5 <= delay <= nominal


# -- reconnect / retry wiring -------------------------------------------------

class TestReconnect:
    def test_refused_connects_retried_within_deadline(self, kv_server):
        server, _db = kv_server
        slept = []
        schedule = FaultSchedule([("connect", 1, "refuse", 3)])
        policy = _fast_retry(sleep=slept.append)
        with connect(server, schedule, retry=policy) as client:
            assert client.put(b"k", b"v") == 1
        assert schedule.counts["connect"] == 4  # 3 refusals + 1 success
        assert len(slept) == 3
        # Exponential shape survives jitter: each nominal doubles.
        assert slept[0] <= 0.001 and slept[1] <= 0.002

    def test_without_retry_refusal_surfaces(self, kv_server):
        server, _db = kv_server
        schedule = FaultSchedule([("connect", 1, "refuse")])
        with connect(server, schedule) as client:
            with pytest.raises(ConnectionRefusedError):
                client.put(b"k", b"v")

    def test_deadline_exhaustion_reraises_last_error(self, kv_server):
        server, _db = kv_server
        clock = [0.0]

        def fake_clock():
            return clock[0]

        def fake_sleep(seconds):
            clock[0] += seconds

        schedule = FaultSchedule([("connect", 1, "refuse", 10_000)])
        policy = RetryPolicy(deadline=0.05, base_delay=0.01,
                             sleep=fake_sleep, clock=fake_clock)
        with connect(server, schedule, retry=policy) as client:
            with pytest.raises(ConnectionRefusedError):
                client.put(b"k", b"v")
        # The deadline bounded the attempts well below the fault budget.
        assert schedule.counts["connect"] < 100

    def test_torn_response_without_retry_is_protocol_error(self, kv_server):
        server, _db = kv_server
        schedule = FaultSchedule([("response", 1, "torn")])
        with connect(server, schedule) as client:
            with pytest.raises(ProtocolError):
                client.put(b"k", b"v")

    def test_remote_error_is_never_retried(self, kv_server):
        server, _db = kv_server
        from repro.server import RemoteError
        with connect(server, retry=_fast_retry()) as client:
            before = server.stats.requests
            with pytest.raises(RemoteError):
                client._call("frobnicate", [])
            # Exactly one request reached the server: no blind retries
            # of an answered (failed) call.
            assert server.stats.requests == before + 1


# -- close() semantics (satellite a) ------------------------------------------

class TestClientClose:
    def test_closed_client_raises_client_closed(self, kv_server):
        server, _db = kv_server
        client = connect(server)
        client.put(b"k", b"v")
        client.close()
        with pytest.raises(ClientClosedError):
            client.get(b"k")
        client.close()  # idempotent

    def test_close_wakes_blocked_checkout_waiter(self, kv_server):
        """A thread parked in checkout (pool exhausted) must be woken
        with ClientClosedError by close(), not left hanging forever."""
        server, _db = kv_server
        client = connect(server, pool_size=1)
        client.put(b"seed", b"v")       # materialize the one connection
        conn = client._checkout()        # hold it: the pool is now empty
        results = []

        def waiter():
            try:
                client.get(b"seed")
            except BaseException as exc:  # noqa: BLE001 - inspected below
                results.append(exc)
            else:
                results.append(None)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the waiters park on the empty pool
        client.close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive(), "checkout waiter hung on close()"
        assert len(results) == 3
        assert all(isinstance(r, ClientClosedError) for r in results)
        client._release(conn)  # held connection discards cleanly

    def test_close_is_not_retried_into(self, kv_server):
        """ClientClosedError must pierce the retry loop immediately."""
        server, _db = kv_server
        attempts = []
        policy = _fast_retry(sleep=attempts.append)
        client = connect(server, retry=policy)
        client.close()
        with pytest.raises(ClientClosedError):
            client.put(b"k", b"v")
        assert attempts == []  # zero backoff sleeps: it never retried
