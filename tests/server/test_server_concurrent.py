"""Network clients vs the scheduled background pipeline.

The deterministic test puts the *engine* under the
:class:`DeterministicScheduler` (flush/compaction/group-commit decision
points all schedule-driven) while real socket clients free-run against
the server.  Server connection threads join the schedule on their first
engine hook and park cooperatively while idle (``server:recv``), so the
scheduler — not luck — decides how network writes interleave with
background maintenance.

A scheduler needs at least one always-eligible task while every scheduled
thread is idle-parked and the only pending work lives in unscheduled
socket threads; the ``pacifier`` task below is that keepalive (it parks
unconditionally, so the deadlock detector never fires while a client is
composing its next request).
"""

from __future__ import annotations

import threading
import time

from repro.lsm.db import DB
from repro.lsm.options import Options
from scheduling import DeterministicScheduler
from repro.lsm.vfs import LocalVFS, MemoryVFS
from repro.server import Client, Server

CLIENTS = 3
OPS_PER_CLIENT = 12


def _run_seed(seed: int) -> dict:
    sched = DeterministicScheduler(seed=seed)
    opts = Options(background_compaction=True, memtable_budget=600,
                   l0_compaction_trigger=2, step_hook=sched)
    db = DB.open(MemoryVFS(), "db", opts)
    server = Server(db)
    host, port = server.start()

    stop_pacifier = threading.Event()

    def pacifier():
        while not stop_pacifier.is_set():
            sched("pacifier:tick")
            time.sleep(0.0005)

    pacifier_thread = sched.spawn("pacifier", pacifier)

    errors: list[str] = []

    def client_main(cid: int) -> None:
        try:
            with Client(host, port, pool_size=1) as client:
                for i in range(OPS_PER_CLIENT):
                    key = b"s%d-c%d-%02d" % (seed, cid, i)
                    seq = client.put(key, b"v" * 24)
                    assert seq > 0
                    if i % 4 == 3:
                        assert client.get(key) == b"v" * 24
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            errors.append(f"client {cid}: {exc!r}")

    client_threads = [threading.Thread(target=client_main, args=(cid,),
                                       name=f"net-client-{cid}")
                      for cid in range(CLIENTS)]
    for thread in client_threads:
        thread.start()

    # The scheduler's creating thread holds the run token from birth: this
    # thread must *park* while the clients run, or no scheduled task (the
    # server's connection threads included) ever gets a grant.  The guard
    # keeps it ineligible until every client thread has finished.
    def clients_done() -> bool:
        return all(not thread.is_alive() for thread in client_threads)

    deadline = time.time() + 60
    while not clients_done():
        assert time.time() < deadline, "clients wedged under the scheduler"
        sched.park_until("main:wait-clients", clients_done)
    for thread in client_threads:
        thread.join(timeout=10)

    # Orchestrated phase over: free-run the world, then tear down.
    stop_pacifier.set()
    sched.shutdown()
    pacifier_thread.join(timeout=10)
    server.close()

    assert errors == []
    db.flush()
    recovered = dict(db.scan())
    pipeline = db.stats()["pipeline"]
    report = db.verify_integrity()
    assert report.ok, report
    db.close()
    return {"recovered": recovered, "pipeline": pipeline}


def test_scheduled_pipeline_vs_network_clients():
    for seed in range(4):
        result = _run_seed(seed)
        recovered = result["recovered"]
        assert len(recovered) == CLIENTS * OPS_PER_CLIENT
        for cid in range(CLIENTS):
            for i in range(OPS_PER_CLIENT):
                key = b"s%d-c%d-%02d" % (seed, cid, i)
                assert recovered[key] == b"v" * 24, f"seed {seed}"
        pipeline = result["pipeline"]
        assert pipeline["bg_error"] is None
        assert pipeline["group_commit_ops"] == CLIENTS * OPS_PER_CLIENT
        # Tiny memtable: the scheduled background pipeline actually ran.
        assert pipeline["bg_flushes"] > 0, f"seed {seed}"


def test_real_threads_group_commit_accounting(tmp_path):
    """Free-running load: every network write lands in exactly one commit
    group, whatever the interleaving — and with a real fsync to wait
    behind, the groups carry more than one connection's write."""
    db = DB.open(LocalVFS(str(tmp_path)), "data",
                 Options(background_compaction=True, sync_writes=True,
                         memtable_budget=4096, l0_compaction_trigger=2))
    server = Server(db)
    host, port = server.start()
    total = 8 * 40
    try:
        failures: list[str] = []

        def client_main(cid: int) -> None:
            try:
                with Client(host, port, pool_size=1) as client:
                    for i in range(40):
                        client.put(b"r%d-%02d" % (cid, i), b"y" * 20)
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

        threads = [threading.Thread(target=client_main, args=(cid,))
                   for cid in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        pipeline = db.stats()["pipeline"]
        assert pipeline["group_commit_ops"] == total
        assert 1 <= pipeline["write_groups"] <= total
        assert pipeline["max_group_batches"] >= 1
        # The fan-in the serving layer exists for: 8 connections' threads
        # enter the engine concurrently and share fsyncs.
        assert pipeline["group_commit_ops"] / pipeline["write_groups"] > 1
        db.flush()
        assert sum(1 for _ in db.scan()) == total
    finally:
        server.close()
        db.close()
