"""Model-checked interleaving properties of the concurrent engine.

``explore_interleavings`` enumerates *every* schedule of a small scripted
workload, so these are exhaustive model checks, not samples: a property
that holds here holds for all interleavings of that workload.  The larger
randomized sweep at the end trades exhaustiveness for a bigger workload,
checking every snapshot read against a sequence-number prefix model.
"""

from __future__ import annotations

import random
import threading

from repro.lsm.db import DB, WriteBatch
from repro.lsm.options import Options
from scheduling import DeterministicScheduler, explore_interleavings


def _torn_read_scenario(sched):
    """One writer of two 2-key batches vs one snapshot reader."""
    opts = Options(background_compaction=True, step_hook=sched)
    db = DB.open_memory(opts)
    observed = []

    def writer():
        db.write(WriteBatch().put(b"a", b"1").put(b"b", b"1"))
        db.write(WriteBatch().put(b"a", b"2").put(b"b", b"2"))

    def reader():
        with db.snapshot() as snap:
            observed.append((db.get(b"a", snap), db.get(b"b", snap)))

    t_w = sched.spawn("w", writer)
    t_r = sched.spawn("r", reader)
    sched.wait_threads(t_w, t_r)
    final = tuple(sorted(db.scan()))
    db.close()
    sched.shutdown()
    return tuple(observed), final


def test_no_torn_batch_reads_exhaustive():
    results = explore_interleavings(_torn_read_scenario,
                                    max_interleavings=800)
    assert len(results) < 800, "choice tree did not converge"
    # Each batch writes both keys atomically: a snapshot may see neither
    # batch, the first, or both -- never half of one.
    legal = {(None, None), (b"1", b"1"), (b"2", b"2")}
    outcomes = set()
    for _decisions, (observed, final) in results:
        assert len(observed) == 1
        assert observed[0] in legal, f"torn read: {observed[0]}"
        assert final == ((b"a", b"2"), (b"b", b"2"))
        outcomes.add(observed[0])
    assert len(outcomes) >= 2, "enumeration never varied the read point"


def _monotonic_read_scenario(sched):
    """Reader without a snapshot: two gets, each pinning the current seq."""
    opts = Options(background_compaction=True, step_hook=sched)
    db = DB.open_memory(opts)
    observed = []

    def writer():
        db.write(WriteBatch().put(b"a", b"1").put(b"b", b"1"))
        db.write(WriteBatch().put(b"a", b"2").put(b"b", b"2"))

    def reader():
        value_a = db.get(b"a")
        value_b = db.get(b"b")
        observed.append((value_a, value_b))

    t_w = sched.spawn("w", writer)
    t_r = sched.spawn("r", reader)
    sched.wait_threads(t_w, t_r)
    db.close()
    sched.shutdown()
    return tuple(observed)


def test_unsnapshotted_reads_never_go_backwards():
    results = explore_interleavings(_monotonic_read_scenario,
                                    max_interleavings=800)
    assert len(results) < 800, "choice tree did not converge"
    # Two separate gets are two separate read points, so mixed pairs are
    # fine as long as the second read is at least as new as the first.
    forbidden = {(b"1", None), (b"2", None), (b"2", b"1")}
    outcomes = set()
    for _decisions, observed in results:
        assert observed[0] not in forbidden, observed[0]
        outcomes.add(observed[0])
    assert len(outcomes) >= 3


def _delete_scenario(sched):
    """put k then delete k, vs a reader taking two snapshots."""
    opts = Options(background_compaction=True, step_hook=sched)
    db = DB.open_memory(opts)
    observed = []

    def writer():
        db.put(b"k", b"1")
        db.delete(b"k")

    def reader():
        for _ in range(2):
            with db.snapshot() as snap:
                observed.append((snap.seq, db.get(b"k", snap)))

    t_w = sched.spawn("w", writer)
    t_r = sched.spawn("r", reader)
    sched.wait_threads(t_w, t_r)
    db.close()
    sched.shutdown()
    return tuple(observed)


def test_no_resurrected_deletes_exhaustive():
    results = explore_interleavings(_delete_scenario, max_interleavings=800)
    assert len(results) < 800, "choice tree did not converge"
    model = {0: None, 1: b"1", 2: None}
    for _decisions, observed in results:
        assert len(observed) == 2
        seqs = [seq for seq, _value in observed]
        assert seqs == sorted(seqs), f"snapshot seq went backwards: {observed}"
        for seq, value in observed:
            assert value == model[seq], f"seq {seq} read {value!r}"


def test_snapshot_scans_match_sequence_prefix_model():
    """Randomized sweep: every snapshot scan equals the committed prefix.

    Two writers issue single-op batches (so ``DB.write``'s returned
    sequence identifies each op); a reader takes snapshots and scans.
    Each scan must equal the state obtained by replaying exactly the ops
    with ``seq <= snapshot.seq`` -- prefix consistency under rotation,
    background flush and compaction.
    """
    keys = [b"k0", b"k1", b"k2", b"k3"]
    for seed in range(20):
        sched = DeterministicScheduler(seed=seed)
        opts = Options(background_compaction=True, memtable_budget=600,
                       l0_compaction_trigger=2, step_hook=sched)
        db = DB.open_memory(opts)
        committed = []  # (seq, key, value-or-None)
        observations = []  # (snapshot seq, scan items)
        lock = threading.Lock()

        def writer(tid):
            rng = random.Random(1000 * seed + tid)
            for i in range(8):
                key = keys[rng.randrange(len(keys))]
                if rng.random() < 0.3:
                    seq = db.write(WriteBatch().delete(key))
                    record = (seq, key, None)
                else:
                    value = b"w%d-%d" % (tid, i)
                    seq = db.write(WriteBatch().put(key, value))
                    record = (seq, key, value)
                with lock:
                    committed.append(record)

        def reader():
            for _ in range(4):
                with db.snapshot() as snap:
                    observations.append(
                        (snap.seq, tuple(db.scan(snapshot=snap))))

        threads = [sched.spawn("w0", writer, 0),
                   sched.spawn("w1", writer, 1),
                   sched.spawn("r", reader)]
        sched.wait_threads(*threads)
        db.flush()
        final = dict(db.scan())
        db.close()
        sched.shutdown()

        def model_at(max_seq):
            state = {}
            for seq, key, value in sorted(committed):
                if seq > max_seq:
                    break
                if value is None:
                    state.pop(key, None)
                else:
                    state[key] = value
            return state

        for snap_seq, items in observations:
            assert dict(items) == model_at(snap_seq), f"seed {seed}"
        assert final == model_at(max(seq for seq, _k, _v in committed))
