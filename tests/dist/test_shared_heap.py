"""One top-K heap through every shard, against the per-shard merge.

``ShardedDB._scatter_gather`` hands a single heap to every shard in turn.
The reference kept here is what it replaced: each shard computes its own
top-K, the results are filtered by ownership and merged by sequence.  The
shared heap must give the same answer as the reference and as a plain
oracle (where the index kind is exact) for all five kinds, K in
{1, 5, None}, RF 1 and 2, before a split, at every phase between copy and
cleanup, and after it.  While no shard holds a copy it does not own, it
must never validate more candidates than the reference does.  Between
copy and cleanup it may: the stand-alone kinds skip another shard's copy
before its GET, so the harvest goes on to older owned candidates, where
the reference let the copy fill the shard's heap and stopped.  Where
that copy is stale, the reference under-counts and the shared heap does
not (the last test).
"""

import random

import pytest

from repro.core.base import IndexKind
from repro.core.topk import TopKBySeq
from repro.dist.cluster import ShardedDB
from repro.lsm.options import Options

ALL_KINDS = [IndexKind.EAGER, IndexKind.LAZY, IndexKind.COMPOSITE,
             IndexKind.EMBEDDED, IndexKind.NOINDEX]
USERS = [f"u{n}" for n in range(4)]


def _options():
    return Options(block_size=512, sstable_target_size=2 * 1024,
                   memtable_budget=2 * 1024, l1_target_size=8 * 1024)


def reference_lookup(cluster, attribute, value, k, early_termination):
    """The per-shard merge: every shard's own top-K, filtered to the keys
    the ring assigns it, merged newest first."""
    merged = []
    for shard_id, group in enumerate(cluster.data_shards):
        heap = TopKBySeq(k)
        group.lookup_into(attribute, value, heap, early_termination)
        merged.extend(result for result in heap.results()
                      if cluster._owns(shard_id, result.key))
    merged.sort(key=lambda result: -result.seq)
    return merged if k is None else merged[:k]


def validation_gets(cluster):
    return sum(replica.db.checker.validation_gets
               for group in cluster.data_shards for replica in group.replicas)


class Workload:
    def __init__(self, cluster, seed):
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.live = {}  # key -> (document, seq)

    def run(self, steps, num_keys=160):
        for _ in range(steps):
            key = f"t{self.rng.randrange(num_keys):04d}"
            if self.rng.random() < 0.12:
                self.cluster.delete(key)
                self.live.pop(key, None)
            else:
                document = {"UserID": self.rng.choice(USERS),
                            "n": self.rng.randrange(1000)}
                self.live[key] = (document, self.cluster.put(key, document))

    def oracle(self, value, k):
        ranked = sorted(((seq, key) for key, (document, seq)
                         in self.live.items() if document["UserID"] == value),
                        reverse=True)
        return [key for _seq, key in ranked][:k]


def check_every_query(workload, kind, phase, copies_unowned=False):
    cluster = workload.cluster
    exact_modes = [False] if kind == IndexKind.EMBEDDED else [True, False]
    for value in USERS:
        for k in (1, 5, None):
            for early in (True, False):
                before = validation_gets(cluster)
                want = reference_lookup(cluster, "UserID", value, k, early)
                reference_gets = validation_gets(cluster) - before
                before = validation_gets(cluster)
                got = cluster.lookup("UserID", value, k, early)
                shared_gets = validation_gets(cluster) - before
                where = (phase, value, k, early)
                assert [(r.key, r.seq) for r in got] \
                    == [(r.key, r.seq) for r in want], where
                assert copies_unowned or shared_gets <= reference_gets, \
                    where
                if early in exact_modes:
                    assert [r.key for r in got] \
                        == workload.oracle(value, k), where


@pytest.mark.parametrize("replication_factor", [1, 2])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
def test_shared_heap_equals_per_shard_merge_through_a_split(
        kind, replication_factor):
    cluster = ShardedDB.open_memory(
        num_shards=2, replication_factor=replication_factor,
        local_indexes={"UserID": kind}, options=_options())
    workload = Workload(cluster, seed=replication_factor)
    try:
        workload.run(400)
        check_every_query(workload, kind, "before")
        split = cluster.begin_split(0)
        while split.phase != "done":
            phase = split.phase
            split.step()
            if phase != "drain":  # a drain repeats while writes arrive
                workload.run(40)
            check_every_query(workload, kind, f"after {phase}",
                              copies_unowned=split.phase not in ("copy",
                                                                 "done"))
        workload.run(40)
        check_every_query(workload, kind, "after the split")
    finally:
        cluster.close()


def test_shared_heap_validates_fewer_candidates_than_the_merge():
    """Lazy with K=5 over four shards: shards after the first see a heap
    that already refuses most of their candidates."""
    cluster = ShardedDB.open_memory(
        num_shards=4, local_indexes={"UserID": IndexKind.LAZY},
        options=_options())
    workload = Workload(cluster, seed=7)
    try:
        workload.run(600)
        reference = shared = 0
        for value in USERS:
            before = validation_gets(cluster)
            reference_lookup(cluster, "UserID", value, 5, True)
            reference += validation_gets(cluster) - before
            before = validation_gets(cluster)
            cluster.lookup("UserID", value, 5)
            shared += validation_gets(cluster) - before
        assert shared < reference
    finally:
        cluster.close()


def _flip_scenario(kind):
    """Between flip and cleanup the source still holds a moved record,
    which the new shard has since changed to another value.  The copy
    validates on the source and is newer than the owned record a query
    for the old value must return.  Returns the cluster and that record's
    key."""
    cluster = ShardedDB.open_memory(
        num_shards=2, local_indexes={"UserID": kind}, options=Options())
    for n in range(60):
        cluster.put(f"f{n:03d}", {"UserID": "u1"})
    split = cluster.begin_split(0)
    split.step()  # prepare: the next ring is fixed
    old_ring, new_ring = cluster.ring, split.next_ring
    source = [key for key in (f"k{n}" for n in range(1000))
              if old_ring.shard_of(key.encode()) == 0]
    stays = next(key for key in source
                 if new_ring.shard_of(key.encode()) == 0)
    moves = next(key for key in source
                 if new_ring.shard_of(key.encode()) != 0)
    cluster.put(stays, {"UserID": "u1"})
    cluster.put(moves, {"UserID": "u1"})
    while split.phase != "cleanup":
        split.step()
    cluster.put(moves, {"UserID": "u9"})
    return cluster, stays


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
def test_a_stale_copy_does_not_push_an_owned_record_out(kind):
    """The per-shard merge let the stale copy take the source's one slot
    and answered with an older record."""
    cluster, stays = _flip_scenario(kind)
    try:
        assert [r.key for r in cluster.lookup("UserID", "u1", 1)] == [stays]
        assert [r.key for r in reference_lookup(
            cluster, "UserID", "u1", 1, True)] != [stays]
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
def test_a_stale_copy_does_not_push_an_owned_record_out_of_a_range(kind):
    """The RANGELOOKUP form: each shard's own top-K skips the records it
    does not own, so the copy takes no slot there either."""
    cluster, stays = _flip_scenario(kind)
    try:
        assert [r.key for r in cluster.range_lookup(
            "UserID", "u1", "u1", 1)] == [stays]
    finally:
        cluster.close()
