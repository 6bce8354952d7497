"""Unit drills for the replication layer.

Covers the pieces the scheduler drills compose: synchronous write fan-out
(byte-identical seqs across replicas), followers that apply the leader's
committed batch without reading or maintaining an index, a split's tail
re-executed on the destination, kill / revive / staleness bookkeeping,
failover reads, read repair, and anti-entropy reseeding — including a GSI
divergence healed back to exact query parity.
"""

import pytest

from repro.core.base import IndexKind
from repro.dist.cluster import ShardedDB
from repro.dist.replication import (
    DOWN,
    STALE,
    UP,
    NoReplicaError,
)
from repro.dist.partitioner import SplitHashRing
from repro.lsm.errors import InvalidArgumentError
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute


def _options():
    return Options(block_size=1024, sstable_target_size=4 * 1024,
                   memtable_budget=4 * 1024, l1_target_size=16 * 1024)


def _cluster(rf=3, shards=2, **kwargs):
    kwargs.setdefault("local_indexes", {"UserID": IndexKind.LAZY})
    return ShardedDB.open_memory(num_shards=shards, replication_factor=rf,
                                 options=_options(), **kwargs)


def _key_on_shard(cluster, shard_id, start=0):
    for i in range(start, start + 10_000):
        key = f"pin{i:05d}"
        if cluster.ring.shard_of(key.encode()) == shard_id:
            return key
    raise AssertionError(f"no key found for shard {shard_id}")


class TestWriteFanOut:
    def test_replicas_are_byte_identical_after_writes(self):
        with _cluster(rf=3) as cluster:
            for i in range(60):
                cluster.put(f"k{i:03d}", {"UserID": f"u{i % 7}", "n": i})
            for i in range(0, 60, 5):
                cluster.delete(f"k{i:03d}")
            for group in cluster.data_shards:
                digests = set(group.replica_digests().values())
                assert len(digests) == 1
                for replica in group.replicas:
                    assert replica.applied == group.ops_applied

    def test_sequence_numbers_match_across_replicas(self):
        with _cluster(rf=2) as cluster:
            seqs = {f"k{i}": cluster.put(f"k{i}", {"UserID": "u", "n": i})
                    for i in range(20)}
            for key, seq in seqs.items():
                group = cluster.data_shards[
                    cluster.ring.shard_of(key.encode())]
                for replica in group.replicas:
                    got = replica.db.primary.get_with_seq(key.encode())
                    assert got is not None and got[1] == seq

    def test_write_with_no_live_replica_is_not_acked(self):
        with _cluster(rf=2) as cluster:
            key = _key_on_shard(cluster, 0)
            cluster.put(key, {"UserID": "u0"})
            cluster.kill_replica(0, 0)
            cluster.kill_replica(0, 1)
            ops_before = cluster.data_shards[0].ops_applied
            with pytest.raises(NoReplicaError):
                cluster.put(key, {"UserID": "u1"})
            assert cluster.data_shards[0].ops_applied == ops_before
            assert cluster.revive_replica(0, 0) == "up"
            assert cluster.revive_replica(0, 1) == "up"
            # The un-acked write left no trace; new writes ack normally.
            assert cluster.get(key) == {"UserID": "u0"}
            cluster.put(key, {"UserID": "u2"})
            assert cluster.get(key) == {"UserID": "u2"}


def _count_gets(db, calls):
    """Append to ``calls`` the name of every point read on ``db``'s tables."""
    for _label, table in db.tables():
        for name in ("get", "get_with_seq", "get_many_with_seq"):
            def counted(*args, _read=getattr(table, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _read(*args, **kwargs)
            setattr(table, name, counted)


def _index_entry(replica, value):
    return replica.db.indexes["UserID"].index_db.get(encode_attribute(value))


class TestShippedWrites:
    @pytest.mark.parametrize("kind", list(IndexKind))
    def test_a_follower_reads_nothing_to_apply_a_write(self, kind):
        with _cluster(rf=2, shards=1,
                      local_indexes={"UserID": kind}) as cluster:
            for i in range(40):
                cluster.put(f"k{i:02d}", {"UserID": f"u{i % 3}", "n": i})
            cluster.flush()  # reads now come from the tables' files
            leader, follower = cluster.data_shards[0].replicas
            leader_blocks = leader.vfs.stats.read_blocks
            follower_blocks = follower.vfs.stats.read_blocks
            follower_gets = []
            _count_gets(follower.db, follower_gets)
            # An update (Eager reads u1's posting list) and a delete (a
            # stand-alone index reads the dying record).
            cluster.put("k04", {"UserID": "u1", "n": 99})
            cluster.delete("k07")
            assert follower_gets == []
            assert follower.vfs.stats.read_blocks == follower_blocks
            if kind in (IndexKind.EAGER, IndexKind.LAZY,
                        IndexKind.COMPOSITE):
                # The leader did the maintenance reads for both copies.
                assert leader.vfs.stats.read_blocks > leader_blocks
            assert len(set(cluster.data_shards[0]
                           .replica_digests().values())) == 1
            assert cluster.get("k07") is None
            got = {r.key for r in cluster.lookup("UserID", "u1",
                                                 early_termination=False)}
            assert "k04" in got and "k07" not in got

    def test_a_drifted_follower_stores_the_leaders_index_entry(self):
        with _cluster(rf=2, shards=1,
                      local_indexes={"UserID": IndexKind.EAGER}) as cluster:
            for i in range(15):
                cluster.put(f"k{i:02d}", {"UserID": f"u{i % 3}", "n": i})
            group = cluster.data_shards[0]
            leader, follower = group.replicas
            # A write that never went through the group fan-out.
            follower.db.put(b"rogue", {"UserID": "u9"})
            assert _index_entry(follower, "u9") != _index_entry(leader, "u9")
            cluster.put("k99", {"UserID": "u9"})
            assert _index_entry(follower, "u9") == _index_entry(leader, "u9")
            summary = cluster.anti_entropy()
            assert summary["shards"][0]["reseeded"] == [1]
            assert len(set(group.replica_digests().values())) == 1
            assert cluster.get("rogue") is None

    def test_a_straggler_drained_after_a_direct_destination_write(self):
        """A write routed to the source before the flip commits after a
        write made directly on the destination; the cleanup drain applies
        it there.  Re-executed on the destination, it adds its posting to
        the destination's Eager list rather than replacing the list with
        the source's."""
        ring = SplitHashRing(2)
        moving = [key for key in (f"m{i:04d}" for i in range(2000))
                  if ring.shard_of(key.encode()) == 0
                  and ring.with_split(0, 2).shard_of(key.encode()) == 2]
        straggler, direct = moving[:2]
        with _cluster(rf=2, shards=2,
                      local_indexes={"UserID": IndexKind.EAGER}) as cluster:
            for key in moving[2:6]:
                cluster.put(key, {"UserID": "u0"})
            split = cluster.begin_split(0)
            while split.phase != "flip":
                split.step()
            fired = []

            def hook(label):
                if label == "repl:put:s0:r0" and not fired:
                    fired.append(label)
                    split.step()  # the flip: the straggler has routed
                    cluster.put(direct, {"UserID": "v"})

            cluster.instrument(hook)
            straggler_seq = cluster.put(straggler, {"UserID": "v"})
            cluster.instrument(None)
            assert fired and split.phase == "cleanup"
            dest = cluster.data_shards[2]
            direct_seq = dest.primary.get_with_seq(direct.encode())[1]
            assert direct_seq < straggler_seq
            assert split.journal  # the straggler waits for the drain
            split.run()
            got = [(r.key, r.seq) for r in cluster.lookup(
                "UserID", "v", early_termination=False)]
            assert got == [(straggler, straggler_seq), (direct, direct_seq)]
            leader, follower = dest.replicas
            assert _index_entry(follower, "v") == _index_entry(leader, "v")
            assert len(set(dest.replica_digests().values())) == 1


class TestKillReviveStale:
    def test_revive_after_missed_writes_is_stale_then_repaired(self):
        with _cluster(rf=2, shards=1) as cluster:
            cluster.put("a", {"UserID": "u0"})
            cluster.kill_replica(0, 1)
            assert cluster.data_shards[0].replicas[1].state == DOWN
            for i in range(10):
                cluster.put(f"b{i}", {"UserID": "u1", "n": i})
            assert cluster.revive_replica(0, 1) == "stale"
            assert cluster.data_shards[0].replicas[1].state == STALE
            repaired = cluster.repair_shard(0)
            assert repaired == [1]
            group = cluster.data_shards[0]
            assert group.replicas[1].state == UP
            assert len(set(group.replica_digests().values())) == 1

    def test_read_repair_reseeds_a_stale_replica(self):
        with _cluster(rf=2, shards=1) as cluster:
            cluster.put("a", {"UserID": "u0"})
            cluster.kill_replica(0, 0)
            cluster.put("b", {"UserID": "u1"})
            cluster.revive_replica(0, 0)
            group = cluster.data_shards[0]
            assert group.replicas[0].state == STALE
            assert cluster.get("b") == {"UserID": "u1"}
            assert group.read_repairs == 1
            assert group.replicas[0].state == UP
            assert len(set(group.replica_digests().values())) == 1

    def test_revive_with_nothing_missed_is_up(self):
        with _cluster(rf=2, shards=1) as cluster:
            cluster.put("a", {"UserID": "u0"})
            cluster.kill_replica(0, 1)
            assert cluster.revive_replica(0, 1) == "up"
            assert cluster.get("a") == {"UserID": "u0"}

    def test_double_kill_and_revive_up_are_rejected(self):
        with _cluster(rf=2, shards=1) as cluster:
            cluster.kill_replica(0, 0)
            with pytest.raises(InvalidArgumentError):
                cluster.kill_replica(0, 0)
            cluster.revive_replica(0, 0)
            with pytest.raises(InvalidArgumentError):
                cluster.revive_replica(0, 0)

    def test_legacy_single_copy_cannot_revive(self):
        with _cluster(rf=1, shards=1) as cluster:
            cluster.put("a", {"UserID": "u0"})
            cluster.kill_replica(0, 0)
            with pytest.raises(InvalidArgumentError):
                cluster.revive_replica(0, 0)


class TestFailoverReads:
    def test_reads_fail_over_past_a_downed_leader(self):
        with _cluster(rf=3, shards=1) as cluster:
            expected = {}
            for i in range(25):
                doc = {"UserID": f"u{i % 4}", "n": i}
                cluster.put(f"k{i:02d}", doc)
                expected[f"k{i:02d}"] = doc
            cluster.kill_replica(0, 0)
            group = cluster.data_shards[0]
            for key, doc in expected.items():
                assert cluster.get(key) == doc
            got = {r.key for r in cluster.lookup("UserID", "u1",
                                                 early_termination=False)}
            want = {k for k, d in expected.items() if d["UserID"] == "u1"}
            assert got == want
            assert group.failover_reads > 0
            # Writes keep acking on the survivors.
            cluster.put("extra", {"UserID": "u1"})
            assert cluster.get("extra") == {"UserID": "u1"}


class TestAntiEntropy:
    def test_divergent_replica_is_reseeded_from_the_leader(self):
        with _cluster(rf=2, shards=1) as cluster:
            for i in range(15):
                cluster.put(f"k{i:02d}", {"UserID": f"u{i % 3}", "n": i})
            group = cluster.data_shards[0]
            # Corrupt replica 1 logically: a write that never went through
            # the group fan-out.
            group.replicas[1].db.put(b"rogue", {"UserID": "u9"})
            assert len(set(group.replica_digests().values())) == 2
            summary = cluster.anti_entropy()
            assert summary["shards"][0]["reseeded"] == [1]
            assert len(set(group.replica_digests().values())) == 1
            assert cluster.get("rogue") is None
            report = cluster.verify_integrity()
            assert all(r.ok for r in report.values())

    def test_gsi_divergence_is_healed_to_exact_parity(self):
        with ShardedDB.open_memory(num_shards=2, replication_factor=2,
                                   global_indexes=("UserID",),
                                   options=_options()) as cluster:
            expected = {}
            for i in range(10):
                doc = {"UserID": f"u{i % 3}", "n": i}
                cluster.put(f"k{i:02d}", doc)
                expected[f"k{i:02d}"] = doc
            gsi = cluster.global_indexes["UserID"]
            original = gsi.on_put
            state = {"armed": True}

            def flaky(key, document, seq):
                if state["armed"]:
                    state["armed"] = False
                    raise RuntimeError("index shard hiccup")
                original(key, document, seq)

            gsi.on_put = flaky
            with pytest.raises(RuntimeError):
                cluster.put("k99", {"UserID": "u0", "n": 99})
            gsi.on_put = original
            expected["k99"] = {"UserID": "u0", "n": 99}
            assert cluster.dirty_global_indexes() == ["UserID"]
            summary = cluster.anti_entropy()
            assert summary["gsi_rebuilt"] == ["UserID"]
            assert cluster.dirty_global_indexes() == []
            for value in ("u0", "u1", "u2"):
                got = {r.key for r in cluster.lookup("UserID", value,
                                                     early_termination=False)}
                want = {k for k, d in expected.items()
                        if d["UserID"] == value}
                assert got == want

    def test_clean_cluster_passes_anti_entropy_untouched(self):
        with _cluster(rf=2) as cluster:
            for i in range(20):
                cluster.put(f"k{i:02d}", {"UserID": f"u{i % 3}"})
            summary = cluster.anti_entropy()
            for shard_summary in summary["shards"].values():
                assert shard_summary["scrub_problems"] == []
                assert shard_summary["reseeded"] == []
            assert summary["gsi_rebuilt"] == []
