"""The sharded store: routing, local vs global indexes, exact top-K."""

import random

import pytest

from repro.core.base import IndexKind
from repro.dist.cluster import SequenceOracle, ShardedDB
from repro.dist.partitioner import (HashPartitioner, RangePartitioner,
                                    SplitHashRing)
from repro.lsm.errors import DBClosedError, InvalidArgumentError
from repro.lsm.options import Options


def _options():
    return Options(block_size=1024, sstable_target_size=4 * 1024,
                   memtable_budget=4 * 1024, l1_target_size=16 * 1024)


def _local_cluster(num_shards=4, kind=IndexKind.LAZY):
    return ShardedDB.open_memory(
        num_shards=num_shards, local_indexes={"UserID": kind},
        options=_options())


def _global_cluster(num_shards=4):
    return ShardedDB.open_memory(
        num_shards=num_shards, global_indexes=("UserID",),
        options=_options())


def _apply_random_ops(cluster, seed, num_ops, num_keys=300, num_users=15):
    rng = random.Random(seed)
    oracle = {}
    for i in range(num_ops):
        key = f"t{rng.randrange(num_keys):05d}"
        if rng.random() < 0.08:
            cluster.delete(key)
            oracle.pop(key, None)
        else:
            doc = {"UserID": f"u{rng.randrange(num_users):03d}",
                   "Body": "x" * rng.randrange(30)}
            seq = cluster.put(key, doc)
            oracle[key] = (doc, seq)
    return oracle


def _oracle_lookup(oracle, value):
    return sorted(((seq, key) for key, (doc, seq) in oracle.items()
                   if doc["UserID"] == value), reverse=True)


class TestPartitioner:
    def test_stable_and_in_range(self):
        partitioner = HashPartitioner(5)
        for i in range(200):
            shard = partitioner.shard_of(f"key{i}".encode())
            assert 0 <= shard < 5
            assert shard == partitioner.shard_of(f"key{i}".encode())

    def test_roughly_balanced(self):
        partitioner = HashPartitioner(4)
        counts = [0] * 4
        for i in range(4000):
            counts[partitioner.shard_of(f"key{i}".encode())] += 1
        assert min(counts) > 700  # within ~30% of perfect balance

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            SplitHashRing(0)
        with pytest.raises(ValueError):
            HashPartitioner(-1)

    def test_single_shard_routes_everything_to_zero(self):
        for partitioner in (HashPartitioner(1), SplitHashRing(1),
                            RangePartitioner([])):
            for i in range(50):
                assert partitioner.shard_of(f"key{i}".encode()) == 0
            assert partitioner.shards_overlapping(b"a", b"z") == [0]

    def test_hash_ranges_scatter_to_every_shard(self):
        partitioner = HashPartitioner(4)
        assert partitioner.shards_overlapping(b"a", b"b") == [0, 1, 2, 3]


class TestRangePartitioner:
    def test_boundary_keys(self):
        partitioner = RangePartitioner([b"g", b"p"])
        assert partitioner.num_shards == 3
        assert partitioner.shard_of(b"") == 0          # below everything
        assert partitioner.shard_of(b"a") == 0
        assert partitioner.shard_of(b"fzzz") == 0      # just under a split
        assert partitioner.shard_of(b"g") == 1         # at a split: right
        assert partitioner.shard_of(b"g\x00") == 1
        assert partitioner.shard_of(b"p") == 2         # at the last split
        assert partitioner.shard_of(b"zzz") == 2       # above everything

    def test_overlap_is_interval_precise(self):
        partitioner = RangePartitioner([b"g", b"p"])
        assert partitioner.shards_overlapping(b"a", b"c") == [0]
        assert partitioner.shards_overlapping(b"a", b"g") == [0, 1]
        assert partitioner.shards_overlapping(b"h", b"z") == [1, 2]
        assert partitioner.shards_overlapping(b"a", b"z") == [0, 1, 2]
        assert partitioner.shards_overlapping(b"z", b"a") == []  # empty

    def test_invalid_split_points(self):
        with pytest.raises(ValueError):
            RangePartitioner([b"p", b"g"])      # unsorted
        with pytest.raises(ValueError):
            RangePartitioner([b"g", b"g"])      # duplicate


class TestSplitHashRing:
    def test_unsplit_ring_matches_hash_partitioner(self):
        for num_shards in (1, 2, 4, 7):
            ring = SplitHashRing(num_shards)
            flat = HashPartitioner(num_shards)
            for i in range(500):
                key = f"key{i}".encode()
                assert ring.shard_of(key) == flat.shard_of(key)

    def test_split_only_remaps_the_parents_keys(self):
        ring = SplitHashRing(4)
        split = ring.with_split(2, 4)
        moved = 0
        for i in range(2000):
            key = f"key{i}".encode()
            before, after = ring.shard_of(key), split.shard_of(key)
            if before != 2:
                assert after == before  # other shards never remapped
            else:
                assert after in (2, 4)
                moved += after == 4
        assert moved > 100  # roughly half of shard 2's keys actually move

    def test_repeated_splits_quarter_the_keyspace(self):
        ring = SplitHashRing(2).with_split(0, 2).with_split(0, 3)
        assert ring.num_shards == 4
        counts = [0] * 4
        for i in range(4000):
            counts[ring.shard_of(f"key{i}".encode())] += 1
        # Shard 1 kept its half; shards 0, 2 and 3 split the other half.
        assert counts[1] > 1400
        assert all(count > 300 for count in (counts[0], counts[2],
                                             counts[3]))

    def test_split_validation(self):
        ring = SplitHashRing(2)
        with pytest.raises(ValueError):
            ring.with_split(5, 2)        # parent is not a shard
        with pytest.raises(ValueError):
            ring.with_split(0, 1)        # target already exists
        with pytest.raises(ValueError):
            ring.with_split(0, 2).with_split(1, 2)  # duplicate target

    def test_split_is_immutable_and_overlap_scatters(self):
        ring = SplitHashRing(2)
        split = ring.with_split(0, 2)
        assert ring.num_shards == 2      # original ring untouched
        assert split.num_shards == 3
        assert split.shards_overlapping(b"a", b"z") == [0, 1, 2]


class TestSequenceOracle:
    def test_monotone_allocation(self):
        oracle = SequenceOracle()
        first = oracle.allocate(3)
        second = oracle.allocate(1)
        assert first == 1
        assert second == 4
        assert oracle.last_allocated == 4


class TestRouting:
    def test_put_get_delete_roundtrip(self):
        cluster = _local_cluster()
        cluster.put("k1", {"UserID": "u1"})
        assert cluster.get("k1") == {"UserID": "u1"}
        cluster.delete("k1")
        assert cluster.get("k1") is None
        cluster.close()

    def test_records_spread_across_shards(self):
        cluster = _local_cluster()
        for i in range(400):
            cluster.put(f"k{i:04d}", {"UserID": "u1"})
        counts = cluster.shard_record_counts()
        assert sum(counts) == 400
        assert all(count > 40 for count in counts)
        cluster.close()

    def test_unindexed_attribute_rejected(self):
        cluster = _local_cluster()
        with pytest.raises(InvalidArgumentError):
            cluster.lookup("Body", "x")
        cluster.close()

    def test_overlapping_scopes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ShardedDB.open_memory(local_indexes={"UserID": IndexKind.LAZY},
                                  global_indexes=("UserID",),
                                  options=_options())

    def test_closed_cluster(self):
        cluster = _local_cluster()
        cluster.close()
        with pytest.raises(DBClosedError):
            cluster.get("k")
        cluster.close()  # idempotent


@pytest.mark.parametrize("scope", ["local", "global"])
class TestEquivalence:
    def _cluster(self, scope):
        if scope == "local":
            return _local_cluster()
        return _global_cluster()

    def test_lookup_matches_oracle(self, scope):
        cluster = self._cluster(scope)
        oracle = _apply_random_ops(cluster, seed=301, num_ops=1500)
        for user_index in range(15):
            value = f"u{user_index:03d}"
            got = [(r.seq, r.key) for r in cluster.lookup(
                "UserID", value, early_termination=False)]
            assert got == _oracle_lookup(oracle, value), (scope, value)
        cluster.close()

    def test_top_k_exact_across_shards(self, scope):
        cluster = self._cluster(scope)
        oracle = _apply_random_ops(cluster, seed=302, num_ops=1200)
        for user_index in range(0, 15, 3):
            value = f"u{user_index:03d}"
            got = [(r.seq, r.key) for r in cluster.lookup(
                "UserID", value, k=5, early_termination=False)]
            assert got == _oracle_lookup(oracle, value)[:5], (scope, value)
        cluster.close()

    def test_range_lookup_matches_oracle(self, scope):
        cluster = self._cluster(scope)
        oracle = _apply_random_ops(cluster, seed=303, num_ops=1200)
        got = [(r.seq, r.key) for r in cluster.range_lookup(
            "UserID", "u003", "u007", early_termination=False)]
        want = sorted(((seq, key) for key, (doc, seq) in oracle.items()
                       if "u003" <= doc["UserID"] <= "u007"), reverse=True)
        assert got == want
        cluster.close()

    def test_updates_move_records(self, scope):
        cluster = self._cluster(scope)
        cluster.put("k1", {"UserID": "u001"})
        cluster.put("k1", {"UserID": "u002"})
        assert cluster.lookup("UserID", "u001",
                              early_termination=False) == []
        assert [r.key for r in cluster.lookup(
            "UserID", "u002", early_termination=False)] == ["k1"]
        cluster.close()


class TestFanOut:
    def test_local_lookup_contacts_every_shard(self):
        cluster = _local_cluster(num_shards=6)
        _apply_random_ops(cluster, seed=304, num_ops=300)
        cluster.data_shards_contacted = 0
        cluster.lookup("UserID", "u001", k=5)
        assert cluster.data_shards_contacted == 6
        cluster.close()

    def test_global_lookup_contacts_one_index_shard(self):
        cluster = _global_cluster(num_shards=6)
        _apply_random_ops(cluster, seed=305, num_ops=300)
        gsi = cluster.global_indexes["UserID"]
        gsi.shards_contacted = 0
        cluster.data_shards_contacted = 0
        results = cluster.lookup("UserID", "u001", k=5)
        assert gsi.shards_contacted == 1
        # Data-shard GETs only for validation of the returned candidates.
        assert cluster.data_shards_contacted <= max(5, len(results) + 3)
        cluster.close()

    def test_global_range_scatters_index_ring(self):
        cluster = _global_cluster(num_shards=4)
        _apply_random_ops(cluster, seed=306, num_ops=300)
        gsi = cluster.global_indexes["UserID"]
        gsi.shards_contacted = 0
        cluster.range_lookup("UserID", "u000", "u005", k=5)
        assert gsi.shards_contacted == len(gsi.shards)
        cluster.close()


@pytest.mark.parametrize("scope", ["local", "global"])
@pytest.mark.parametrize("k", [0, True, 2.5, "3"])
def test_k_that_is_not_a_positive_int_is_refused(scope, k):
    cluster = _local_cluster() if scope == "local" else _global_cluster()
    for i in range(5):
        cluster.put(f"k{i}", {"UserID": "u001"})
    with pytest.raises(InvalidArgumentError, match="k must be"):
        cluster.lookup("UserID", "u001", k=k)
    with pytest.raises(InvalidArgumentError, match="k must be"):
        cluster.range_lookup("UserID", "u000", "u002", k=k)
    assert len(cluster.lookup("UserID", "u001", k=2)) == 2
    cluster.close()


class TestGlobalIndexMaintenance:
    def test_deletes_clean_global_index(self):
        cluster = _global_cluster()
        cluster.put("k1", {"UserID": "u001"})
        cluster.put("k2", {"UserID": "u001"})
        cluster.delete("k1")
        assert [r.key for r in cluster.lookup(
            "UserID", "u001", early_termination=False)] == ["k2"]
        cluster.close()

    def test_total_size_includes_gsi(self):
        cluster = _global_cluster()
        _apply_random_ops(cluster, seed=307, num_ops=500)
        for shard in cluster.data_shards:
            shard.flush()
        for index in cluster.global_indexes.values():
            for lazy in index.shards:
                lazy.flush()
        assert cluster.total_size() > 0
        assert cluster.global_indexes["UserID"].size_bytes() > 0
        cluster.close()


class TestWritePathSequenceAttribution:
    def test_delete_returns_the_tombstones_own_seq(self):
        """The GSI deletion marker must carry the tombstone's sequence.

        The old code read ``versions.last_sequence`` after the shard
        delete returned; a concurrent writer committing on the same shard
        in that window would stamp the marker with *its* sequence.  The
        racer below commits inside exactly that window.
        """
        cluster = _global_cluster(num_shards=1)
        cluster.put("k1", {"UserID": "u001"})
        shard = cluster.data_shards[0]
        gsi = cluster.global_indexes["UserID"]

        marker_seqs = []
        real_on_delete = gsi.on_delete
        gsi.on_delete = lambda key, old, seq: (
            marker_seqs.append(seq), real_on_delete(key, old, seq))

        racer_seqs = []
        real_delete = shard.delete

        def racing_delete(key_bytes, on_commit=None):
            seq = real_delete(key_bytes, on_commit=on_commit)
            # A concurrent writer lands on the same shard before the
            # router gets to look at anything else.
            racer_seqs.append(shard.put(b"racer", {"UserID": "u002"}))
            return seq

        shard.delete = racing_delete
        try:
            del_seq = cluster.delete("k1")
        finally:
            shard.delete = real_delete
            gsi.on_delete = real_on_delete

        assert racer_seqs and del_seq < racer_seqs[0]
        assert marker_seqs == [del_seq]
        assert cluster.lookup("UserID", "u001",
                              early_termination=False) == []
        cluster.close()

    def test_put_and_delete_return_monotone_global_seqs(self):
        cluster = _global_cluster(num_shards=4)
        seqs = [cluster.put(f"m{i}", {"UserID": "u001"}) for i in range(20)]
        seqs.extend(cluster.delete(f"m{i}") for i in range(0, 20, 2))
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        cluster.close()


class TestGlobalIndexFaultContainment:
    def _arm_one_fault(self, gsi, method_name):
        """Make the next ``on_put``/``on_delete`` on the ring raise once."""
        real = getattr(gsi, method_name)
        armed = {"on": True}

        def flaky(key, doc, seq):
            if armed["on"]:
                armed["on"] = False
                raise RuntimeError("simulated index-shard outage")
            real(key, doc, seq)

        setattr(gsi, method_name, flaky)
        return armed

    def test_mid_put_fault_never_yields_wrong_lookups(self):
        cluster = _global_cluster()
        oracle = _apply_random_ops(cluster, seed=401, num_ops=200)
        gsi = cluster.global_indexes["UserID"]
        self._arm_one_fault(gsi, "on_put")

        with pytest.raises(RuntimeError, match="outage"):
            cluster.put("t99998", {"UserID": "u000"})
        # The record is durable — the data shard committed first — and
        # the stale ring is flagged rather than silently wrong.
        assert cluster.get("t99998") == {"UserID": "u000"}
        assert cluster.dirty_global_indexes() == ["UserID"]

        # Writes while dirty skip the ring (the rebuild replays them).
        t9_seq = cluster.put("t99999", {"UserID": "u001"})
        cluster.delete("t99998")
        assert cluster.dirty_global_indexes() == ["UserID"]
        oracle.pop("t99998", None)
        oracle["t99999"] = ({"UserID": "u001"}, t9_seq)

        # The first query heals the ring; results must match the oracle
        # exactly — never the pre-fault contents.
        for user in ("u000", "u001", "u007"):
            results = cluster.lookup("UserID", user,
                                     early_termination=False)
            expected = [key for _seq, key in _oracle_lookup(oracle, user)]
            assert [r.key for r in results] == expected, user
        assert cluster.dirty_global_indexes() == []
        cluster.close()

    def test_mid_delete_fault_is_contained_and_healed(self):
        cluster = _global_cluster(num_shards=2)
        for i in range(10):
            cluster.put(f"d{i}", {"UserID": "u001"})
        gsi = cluster.global_indexes["UserID"]
        self._arm_one_fault(gsi, "on_delete")

        with pytest.raises(RuntimeError, match="outage"):
            cluster.delete("d3")
        assert cluster.get("d3") is None  # tombstone committed
        assert cluster.dirty_global_indexes() == ["UserID"]

        healed = cluster.heal_indexes()
        assert healed["global:UserID"] == 9
        assert cluster.dirty_global_indexes() == []
        keys = {r.key for r in cluster.lookup("UserID", "u001",
                                              early_termination=False)}
        assert keys == {f"d{i}" for i in range(10) if i != 3}
        cluster.close()

    def test_explicit_rebuild_matches_scratch_ring(self):
        cluster = _global_cluster()
        oracle = _apply_random_ops(cluster, seed=402, num_ops=300)
        replayed = cluster.rebuild_global_index("UserID")
        assert replayed == len(oracle)
        for user in ("u000", "u004", "u011"):
            expected = [key for _seq, key in _oracle_lookup(oracle, user)]
            results = cluster.lookup("UserID", user, early_termination=False)
            assert [r.key for r in results] == expected
        cluster.close()

    def test_rebuilt_ring_answers_like_the_exhaustive_walk(self):
        """Keys descend while sequences ascend.  A rebuild that replayed
        the shards in key order put the newest postings deepest, and K=3
        answered ``k00572…`` for u2, whose newest records are
        ``k00002, k00012, k00022``."""
        cluster = ShardedDB.open_memory(
            num_shards=2, global_indexes=("UserID",),
            options=Options(block_size=512, sstable_target_size=2 * 1024,
                            memtable_budget=2 * 1024,
                            l1_target_size=2 * 1024))
        for i in reversed(range(800)):
            cluster.put(f"k{i:05d}", {"UserID": f"u{i % 10}"})
        assert cluster.rebuild_global_index("UserID") == 800
        for user in range(10):
            want = cluster.lookup("UserID", f"u{user}", 3,
                                  early_termination=False)
            assert [r.key for r in want] == [
                f"k{n:05d}" for n in (user, user + 10, user + 20)]
            assert cluster.lookup("UserID", f"u{user}", 3) == want
        cluster.close()

    def test_rebuild_unknown_attribute_rejected(self):
        cluster = _global_cluster()
        with pytest.raises(InvalidArgumentError):
            cluster.rebuild_global_index("Nope")
        cluster.close()
