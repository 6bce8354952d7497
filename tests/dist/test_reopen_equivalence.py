"""Reopen-after-split equivalence: the durable-topology payoff.

Before the CLUSTER manifest, a durable cluster that split a shard and
then reopened came back at the *base* shard count — moved keys silently
vanished (the DESIGN.md §12 caveat).  These tests pin the fix: for every
index kind, a cluster that splits under load, closes, and reopens
through the manifest answers every query identically to the live
cluster it was, and its durable stats advertise the reopened topology.
"""

import pytest

from repro.core.base import IndexKind
from repro.dist.cluster import ShardedDB
from repro.lsm.vfs import MemoryVFS

from tests.dist.test_equivalence import ALL_KINDS, _answers, _apply_workload, \
    _options


def _durable_factory():
    """A vfs_factory whose MemoryVFS instances survive cluster close —
    the in-memory stand-in for disks that outlive the process."""
    stores = {}

    def factory(shard_id, replica_id):
        return stores.setdefault((shard_id, replica_id), MemoryVFS())

    return factory


def _open(factory, meta, kind=None, **kwargs):
    local = {"UserID": kind} if kind is not None else None
    return ShardedDB.open(factory, num_shards=2, replication_factor=1,
                          local_indexes=local, options=_options(),
                          meta_vfs=meta, **kwargs)


class TestReopenAfterSplit:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_reopen_matches_live_cluster_for_every_kind(self, kind):
        factory = _durable_factory()
        meta = MemoryVFS()
        cluster = _open(factory, meta, kind)
        _apply_workload(cluster, seed=5, num_ops=160)
        cluster.split_shard(0)
        _apply_workload(cluster, seed=6, num_ops=80)
        expected = _answers(cluster)
        shards_before = len(cluster.data_shards)
        manifest_before = cluster.manifest
        cluster.close()

        # Reopen through the manifest alone: topology arguments are
        # deliberately wrong/absent and must be overridden.
        reopened = ShardedDB.open(factory, num_shards=2,
                                  options=_options(), meta_vfs=meta)
        try:
            assert len(reopened.data_shards) == shards_before == 3
            assert reopened.ring.splits == ((0, 2),)
            assert reopened.manifest == manifest_before
            assert _answers(reopened) == expected
            report = reopened.verify_integrity()
            assert all(r.ok for r in report.values())
        finally:
            reopened.close()

    def test_reopen_without_manifest_still_loses_splits(self):
        """The §12 failure mode, kept as a contrast pin: no meta_vfs, no
        durable topology — reopen lands on the base ring and the moved
        keys are unreachable.  (This is what the manifest exists to fix.)"""
        factory = _durable_factory()
        cluster = _open(factory, meta=None, kind=IndexKind.LAZY)
        _apply_workload(cluster, seed=5, num_ops=160)
        cluster.split_shard(0)
        live = dict(cluster.scan())
        cluster.close()
        reopened = _open(factory, meta=None, kind=IndexKind.LAZY)
        try:
            assert len(reopened.data_shards) == 2
            visible = dict(reopened.scan())
            assert set(visible) < set(live)  # moved keys are gone
        finally:
            reopened.close()

    @pytest.mark.parametrize("shape", ["hash", "range"])
    def test_global_index_shape_survives_reopen(self, shape):
        factory = _durable_factory()
        meta = MemoryVFS()
        kwargs = {"global_indexes": ("UserID",)}
        if shape == "range":
            kwargs["global_split_points"] = {"UserID": ["u003", "u006"]}
        cluster = ShardedDB.open(factory, num_shards=2,
                                 replication_factor=1, options=_options(),
                                 meta_vfs=meta, **kwargs)
        _apply_workload(cluster, seed=11, num_ops=160)
        cluster.split_shard(0)
        expected = _answers(cluster)
        expected_partitioners = [
            type(p).__name__ for p in
            [cluster.global_indexes["UserID"].partitioner]]
        cluster.close()

        reopened = ShardedDB.open(factory, options=_options(), meta_vfs=meta)
        try:
            assert tuple(reopened.global_indexes) == ("UserID",)
            got_partitioners = [
                type(reopened.global_indexes["UserID"].partitioner).__name__]
            assert got_partitioners == expected_partitioners
            assert _answers(reopened) == expected
        finally:
            reopened.close()

    def test_second_reopen_is_stable(self):
        """Reopening twice (no writes in between) keeps epoch, topology
        and answers identical — recovery is idempotent."""
        factory = _durable_factory()
        meta = MemoryVFS()
        cluster = _open(factory, meta, IndexKind.LAZY)
        _apply_workload(cluster, seed=2, num_ops=120)
        cluster.split_shard(0)
        expected = _answers(cluster)
        cluster.close()

        first = ShardedDB.open(factory, options=_options(), meta_vfs=meta)
        epoch = first.stats()["topology"]["epoch"]
        assert _answers(first) == expected
        first.close()

        second = ShardedDB.open(factory, options=_options(), meta_vfs=meta)
        try:
            assert second.stats()["topology"]["epoch"] == epoch
            assert _answers(second) == expected
        finally:
            second.close()

    def test_stats_report_durable_topology(self):
        factory = _durable_factory()
        meta = MemoryVFS()
        cluster = _open(factory, meta, IndexKind.LAZY)
        try:
            topology = cluster.stats()["topology"]
            assert topology["durable"] is True
            assert topology["in_flight"] is None
            assert topology["pending_cleanup"] is False
        finally:
            cluster.close()
        ephemeral = ShardedDB.open_memory(num_shards=2, options=_options())
        try:
            assert ephemeral.stats()["topology"] is None
        finally:
            ephemeral.close()
