"""Unit tests for the durable CLUSTER manifest (repro.dist.topology)."""

import pytest

from repro.core.base import IndexKind
from repro.dist import ShardedDB
from repro.dist.topology import (
    CLUSTER_FILE,
    CLUSTER_TMP_FILE,
    ClusterManifest,
    load_cluster_manifest,
)
from repro.lsm.errors import CorruptionError, InvalidArgumentError
from repro.lsm.vfs import Category, MemoryVFS


def _full_manifest():
    return ClusterManifest(
        base_shards=4,
        replication_factor=3,
        epoch=9,
        splits=((0, 4), (2, 5)),
        in_flight=(1, 6),
        pending_cleanup=True,
        local_indexes={"UserID": "lazy", "Score": "eager"},
        global_indexes={
            "UserID": {"scheme": "hash", "shards": 2},
            "Score": {"scheme": "range",
                      "split_points": [b"m".hex(), b"t".hex()]},
        })


class TestEncoding:
    def test_round_trip_all_fields(self):
        manifest = _full_manifest()
        decoded = ClusterManifest.decode(manifest.encode())
        assert decoded == manifest

    def test_round_trip_defaults(self):
        manifest = ClusterManifest(base_shards=2)
        decoded = ClusterManifest.decode(manifest.encode())
        assert decoded == manifest
        assert decoded.splits == ()
        assert decoded.in_flight is None
        assert decoded.pending_cleanup is False

    def test_num_shards_counts_committed_splits_only(self):
        manifest = _full_manifest()
        assert manifest.num_shards == 4 + 2  # in_flight does not count

    def test_evolve_bumps_epoch_and_applies_changes(self):
        manifest = ClusterManifest(base_shards=2)
        evolved = manifest.evolve(splits=((0, 2),), pending_cleanup=True)
        assert evolved.epoch == manifest.epoch + 1
        assert evolved.splits == ((0, 2),)
        assert evolved.pending_cleanup is True
        # The original is untouched (frozen dataclass).
        assert manifest.splits == ()

    def test_encoding_is_deterministic(self):
        assert _full_manifest().encode() == _full_manifest().encode()


class TestCorruptionDetection:
    def test_flipped_payload_byte_fails_crc(self):
        data = bytearray(_full_manifest().encode())
        data[-3] ^= 0x40
        with pytest.raises(CorruptionError, match="CRC mismatch"):
            ClusterManifest.decode(bytes(data))

    def test_missing_header(self):
        with pytest.raises(CorruptionError, match="CRC header"):
            ClusterManifest.decode(b'{"magic":"repro-cluster-v1"}')

    def test_malformed_crc_value(self):
        with pytest.raises(CorruptionError, match="malformed"):
            ClusterManifest.decode(b"crc32:zzzzzzzz\n{}")

    def test_wrong_magic(self):
        import json
        import zlib
        payload = json.dumps({"magic": "not-a-cluster"}).encode()
        data = b"crc32:%08x\n" % zlib.crc32(payload) + payload
        with pytest.raises(CorruptionError, match="magic"):
            ClusterManifest.decode(data)

    def test_valid_crc_but_missing_field(self):
        import json
        import zlib
        payload = json.dumps({"magic": "repro-cluster-v1",
                              "epoch": 1}).encode()
        data = b"crc32:%08x\n" % zlib.crc32(payload) + payload
        with pytest.raises(CorruptionError, match="field error"):
            ClusterManifest.decode(data)

    def test_not_json(self):
        import zlib
        payload = b"\x00\x01\x02"
        data = b"crc32:%08x\n" % zlib.crc32(payload) + payload
        with pytest.raises(CorruptionError, match="not valid JSON"):
            ClusterManifest.decode(data)


class TestDurableInstallation:
    def test_save_then_load(self):
        vfs = MemoryVFS()
        manifest = _full_manifest()
        manifest.save(vfs)
        assert load_cluster_manifest(vfs) == manifest
        # Nothing but the manifest itself is left behind.
        assert vfs.exists(CLUSTER_FILE)
        assert not vfs.exists(CLUSTER_TMP_FILE)

    def test_load_fresh_vfs_returns_none(self):
        assert load_cluster_manifest(MemoryVFS()) is None

    def test_save_overwrites_previous_generation(self):
        vfs = MemoryVFS()
        first = ClusterManifest(base_shards=2)
        first.save(vfs)
        second = first.evolve(splits=((0, 2),))
        second.save(vfs)
        assert load_cluster_manifest(vfs) == second

    def test_stranded_tmp_is_ignored_and_deleted(self):
        vfs = MemoryVFS()
        installed = ClusterManifest(base_shards=2)
        installed.save(vfs)
        # A crash between sync and rename leaves CLUSTER.tmp behind;
        # its content was never installed, so load must ignore it.
        stranded = vfs.create(CLUSTER_TMP_FILE)
        stranded.append(installed.evolve(splits=((0, 2),)).encode(),
                        Category.MANIFEST)
        stranded.close()
        assert load_cluster_manifest(vfs) == installed
        assert not vfs.exists(CLUSTER_TMP_FILE)

    def test_stranded_tmp_alone_means_fresh_cluster(self):
        vfs = MemoryVFS()
        stranded = vfs.create(CLUSTER_TMP_FILE)
        stranded.append(b"torn garbage", Category.MANIFEST)
        stranded.close()
        assert load_cluster_manifest(vfs) is None
        assert not vfs.exists(CLUSTER_TMP_FILE)


def _crc_valid_file(**overrides) -> bytes:
    """A CLUSTER file whose CRC checks out but whose fields were edited."""
    import json
    import zlib
    payload = ClusterManifest(base_shards=2).encode().split(b"\n", 1)[1]
    doc = {**json.loads(payload), **overrides}
    payload = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode()
    return b"crc32:%08x\n" % zlib.crc32(payload) + payload


class TestSemanticValidation:
    """A CRC-valid manifest no cluster can be built from is corruption —
    not a bare KeyError/ValueError out of ``ShardedDB.open``."""

    @pytest.mark.parametrize("overrides", [
        {"global_indexes": {"UserID": {"scheme": "bogus"}}},
        {"global_indexes": {"UserID": {"scheme": "range"}}},
        {"splits": [[7, 2]]},
        {"local_indexes": {"UserID": "btree"}},
        {"replication_factor": 0},
    ], ids=["unknown-scheme", "range-without-points", "split-of-no-shard",
            "unknown-index-kind", "zero-replicas"])
    def test_open_reports_corruption(self, overrides):
        meta = MemoryVFS()
        meta.write_whole(CLUSTER_FILE, _crc_valid_file(**overrides))
        with pytest.raises(CorruptionError, match="field error"):
            ShardedDB.open(lambda _shard, _replica: MemoryVFS(),
                           meta_vfs=meta)

    def test_same_rules_reject_arguments(self):
        with pytest.raises(InvalidArgumentError):
            ClusterManifest(base_shards=2, replication_factor=0)
        with pytest.raises(InvalidArgumentError):
            ClusterManifest(base_shards=2, splits=((7, 2),))


class TestGoldenBytes:
    """The exact CLUSTER bytes of a fresh cluster and of the same cluster
    after one split — epochs included: the number of manifest generations
    a split writes is part of the drilled protocol."""

    FRESH = (
        b'crc32:4e4bca63\n{"base_shards":2,"epoch":1,"global_indexes":'
        b'{"Time":{"scheme":"range","split_points":["6ec024000000000000",'
        b'"6ec034000000000000"]}},"in_flight":null,"local_indexes":'
        b'{"UserID":"lazy"},"magic":"repro-cluster-v1","pending_cleanup":'
        b'false,"replication_factor":2,"splits":[]}')
    SPLIT = (
        b'crc32:227beea3\n{"base_shards":2,"epoch":4,"global_indexes":'
        b'{"Time":{"scheme":"range","split_points":["6ec024000000000000",'
        b'"6ec034000000000000"]}},"in_flight":null,"local_indexes":'
        b'{"UserID":"lazy"},"magic":"repro-cluster-v1","pending_cleanup":'
        b'false,"replication_factor":2,"splits":[[0,2]]}')

    def test_fresh_and_split_cluster_files(self):
        meta = MemoryVFS()
        replicas: dict = {}

        def factory(shard_id, replica_id):
            return replicas.setdefault((shard_id, replica_id), MemoryVFS())

        cluster = ShardedDB.open(
            factory, num_shards=2, replication_factor=2,
            local_indexes={"UserID": IndexKind.LAZY},
            global_indexes=("Time",),
            global_split_points={"Time": [10, 20]}, meta_vfs=meta)
        assert meta.read_whole(CLUSTER_FILE) == self.FRESH
        cluster.split_shard()
        assert meta.read_whole(CLUSTER_FILE) == self.SPLIT
        cluster.close()

        reopened = ShardedDB.open(factory, meta_vfs=meta)
        assert reopened.manifest == ClusterManifest.decode(self.SPLIT)
        assert reopened.ring.splits == ((0, 2),)
        assert len(reopened.data_shards) == 3
        assert meta.read_whole(CLUSTER_FILE) == self.SPLIT
        reopened.close()
