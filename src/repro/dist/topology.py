"""The cluster's topology: the CLUSTER manifest.

Everything *inside* a shard replica is durable on its own — each engine
persists its MANIFEST and WAL and recovers them on open.
:class:`ClusterManifest` describes what sits *above* the shards — the
:class:`~repro.dist.partitioner.SplitHashRing` split list, the
replica-set shape, the local index kinds and the global-index ring
shapes — and is the only thing :class:`~repro.dist.cluster.ShardedDB` is
built from: ``open`` arguments are turned into one, a CLUSTER file is
decoded into one, and both pass the same validation
(:meth:`ClusterManifest.__post_init__`).

On disk it is a tiny JSON document with a CRC32 header, written with the
same atomic temp-file + fsync + rename protocol as the shard-level
``CURRENT`` file (§6) — a crash during any write leaves either the old
or the new manifest, never a torn one.  The manifest also carries the
two-phase split protocol:

* ``in_flight = [source, new_id]`` is written **before** the first
  destination file exists (split *intent*).  A reopen that finds an
  intent knows the flip never committed: it deletes every file under the
  destination shard's prefix and lands on the old topology with zero
  orphans.
* the flip chunk rewrites the manifest with the split appended to
  ``splits`` and ``pending_cleanup = true`` — the durable commit point
  of the migration.  A reopen that finds a committed-but-unclean split
  lands on the new topology and re-runs the (idempotent) stray purge.
* cleanup's last act clears ``pending_cleanup``.

``epoch`` increments on every evolve, so drills (and operators reading
the file) can order topology generations.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.base import IndexKind
from repro.dist.partitioner import SplitHashRing, partitioner_from_shape
from repro.lsm.errors import CorruptionError, InvalidArgumentError
from repro.lsm.vfs import VFS, Category

__all__ = [
    "CLUSTER_FILE",
    "CLUSTER_TMP_FILE",
    "ClusterManifest",
    "load_cluster_manifest",
]

#: The durable topology file, beside the shard directories.
CLUSTER_FILE = "CLUSTER"

#: Scratch file for atomic installation (may survive a crash; the next
#: save truncates it, and :func:`load_cluster_manifest` ignores it).
CLUSTER_TMP_FILE = "CLUSTER.tmp"

_MAGIC = "repro-cluster-v1"


@dataclass(frozen=True)
class ClusterManifest:
    """One durable snapshot of the cluster's topology.

    Immutable — every change goes through :meth:`evolve` (which bumps
    the epoch) and :meth:`save` (which installs atomically).
    """

    base_shards: int
    replication_factor: int = 1
    epoch: int = 1
    #: Committed ring splits, in order: ``((parent, new_id), ...)``.
    splits: tuple[tuple[int, int], ...] = ()
    #: A split whose intent is durable but whose flip is not:
    #: ``(source_id, new_id)`` or ``None``.
    in_flight: tuple[int, int] | None = None
    #: The last committed split's stray purge has not finished.
    pending_cleanup: bool = False
    #: Local index shapes: ``{attribute: kind_value}``.
    local_indexes: Mapping[str, str] = field(default_factory=dict)
    #: Global index ring shapes: ``{attribute: {"scheme": "hash",
    #: "shards": N} | {"scheme": "range", "split_points": [hex, ...]}}``.
    global_indexes: Mapping[str, Mapping[str, Any]] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject a topology no cluster can be built from.  Arguments
        (``ShardedDB.open``) and file (:meth:`decode`, which re-raises as
        ``CorruptionError``) share this one check."""
        if self.replication_factor < 1:
            raise InvalidArgumentError("replication_factor must be >= 1")
        try:
            SplitHashRing.from_state(self.base_shards, self.splits)
            for kind in self.local_indexes.values():
                IndexKind(kind)
            for shape in self.global_indexes.values():
                partitioner_from_shape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"invalid cluster topology: {exc!r}") from exc

    @property
    def num_shards(self) -> int:
        """Data shards in the committed topology."""
        return self.base_shards + len(self.splits)

    def evolve(self, **changes: Any) -> "ClusterManifest":
        """The next topology generation: ``changes`` applied, epoch + 1."""
        return replace(self, epoch=self.epoch + 1, **changes)

    # -- encoding ----------------------------------------------------------

    def encode(self) -> bytes:
        """Self-checking byte form: one CRC header line + sorted JSON."""
        doc = {
            "magic": _MAGIC,
            "epoch": self.epoch,
            "base_shards": self.base_shards,
            "replication_factor": self.replication_factor,
            "splits": [list(pair) for pair in self.splits],
            "in_flight": list(self.in_flight) if self.in_flight else None,
            "pending_cleanup": self.pending_cleanup,
            "local_indexes": dict(sorted(self.local_indexes.items())),
            "global_indexes": {
                attribute: dict(shape) for attribute, shape
                in sorted(self.global_indexes.items())},
        }
        payload = json.dumps(doc, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        header = f"crc32:{zlib.crc32(payload):08x}\n".encode("ascii")
        return header + payload

    @classmethod
    def decode(cls, data: bytes) -> "ClusterManifest":
        """Parse and CRC-verify one manifest; raises CorruptionError."""
        newline = data.find(b"\n")
        if newline < 0 or not data.startswith(b"crc32:"):
            raise CorruptionError("cluster manifest missing CRC header")
        try:
            expected = int(data[6:newline], 16)
        except ValueError as exc:
            raise CorruptionError(
                f"malformed cluster manifest CRC: {data[:newline]!r}"
            ) from exc
        payload = data[newline + 1:]
        actual = zlib.crc32(payload)
        if actual != expected:
            raise CorruptionError(
                f"cluster manifest CRC mismatch: stored {expected:08x}, "
                f"computed {actual:08x}")
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise CorruptionError(
                f"cluster manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("magic") != _MAGIC:
            raise CorruptionError(
                f"cluster manifest has wrong magic: {doc.get('magic')!r}"
                if isinstance(doc, dict) else "cluster manifest not a dict")
        try:
            in_flight = doc["in_flight"]
            return cls(
                base_shards=int(doc["base_shards"]),
                replication_factor=int(doc["replication_factor"]),
                epoch=int(doc["epoch"]),
                splits=tuple((int(parent), int(new_id))
                             for parent, new_id in doc["splits"]),
                in_flight=(int(in_flight[0]), int(in_flight[1]))
                if in_flight else None,
                pending_cleanup=bool(doc["pending_cleanup"]),
                local_indexes=dict(doc["local_indexes"]),
                global_indexes={attribute: dict(shape) for attribute, shape
                                in doc["global_indexes"].items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(
                f"cluster manifest field error: {exc!r}") from exc

    # -- durable installation ----------------------------------------------

    def save(self, vfs: VFS) -> None:
        """Install this manifest atomically.

        Same protocol as the shard-level ``CURRENT`` (§6): write and sync
        the full content to ``CLUSTER.tmp``, then rename over ``CLUSTER``.
        A crash at any of the four mutating operations leaves either the
        previous manifest or this one — the topology drill enumerates
        every one of those crash points.
        """
        handle = vfs.create(CLUSTER_TMP_FILE)
        try:
            handle.append(self.encode(), Category.MANIFEST)
            handle.sync()
        finally:
            handle.close()
        vfs.rename(CLUSTER_TMP_FILE, CLUSTER_FILE)


def load_cluster_manifest(vfs: VFS) -> ClusterManifest | None:
    """The durable topology, or ``None`` for a fresh cluster directory.

    A stranded ``CLUSTER.tmp`` (crash between sync and rename) is
    deleted — its content was never installed.
    """
    if vfs.exists(CLUSTER_TMP_FILE):
        vfs.delete_if_exists(CLUSTER_TMP_FILE)
    if not vfs.exists(CLUSTER_FILE):
        return None
    return ClusterManifest.decode(
        vfs.read_whole(CLUSTER_FILE, Category.MANIFEST))
