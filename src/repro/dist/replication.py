"""N-way shard replication by shipping the committed write.

A :class:`ReplicaSet` is one logical shard realised as ``replication_factor``
full copies of a :class:`~repro.core.database.SecondaryIndexedDB`.  Writes
fan out synchronously: the first live replica (the *leader* for that
operation) runs the write, index maintenance and all, drawing its sequence
from the cluster oracle, and commits it as one stamped
:class:`~repro.lsm.batch.WriteBatch` — the record and every index entry.
Every follower applies that batch at the leader's sequence
(:meth:`SecondaryIndexedDB.apply_committed`): no oracle draw, no
maintenance read, no index logic.  Every write therefore lands the same
on every copy, sequence included: even a follower whose contents drifted
stores the leader's index entries, not ones computed from its own state
(anti-entropy still finds and reseeds the drifted records).

Reads are served by the first live replica and fail over past downed ones.
A replica that was down while writes were acked comes back ``stale``;
read-repair reseeds it from the leader via the checkpoint machinery
(:meth:`SecondaryIndexedDB.checkpoint` copies immutable SSTables plus a
fresh self-contained manifest) before it serves again.

A live split (:mod:`repro.dist.migration`) replays its journaled tail
through the same fan-out loop with the write's sequence fixed: the
destination's leader re-executes the write at the source's sequence, so
cross-shard top-K merges stay exact through a split, and its followers
apply that leader's batch.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Any, Callable, Mapping

from repro.core.base import IndexKind, LookupResult, Owns
from repro.core.database import SecondaryIndexedDB
from repro.core.records import Document
from repro.core.topk import TopKBySeq
from repro.lsm.errors import InvalidArgumentError, LSMError
from repro.lsm.options import Options
from repro.lsm.vfs import VFS

logger = logging.getLogger(__name__)

#: Replica lifecycle states.
UP = "up"
DOWN = "down"
STALE = "stale"


class ReplicationError(LSMError):
    """Base class for replication failures."""


class NoReplicaError(ReplicationError):
    """Every replica of a shard is down; the operation cannot be acked."""


def purge_files(vfs: VFS, name: str) -> None:
    """Delete every file of the shard copy ``name`` on ``vfs`` (other
    shards — and the cluster manifest — may share the filesystem)."""
    for file_name in list(vfs.list_dir(name + "/")):
        vfs.delete_if_exists(file_name)


class Replica:
    """One physical copy of a shard: a database plus its lifecycle state."""

    __slots__ = ("replica_id", "vfs", "db", "state", "applied")

    def __init__(self, replica_id: int, vfs: VFS | None,
                 db: SecondaryIndexedDB) -> None:
        self.replica_id = replica_id
        #: The replica's private filesystem (``None`` for the RF=1
        #: in-memory layout, which cannot be killed and revived).
        self.vfs = vfs
        self.db = db
        self.state = UP
        #: Group operations this replica has applied (staleness bookkeeping).
        self.applied = 0


class ReplicaSet:
    """``replication_factor`` synchronous copies of one logical shard.

    Duck-types the slice of :class:`SecondaryIndexedDB` the cluster facade
    uses (put/get/delete/lookup/range_lookup/scan/heal_indexes/...), so
    ``ShardedDB`` routes to replica groups exactly as it used to route to
    bare shards.
    """

    def __init__(self, shard_id: int, name: str, replicas: list[Replica],
                 indexes: Mapping[str, IndexKind], options: Options,
                 step_hook: Callable[[str], None] | None = None) -> None:
        self.shard_id = shard_id
        self.name = name
        self.replicas = replicas
        self.indexes = dict(indexes)
        self.options = options
        self.step_hook = step_hook
        #: Group write operations acked so far.
        self.ops_applied = 0
        #: Reads that had to route past a downed first replica.
        self.failover_reads = 0
        #: Stale replicas reseeded on the read path.
        self.read_repairs = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def open_replicated(cls, shard_id: int, vfs_list: list[VFS | None],
                        indexes: Mapping[str, IndexKind], options: Options,
                        step_hook: Callable[[str], None] | None = None,
                        name: str | None = None) -> "ReplicaSet":
        """Open one replica per VFS (shared by that replica's tables so the
        whole copy can be checkpoint-reseeded and reopened).  A VFS that
        already holds a checkpoint recovers it — migration uses this to
        open destination replicas over shipped SSTables.  A ``None`` VFS
        opens an in-memory replica whose index tables each sit on their
        own metered VFS (the paper's per-table I/O accounting); it cannot
        be killed and revived."""
        name = name or f"shard-{shard_id}"
        replicas = []
        for replica_id, vfs in enumerate(vfs_list):
            if vfs is None:
                db = SecondaryIndexedDB.open_memory(indexes, options, name)
            else:
                db = SecondaryIndexedDB.open(vfs, name, indexes, options)
            replicas.append(Replica(replica_id, vfs, db))
        return cls(shard_id, name, replicas, indexes, options, step_hook)

    # -- scheduling --------------------------------------------------------

    def _hook(self, label: str) -> None:
        if self.step_hook is not None:
            self.step_hook(label)

    # -- replica selection -------------------------------------------------

    def _replica(self, replica_id: int) -> Replica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise InvalidArgumentError(
            f"shard {self.shard_id} has no replica {replica_id}")

    def _serving(self) -> Replica:
        for replica in self.replicas:
            if replica.state == UP:
                if replica is not self.replicas[0]:
                    self.failover_reads += 1
                return replica
        raise NoReplicaError(
            f"shard {self.shard_id}: no live replica to serve reads")

    def _read_replica(self) -> Replica:
        for replica in self.replicas:
            if replica.state == STALE:
                self.reseed(replica)
                self.read_repairs += 1
        return self._serving()

    @property
    def primary(self):
        """The serving replica's primary table (GSI rebuild + validation)."""
        return self._serving().db.primary

    @property
    def checker(self):
        return self._serving().db.checker

    # -- write fan-out -----------------------------------------------------

    def put(self, key: bytes, document: Document,
            on_commit: Callable[[int], None] | None = None) -> int:
        return self._apply("put", key, document, hooked=True,
                           on_commit=on_commit)

    def delete(self, key: bytes,
               on_commit: Callable[[int], None] | None = None) -> int:
        return self._apply("delete", key, None, hooked=True,
                           on_commit=on_commit)

    def apply_local(self, op: str, key: bytes, document: Document | None,
                    seq: int = 0) -> int:
        """Internal write (a split's tail and cleanup, a re-routed
        straggler): fan out without yield points, so a whole batch stays
        one atomic step under the deterministic scheduler.  A nonzero
        ``seq`` fixes the write's sequence (a journaled write)."""
        return self._apply(op, key, document, hooked=False, seq=seq)

    def _apply(self, op: str, key: bytes, document: Document | None,
               hooked: bool, on_commit: Callable[[int], None] | None = None,
               seq: int = 0) -> int:
        """The one fan-out loop.  The first live replica commits the write
        (at ``seq`` if nonzero, else at a sequence it draws); every other
        live replica applies the batch it committed, at its sequence."""
        batch = None
        for replica in self.replicas:
            if replica.state != UP:
                continue
            if hooked:
                self._hook(f"repl:{op}:s{self.shard_id}:r"
                           f"{replica.replica_id}")
                if replica.state != UP:
                    continue  # killed at the yield point just above
            if batch is None:
                seq, batch = replica.db.commit(op, key, document, seq)
            else:
                replica.db.apply_committed(seq, batch)
            replica.applied += 1
        if batch is None:
            raise NoReplicaError(
                f"shard {self.shard_id}: no live replica; {op} not acked")
        self.ops_applied += 1
        if on_commit is not None:
            # Runs inside the commit's atomic chunk, *before* the ack
            # yield point: a migration journaling this write can never
            # observe a committed-but-unjournaled gap.
            on_commit(seq)
        if hooked:
            self._hook(f"repl:ack:s{self.shard_id}")
        return seq

    # -- reads -------------------------------------------------------------

    def get(self, key: bytes) -> Document | None:
        return self._read_replica().db.get(key)

    def get_many_with_seq(self, keys: list[bytes]
                          ) -> dict[bytes, tuple[bytes, int] | None]:
        return self._read_replica().db.primary.get_many_with_seq(keys)

    def lookup_into(self, attribute: str, value: Any,
                    heap: TopKBySeq[LookupResult],
                    early_termination: bool = True,
                    owns: Owns | None = None) -> None:
        self._read_replica().db.lookup_into(attribute, value, heap,
                                            early_termination, owns)

    def range_lookup(self, attribute: str, low: Any, high: Any,
                     k: int | None = None,
                     early_termination: bool = True,
                     owns: Owns | None = None) -> list[LookupResult]:
        return self._read_replica().db.range_lookup(attribute, low, high, k,
                                                    early_termination, owns)

    def scan(self, low=None, high=None):
        return self._read_replica().db.scan(low, high)

    # -- failure & repair --------------------------------------------------

    def kill(self, replica_id: int) -> None:
        """Simulate abrupt replica loss: the process dies, its filesystem
        (when it has one) keeps whatever was durably applied."""
        replica = self._replica(replica_id)
        if replica.state == DOWN:
            raise InvalidArgumentError(
                f"shard {self.shard_id} replica {replica_id} already down")
        replica.state = DOWN
        self._close_best_effort(replica)

    def revive(self, replica_id: int) -> str:
        """Restart a downed replica from its surviving files (WAL replay
        runs inside ``open``).  Returns the resulting state: ``up`` when
        it missed nothing, ``stale`` when writes were acked without it —
        a stale replica is reseeded before it serves (read repair) and
        never votes in a write fan-out."""
        replica = self._replica(replica_id)
        if replica.state != DOWN:
            raise InvalidArgumentError(
                f"shard {self.shard_id} replica {replica_id} is not down")
        if replica.vfs is None:
            raise InvalidArgumentError(
                f"shard {self.shard_id} replica {replica_id} has no "
                f"durable filesystem to revive from")
        replica.db = SecondaryIndexedDB.open(replica.vfs, self.name,
                                             self.indexes, self.options)
        replica.state = UP if replica.applied == self.ops_applied else STALE
        return replica.state

    def reseed(self, replica: Replica) -> None:
        """Rebuild one replica as a byte-faithful copy of the leader.

        The leader's checkpoint ships its immutable SSTables plus a fresh
        manifest; internal sequence numbers are preserved exactly, so the
        reseeded replica answers every query identically to the leader and
        rejoins the write fan-out with the group's applied count."""
        source = None
        for candidate in self.replicas:
            if candidate is not replica and candidate.state == UP:
                source = candidate
                break
        if source is None:
            raise NoReplicaError(
                f"shard {self.shard_id}: no live replica to reseed "
                f"replica {replica.replica_id} from")
        if replica.vfs is None:
            raise InvalidArgumentError(
                f"shard {self.shard_id} replica {replica.replica_id} has "
                f"no durable filesystem to reseed")
        if replica.state != DOWN:
            self._close_best_effort(replica)
        purge_files(replica.vfs, self.name)
        source.db.checkpoint(replica.vfs, self.name)
        replica.db = SecondaryIndexedDB.open(replica.vfs, self.name,
                                             self.indexes, self.options)
        replica.state = UP
        replica.applied = self.ops_applied

    def repair(self) -> list[int]:
        """Reseed every stale (revived-but-behind) replica; returns the
        replica ids repaired."""
        repaired = []
        for replica in self.replicas:
            if replica.state == STALE:
                self.reseed(replica)
                repaired.append(replica.replica_id)
        return repaired

    # -- anti-entropy ------------------------------------------------------

    def content_digest(self, replica: Replica) -> str:
        """Order-sensitive digest of the replica's live records + seqs."""
        hasher = hashlib.blake2b(digest_size=16)
        for key, value, seq in replica.db.primary.scan_with_seq():
            hasher.update(len(key).to_bytes(4, "big"))
            hasher.update(key)
            hasher.update(len(value).to_bytes(4, "big"))
            hasher.update(value)
            hasher.update(seq.to_bytes(8, "big"))
        return hasher.hexdigest()

    def replica_digests(self) -> dict[int, str]:
        return {replica.replica_id: self.content_digest(replica)
                for replica in self.replicas if replica.state != DOWN}

    def anti_entropy(self, block_budget: int | None = None) -> dict:
        """Scrub every live replica, then reseed any copy that diverged.

        The write-fan-out leader (first UP replica) is authoritative: its
        checkpoint overwrites any replica whose scrub found problems or
        whose content digest disagrees.  Returns a summary dict."""
        summary: dict[str, Any] = {"scrub_problems": [], "reseeded": []}
        for replica in self.replicas:
            if replica.state != UP:
                continue
            reports = self.scrub_replica(replica, block_budget)
            for table, report in reports.items():
                for problem in report.problems:
                    summary["scrub_problems"].append(
                        f"r{replica.replica_id}:{table}: {problem}")
        leader = self._serving()
        leader_digest = self.content_digest(leader)
        for replica in self.replicas:
            if replica is leader or replica.state == DOWN:
                continue
            if (replica.state == STALE
                    or replica.db.primary.quarantined_tables()
                    or self.content_digest(replica) != leader_digest):
                self.reseed(replica)
                summary["reseeded"].append(replica.replica_id)
        return summary

    def scrub_replica(self, replica: Replica,
                      block_budget: int | None = None) -> dict:
        """Run the PR 4 scrubber over one replica's tables."""
        return {label: table.scrub(block_budget)
                for label, table in replica.db.tables()}

    # -- maintenance plumbing (cluster facade surface) ---------------------

    def heal_indexes(self) -> dict[str, int]:
        healed: dict[str, int] = {}
        for replica in self.replicas:
            if replica.state != UP:
                continue
            for attribute, replayed in replica.db.heal_indexes().items():
                healed[attribute] = max(healed.get(attribute, 0), replayed)
        return healed

    def flush(self) -> None:
        for replica in self.replicas:
            if replica.state == UP:
                replica.db.flush()

    def verify_integrity(self) -> dict[str, Any]:
        """Integrity reports for every live replica's tables."""
        reports: dict[str, Any] = {}
        for replica in self.replicas:
            if replica.state == DOWN:
                continue
            for table, report in replica.db.verify_integrity().items():
                reports[f"r{replica.replica_id}:{table}"] = report
        return reports

    def total_size(self) -> int:
        return self._serving().db.total_size()

    def status(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "replicas": [{"replica_id": replica.replica_id,
                          "state": replica.state,
                          "applied": replica.applied}
                         for replica in self.replicas],
            "ops_applied": self.ops_applied,
            "failover_reads": self.failover_reads,
            "read_repairs": self.read_repairs,
        }

    def close(self) -> None:
        for replica in self.replicas:
            if replica.state == DOWN:
                continue
            self._close_best_effort(replica)

    def _close_best_effort(self, replica: Replica) -> None:
        """Close a replica that is dying, superseded or shutting down: a
        faulted copy may fail to close, and nothing waits on its answer."""
        try:
            replica.db.close()
        except Exception as exc:  # noqa: BLE001 - best-effort by design
            logger.debug("shard %s replica %s: close failed: %r",
                         self.shard_id, replica.replica_id, exc)
