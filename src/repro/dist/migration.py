"""Live shard split: ship SSTables, replay the WAL tail, flip the ring.

A :class:`ShardSplit` moves half of one shard's keyspace (chosen by
:class:`~repro.dist.partitioner.SplitHashRing`) onto a brand-new shard
while the cluster keeps serving.  The protocol is the classic
checkpoint-then-tail design, expressed as a sequence of *atomic chunks* —
the state machine only yields to the deterministic scheduler **between**
chunks, so every interleaving the drills enumerate is one the protocol
actually admits:

1. **prepare** — register with the cluster: from here on, every acked
   write whose key will move under the next ring is also appended to the
   migration journal, as the statement (op, key, document) and the
   sequence the source committed it at.
2. **copy** — checkpoint the source leader into each destination
   replica's filesystem (immutable SSTables + a fresh self-contained
   manifest; internal sequence numbers preserved exactly) and open the
   destination replica group over the shipped files.  The journal is
   cleared inside the same chunk: everything recorded so far is already
   inside the checkpoint, and everything after is exactly the WAL tail.
3. **drain** — replay the journaled tail onto the destination group: its
   leader re-executes each write at the write's own sequence (recency
   order across shards stays exact), and its followers apply that
   leader's batch.  The source's batch is not shipped: a stand-alone
   index entry is computed from the store that commits it — Eager's
   value is a whole posting list — so the source's entry would overwrite
   postings that writes made directly on the destination after the flip.
   Writers may keep appending; drain repeats until it observes an empty
   journal.
4. **flip** — replay whatever landed since the last drain, then publish
   the new ring with a single attribute assignment.  Readers route by
   whichever ring they loaded: the old ring never routes to the new
   shard, the new ring only routes moved keys there *after* the tail is
   fully applied — no read ever sees a half-moved shard.
5. **cleanup** — delete moved keys from the source and unmoved copies
   from the destination (group-level deletes, so global secondary
   indexes — which reference records by primary key, routed through the
   live ring — are untouched).

``abort()`` before the flip closes the destination group and deletes
every file it created — zero orphans is a drilled invariant.  After the
flip the split is committed; cleanup is idempotent, so a crash there is
resumed by calling :meth:`run` again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.records import Document
from repro.dist.replication import ReplicaSet, purge_files
from repro.lsm.errors import LSMError
from repro.lsm.vfs import VFS


class MigrationError(LSMError):
    """A shard split was driven outside its legal phase transitions."""


@dataclass
class JournalEntry:
    """One acked write whose key moves under the next ring."""

    op: str  # "put" | "delete"
    key: bytes
    document: Document | None
    seq: int


class ShardSplit:
    """State machine for splitting one shard onto a new one.

    Drive it with :meth:`step` (one atomic chunk per call, yield points
    between chunks) or :meth:`run` (to completion).  Constructed via
    :meth:`ShardedDB.begin_split`.
    """

    def __init__(self, cluster, source_id: int,
                 vfs_factory: Callable[[int], VFS]) -> None:
        if not 0 <= source_id < len(cluster.data_shards):
            raise MigrationError(f"no shard {source_id} to split")
        if cluster._migration is not None:
            raise MigrationError("another migration is already in flight")
        self.cluster = cluster
        self.source_id = source_id
        self.new_id = len(cluster.data_shards)
        self.dest_name = f"shard-{self.new_id}"
        self.next_ring = cluster.ring.with_split(source_id, self.new_id)
        self._vfs_factory = vfs_factory
        self.phase = "prepare"
        self.journal: list[JournalEntry] = []
        self.dest: ReplicaSet | None = None
        self.dest_vfs: list[VFS] = []
        #: Tail entries replayed onto the destination group.
        self.replayed = 0
        #: Journaled writes already inside the checkpoint (skipped).
        self.skipped = 0
        #: Highest sequence the checkpoint shipped; journal entries at or
        #: below it were committed before the copy cut and already live
        #: on the destination.
        self.copied_seq = 0
        #: Keys purged in cleanup: (from source, from destination).
        self.purged = (0, 0)

    # -- scheduling --------------------------------------------------------

    def _hook(self, chunk: str) -> None:
        step_hook = self.cluster._step_hook
        if step_hook is not None:
            step_hook(f"migrate:{chunk}:s{self.source_id}>s{self.new_id}")

    # -- journal capture (called from the cluster write path) --------------

    def observe(self, op: str, key: bytes, document: Document | None,
                shard_id: int, seq: int) -> bool:
        """Record an acked write that the next ring routes to the new
        shard.  Runs inside the write's own atomic step, after the source
        group acked.  Returns whether the write was journaled — if not,
        the caller still owns the problem of any ownership change.

        The migration stays registered (and observing) through cleanup:
        a writer that routed *before* the flip can commit *after* it, and
        its journal entry must ride the cleanup-chunk drain or the acked
        write would be purged as a stray copy."""
        if shard_id != self.source_id:
            return False
        if self.next_ring.shard_of(key) != self.new_id:
            return False
        self.journal.append(JournalEntry(op, key, document, seq))
        return True

    # -- the chunks --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next atomic chunk; returns True while unfinished."""
        if self.phase == "prepare":
            self.cluster._register_migration(self)
            self.phase = "copy"
            self._hook("prepared")
        elif self.phase == "copy":
            self._copy()
            self.phase = "drain"
            self._hook("copied")
        elif self.phase == "drain":
            if self._drain_once():
                self._hook("drained")
            else:
                self.phase = "flip"
        elif self.phase == "flip":
            self._drain_once()
            self.cluster._complete_flip(self)
            self.phase = "cleanup"
            self._hook("flipped")
        elif self.phase == "cleanup":
            self._cleanup()
            self.phase = "done"
            self._hook("cleaned")
        else:
            raise MigrationError(f"cannot step a {self.phase} migration")
        return self.phase not in ("done", "aborted")

    def run(self) -> "ShardSplit":
        while self.step():
            pass
        return self

    def _copy(self) -> None:
        source = self.cluster.data_shards[self.source_id]
        leader = source._serving()
        name = self.dest_name
        self.dest_vfs = [self._vfs_factory(replica_id) for replica_id
                         in range(self.cluster.manifest.replication_factor)]
        for vfs in self.dest_vfs:
            leader.db.checkpoint(vfs, name)
        self.dest = ReplicaSet.open_replicated(
            self.new_id, self.dest_vfs, source.indexes, source.options,
            step_hook=self.cluster._step_hook, name=name)
        # Everything journaled so far is inside the checkpoint; everything
        # after this (atomic) chunk is exactly the WAL tail.  A writer
        # parked between its commit and its journal append can still slip
        # an already-checkpointed write into the journal later, so the
        # drains also filter by the checkpoint's sequence watermark.
        self.journal.clear()
        self.copied_seq = self.dest.primary.versions.last_sequence

    def _drain_once(self) -> bool:
        entries = self.journal
        self.journal = []
        for entry in entries:
            if entry.seq <= self.copied_seq:
                self.skipped += 1
                continue
            self.dest.apply_local(entry.op, entry.key, entry.document,
                                  entry.seq)
            self.replayed += 1
        return bool(entries)

    def flush_tail(self) -> None:
        """Drain the journal tail immediately (no yield points).

        Called from the cluster write path before a post-flip write lands
        directly on the destination: the tail holds older sequence
        numbers and must apply first or the engine's monotonic-sequence
        guard would (rightly) reject the later replay."""
        if self.dest is not None and self.phase in ("drain", "flip",
                                                    "cleanup"):
            self._drain_once()

    def _cleanup(self) -> None:
        # Writers that routed to the source before the flip may have
        # committed (and journaled) after the flip-chunk drain; replay
        # that last tail before deciding what is a purgeable stray.
        self._drain_once()
        self.purged = self.cluster._purge_strays((self.source_id,
                                                   self.new_id))
        # Only now stop observing: any later straggler is re-routed by
        # the write path itself (it sees no in-flight migration).
        self.cluster._unregister_migration(self)
        # Durable last: everything cleanup does is idempotent, so a crash
        # before this line just re-runs the purge on reopen.
        self.cluster._save_topology(pending_cleanup=False)

    # -- failure handling --------------------------------------------------

    def abort(self) -> None:
        """Undo an un-flipped split: unregister, close the destination
        group and delete every file it created.  Call after rebooting a
        crash-faulted destination filesystem; illegal once the ring has
        flipped (the split is committed — resume :meth:`run` instead)."""
        if self.phase in ("cleanup", "done"):
            raise MigrationError(
                "the ring has flipped; the split is committed — resume "
                "run() to finish cleanup instead of aborting")
        if self.phase != "aborted":
            self.cluster._unregister_migration(self)
        if self.dest is not None:
            self.dest.close()
            self.dest = None
        # Every file the split created lives under the destination
        # shard's name prefix.
        for vfs in self.dest_vfs:
            purge_files(vfs, self.dest_name)
        self.journal.clear()
        if self.phase != "aborted":
            # Files first, intent last: a crash in between re-purges the
            # (now empty) prefix on reopen, never orphans it.
            self.cluster._save_topology(in_flight=None)
        self.phase = "aborted"

    def orphan_files(self) -> list[str]:
        """Files still present under the destination shard's prefix (must
        be empty after an abort — the drilled zero-orphans invariant)."""
        leftovers: list[str] = []
        for replica_id, vfs in enumerate(self.dest_vfs):
            for name in vfs.list_dir(self.dest_name + "/"):
                leftovers.append(f"r{replica_id}:{name}")
        return leftovers

    def status(self) -> dict[str, Any]:
        return {
            "source": self.source_id,
            "new_shard": self.new_id,
            "phase": self.phase,
            "journal_depth": len(self.journal),
            "replayed": self.replayed,
            "purged": self.purged,
        }
