"""A replicated, elastic sharded store with local or global indexes.

:class:`ShardedDB` runs N logical shards — each a
:class:`~repro.dist.replication.ReplicaSet` of ``replication_factor``
synchronous copies — behind an elastic hash ring.  Writes fan out to every
live replica of the owning shard; reads route by key and fail over past
downed replicas.  Secondary queries depend on the index scope:

* **local** — each shard indexes its own records (any of the paper's five
  techniques); LOOKUP scatters to all shards and merges top-K;
* **global** — a :class:`GlobalSecondaryIndex` ring partitioned by
  attribute value; LOOKUP touches exactly one index shard, then routes
  per-result GETs back to the data shards for validation.

Recency is globally comparable because every shard draws sequence numbers
from one :class:`SequenceOracle` (the timestamp-oracle pattern), so
cross-shard top-K merges are exact.  Only a write's leader draws: the
other replicas of its shard apply the batch it committed, at its sequence
(:mod:`repro.dist.replication`), and a live shard split
(:mod:`repro.dist.migration`) replays its journaled tail onto the new
shard at the sequences the source assigned, so recency order survives
the move.

The topology — ring, replica shape, index layout — is one value, a
:class:`~repro.dist.topology.ClusterManifest`: ``open`` loads it from the
CLUSTER file or makes it from its arguments, and the cluster is built from
it either way; every topology change (a split's intent, flip and cleanup)
is a new manifest generation.

Concurrency contract: like a single ``SecondaryIndexedDB``, the facade
expects one mutating call at a time (the network server serializes behind
its dispatch lock; the drills serialize through the DeterministicScheduler).
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.base import IndexKind, LookupResult, offer
from repro.core.database import records_by_seq
from repro.core.lazy import LazyIndex
from repro.core.posting import posting_merge_operator
from repro.core.records import (
    Document,
    attribute_of,
    decode_document,
    key_to_bytes,
)
from repro.core.topk import TopKBySeq
from repro.core.validity import ValidityChecker
from repro.dist.migration import ShardSplit
from repro.dist.partitioner import (
    HashPartitioner,
    RangePartitioner,
    SplitHashRing,
    partitioner_from_shape,
)
from repro.dist.replication import ReplicaSet, purge_files
from repro.dist.topology import ClusterManifest, load_cluster_manifest
from repro.lsm.db import DB
from repro.lsm.errors import DBClosedError, InvalidArgumentError
from repro.lsm.options import Options
from repro.lsm.vfs import VFS, MemoryVFS
from repro.lsm.zonemap import encode_attribute


class SequenceOracle:
    """A monotonic cross-shard sequence allocator."""

    def __init__(self) -> None:
        self._next = 1

    def allocate(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; returns the first."""
        first = self._next
        self._next += count
        return first

    def advance_past(self, seq: int) -> None:
        """Never hand out ``seq`` or below again (restart over existing
        data: recovered tables already used those numbers)."""
        self._next = max(self._next, seq + 1)

    @property
    def last_allocated(self) -> int:
        """The highest sequence number handed out so far."""
        return self._next - 1


class GlobalSecondaryIndex:
    """DynamoDB-style GSI: one lazy index ring, partitioned by value.

    Each index shard is a Lazy stand-alone index over the *whole* dataset's
    slice of attribute values, so LOOKUP(value) resolves on a single shard.
    Range behaviour depends on the partitioner: hash partitioning scatters
    ranges across the whole ring (the limitation DynamoDB documents);
    range partitioning (pass a :class:`~repro.dist.partitioner
    .RangePartitioner`) contacts only the shards whose value intervals
    overlap the query.
    """

    def __init__(self, attribute: str, partitioner, options: Options,
                 checker: ValidityChecker) -> None:
        self.attribute = attribute
        self.partitioner = partitioner
        self.checker = checker
        self._index_options = replace(options, indexed_attributes=(),
                                      merge_operator=posting_merge_operator)
        self.shards = self._open_ring()
        #: Index shards touched by queries (the cross-shard fan-out metric).
        self.shards_contacted = 0

    def _open_ring(self) -> list[LazyIndex]:
        """A fresh, empty ring: one in-memory Lazy index table per
        partition."""
        return [LazyIndex(self.attribute,
                          DB.open(MemoryVFS(),
                                  f"gsi-{self.attribute}-{shard_id}",
                                  self._index_options),
                          self.checker)
                for shard_id in range(self.partitioner.num_shards)]

    def _shard_for(self, value: Any) -> LazyIndex:
        return self.shards[self.partitioner.shard_of(
            encode_attribute(value))]

    # -- maintenance -----------------------------------------------------------

    def on_put(self, key: bytes, document: Document, seq: int) -> None:
        """Route the posting fragment to the value's index shard."""
        value = attribute_of(document, self.attribute)
        if value is None:
            return
        self._shard_for(value).apply_put(key, document, seq)

    def on_delete(self, key: bytes, old_document: Document | None,
                  seq: int) -> None:
        """Route a deletion marker to the *old* value's index shard."""
        if old_document is None:
            return
        value = attribute_of(old_document, self.attribute)
        if value is None:
            return
        self._shard_for(value).apply_delete(key, old_document, seq)

    # -- queries --------------------------------------------------------------

    def lookup(self, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        """LOOKUP resolved on the single index shard owning ``value``."""
        self.shards_contacted += 1
        return self._shard_for(value).lookup(value, k, early_termination)

    def range_lookup(self, low: Any, high: Any, k: int | None = None,
                     early_termination: bool = True) -> list[LookupResult]:
        """RANGELOOKUP over the index shards that can hold in-range values;
        ``k`` is checked before any shard is asked."""
        heap: TopKBySeq[LookupResult] = TopKBySeq(k)
        # A record updated between two in-range values leaves a stale
        # posting on a *different* index shard; both copies validate
        # against the live record, so offer each primary key once (the
        # copies are identical results).
        seen: set[str] = set()
        for shard_id in self.partitioner.shards_overlapping(
                encode_attribute(low), encode_attribute(high)):
            self.shards_contacted += 1
            for result in self.shards[shard_id].range_lookup(
                    low, high, k, early_termination):
                if result.key not in seen:
                    seen.add(result.key)
                    heap.add(result.seq, result)
        return heap.results()

    def rebuild(self, records: Iterable[tuple[bytes, Document, int]]) -> int:
        """Discard the ring and replay every live owned record.

        ``records`` yields ``(key, document, seq)`` from the authoritative
        data shards, oldest first (same contract as
        :meth:`SecondaryIndexedDB.rebuild_index`): a ring left stale by a
        mid-maintenance fault — or diverged by corruption — is regenerated
        wholesale, so afterwards it answers queries exactly as a ring that
        never missed an update.  Returns the number of records replayed.
        """
        self.close()
        self.shards = self._open_ring()
        replayed = 0
        for key_bytes, document, seq in records:
            self.on_put(key_bytes, document, seq)
            replayed += 1
        for shard in self.shards:
            shard.flush()
        return replayed

    def scrub(self, block_budget: int | None = None) -> list[str]:
        """Scrub every index shard's table; returns the problems found."""
        problems: list[str] = []
        for shard_id, shard in enumerate(self.shards):
            report = shard.index_db.scrub(block_budget)
            for problem in report.problems:
                problems.append(f"gsi-{self.attribute}-{shard_id}: "
                                f"{problem}")
            if shard.index_db.quarantined_tables():
                problems.append(f"gsi-{self.attribute}-{shard_id}: "
                                f"quarantined tables")
        return problems

    def size_bytes(self) -> int:
        """Total bytes across the whole index ring."""
        return sum(shard.size_bytes() for shard in self.shards)

    def close(self) -> None:
        """Close every index shard."""
        for shard in self.shards:
            shard.close()


class ShardedDB:
    """N replicated data shards + optional global index rings, one facade."""

    def __init__(self, manifest: ClusterManifest, oracle: SequenceOracle,
                 base_options: Options,
                 vfs_factory: Callable[[int, int], VFS] | None = None,
                 meta_vfs: VFS | None = None) -> None:
        """Build the ring, the replica groups and the GSI rings that
        ``manifest`` describes (see :meth:`open`)."""
        #: The topology.  Evolved by :meth:`_save_topology`, which also
        #: writes it through ``meta_vfs`` when there is one (without one
        #: the topology lives as long as the process).
        self.manifest = manifest
        self._meta_vfs = meta_vfs
        self.ring = SplitHashRing.from_state(manifest.base_shards,
                                             manifest.splits)
        self.oracle = oracle
        self.base_options = base_options
        # RF 1 without filesystems is the single-copy in-memory layout the
        # paper-figure benches measure (``open_replicated``, ``None`` VFS).
        single_copy = vfs_factory is None and manifest.replication_factor == 1
        self._vfs_factory = vfs_factory or (lambda _sid, _rid: MemoryVFS())
        self._step_hook: Callable[[str], None] | None = base_options.step_hook
        local_indexes = {attribute: IndexKind(kind) for attribute, kind
                         in manifest.local_indexes.items()}
        self.data_shards: list[ReplicaSet] = []
        for shard_id in range(self.ring.num_shards):
            vfs_list = [None if single_copy
                        else self._vfs_factory(shard_id, replica_id)
                        for replica_id in range(manifest.replication_factor)]
            self.data_shards.append(ReplicaSet.open_replicated(
                shard_id, vfs_list, local_indexes, base_options,
                self._step_hook))
        checker = ValidityChecker(None, self._routed_get_many_with_seq)
        self.global_indexes = {
            attribute: GlobalSecondaryIndex(
                attribute, partitioner_from_shape(shape), base_options,
                checker)
            for attribute, shape in manifest.global_indexes.items()}
        #: Data shards touched by secondary queries (scatter-gather cost).
        self.data_shards_contacted = 0
        #: GSI rings that missed a maintenance update (fault mid-put) and
        #: must be rebuilt from the data shards before serving queries.
        self._dirty_global: set[str] = set()
        #: The in-flight :class:`~repro.dist.migration.ShardSplit`, if any.
        self._migration = None
        #: Shards may hold copies the ring assigns elsewhere — true once a
        #: split has begun in this process, or when the last committed
        #: split's purge never finished.  See :meth:`_owns`.
        self._filter_owned = manifest.pending_cleanup
        self.splits_completed = 0
        self._closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def open_memory(cls, num_shards: int = 4,
                    local_indexes: Mapping[str, IndexKind] | None = None,
                    global_indexes: tuple[str, ...] = (),
                    options: Options | None = None,
                    num_index_shards: int | None = None,
                    global_split_points: Mapping[str, list] | None = None,
                    replication_factor: int = 1) -> "ShardedDB":
        """Build a cluster: ``local_indexes`` live on every data shard;
        each attribute in ``global_indexes`` gets its own GSI ring.

        ``global_split_points`` switches an attribute's GSI ring from hash
        to range partitioning: the given attribute *values* become the
        shard boundaries (``len(points) + 1`` index shards), letting
        RANGELOOKUPs contact only overlapping shards.

        ``replication_factor=1`` (the default) keeps the original
        single-copy layout — per-index metered VFSes and all — so the
        paper-reproduction benches measure exactly what they always did;
        ``replication_factor>=2`` gives every shard that many synchronous
        copies, each on its own filesystem so it can be killed, revived
        and reseeded.
        """
        return cls.open(None, num_shards=num_shards,
                        replication_factor=replication_factor,
                        local_indexes=local_indexes,
                        global_indexes=global_indexes, options=options,
                        num_index_shards=num_index_shards,
                        global_split_points=global_split_points)

    @classmethod
    def open(cls, vfs_factory: Callable[[int, int], VFS],
             num_shards: int = 4, replication_factor: int = 1,
             local_indexes: Mapping[str, IndexKind] | None = None,
             global_indexes: tuple[str, ...] = (),
             options: Options | None = None,
             num_index_shards: int | None = None,
             global_split_points: Mapping[str, list] | None = None,
             meta_vfs: VFS | None = None) -> "ShardedDB":
        """Open (or recover) a cluster over durable filesystems.

        ``vfs_factory(shard_id, replica_id)`` supplies each replica's
        filesystem; every replica recovers whatever its VFS already holds
        (WAL replay inside ``DB.open``).  The sequence oracle resumes past
        the highest recovered sequence number, and global index rings —
        which live in memory — are rebuilt from the recovered shards.

        ``meta_vfs`` makes the *topology* durable too: the cluster writes
        a CLUSTER manifest (ring split list, replica-set shape, index
        shapes — see :mod:`repro.dist.topology`) through it on every
        topology change.  When the manifest already exists it is
        authoritative: shard count, splits, replication factor and index
        layout all come from it and the corresponding arguments are
        ignored, so a cluster reopens onto exactly the topology it last
        committed.  An interrupted split resolves here: a durable intent
        whose flip never committed has its destination files purged
        (old topology, zero orphans); a committed-but-unclean split has
        its stray copies purged (new topology) — both idempotent.
        """
        manifest = None if meta_vfs is None \
            else load_cluster_manifest(meta_vfs)
        fresh = manifest is None
        if fresh:
            manifest = cls._describe(
                num_shards, replication_factor, local_indexes,
                global_indexes, num_index_shards, global_split_points)
        elif manifest.in_flight is not None:
            # The intent is durable but the flip never committed: delete
            # the half-copied destination, land on the old topology.
            new_id = manifest.in_flight[1]
            for replica_id in range(manifest.replication_factor):
                purge_files(vfs_factory(new_id, replica_id), f"shard-{new_id}")
            manifest = manifest.evolve(in_flight=None)
            manifest.save(meta_vfs)
        oracle = SequenceOracle()
        base_options = replace(options or Options(),
                               sequence_oracle=oracle.allocate)
        cluster = cls(manifest, oracle, base_options, vfs_factory, meta_vfs)
        recovered = 0
        for group in cluster.data_shards:
            for replica in group.replicas:
                for _label, table in replica.db.tables():
                    recovered = max(recovered, table.versions.last_sequence)
        oracle.advance_past(recovered)
        if manifest.pending_cleanup:
            # The flip committed but the stray purge never finished;
            # rerun it (idempotent) before anything reads cross-shard.
            cluster._purge_strays()
            cluster._save_topology(pending_cleanup=False)
        if recovered:
            for attribute in list(cluster.global_indexes):
                cluster.rebuild_global_index(attribute)
        if fresh:
            # Make the base topology durable immediately, so a crash
            # right after open still reopens consistently.
            cluster._save_topology()
        return cluster

    @staticmethod
    def _describe(num_shards: int, replication_factor: int,
                  local_indexes: Mapping[str, IndexKind] | None,
                  global_indexes: tuple[str, ...],
                  num_index_shards: int | None,
                  global_split_points: Mapping[str, list] | None
                  ) -> ClusterManifest:
        """The manifest of a fresh cluster: :meth:`open`'s arguments."""
        overlap = set(local_indexes or {}) & set(global_indexes)
        if overlap:
            raise InvalidArgumentError(
                f"attributes indexed both locally and globally: {overlap}")
        split_points = dict(global_split_points or {})
        unknown = set(split_points) - set(global_indexes)
        if unknown:
            raise InvalidArgumentError(
                f"split points for non-global attributes: {unknown}")
        global_shapes = {}
        for attribute in global_indexes:
            if attribute in split_points:
                partitioner = RangePartitioner(
                    [encode_attribute(value)
                     for value in split_points[attribute]])
            else:
                partitioner = HashPartitioner(num_index_shards or num_shards)
            global_shapes[attribute] = partitioner.shape()
        return ClusterManifest(
            base_shards=num_shards, replication_factor=replication_factor,
            local_indexes={attribute: getattr(kind, "value", kind)
                           for attribute, kind
                           in (local_indexes or {}).items()},
            global_indexes=global_shapes)

    def _purge_strays(self, shard_ids: Iterable[int] | None = None
                      ) -> tuple[int, ...]:
        """Delete every record the ring assigns to another shard (the
        copies a split leaves on its source and destination) and flush.
        Idempotent — a split's cleanup and a reopen that finds it
        unfinished run the same purge.  Returns the keys purged per shard
        visited (default: every shard)."""
        purged = []
        for shard_id in (range(len(self.data_shards)) if shard_ids is None
                         else shard_ids):
            group = self.data_shards[shard_id]
            strays = [key for key, _value, _seq
                      in group.primary.scan_with_seq()
                      if not self._owns(shard_id, key)]
            for key in strays:
                group.apply_local("delete", key, None)
            group.flush()
            purged.append(len(strays))
        return tuple(purged)

    # -- routing ---------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.data_shards)

    def _shard_for(self, key: bytes) -> ReplicaSet:
        return self.data_shards[self.ring.shard_of(key)]

    def _owns(self, shard_id: int, key: str | bytes) -> bool:
        """The one ownership rule: the ring assigns ``key`` to
        ``shard_id``.  Between a split's copy and its cleanup both sides
        hold copies of the same records, and every consumer — scatter
        results, scans, GSI rebuilds, balance counts, the purge itself —
        must see each record on exactly one shard.  A cluster that never
        split owns every copy by construction and is never hashed."""
        return not self._filter_owned \
            or self.ring.shard_of(key_to_bytes(key)) == shard_id

    def _routed_get_many_with_seq(self, keys: list[bytes]
                                  ) -> dict[bytes, tuple[bytes, int] | None]:
        """The GSI's validation fetch: each key's owner resolves its share
        of the batch; a key still costs one shard contact."""
        self.data_shards_contacted += len(keys)
        by_shard: dict[int, list[bytes]] = {}
        for key in keys:
            by_shard.setdefault(self.ring.shard_of(key), []).append(key)
        found: dict[bytes, tuple[bytes, int] | None] = {}
        for shard_id, shard_keys in by_shard.items():
            found.update(
                self.data_shards[shard_id].get_many_with_seq(shard_keys))
        return found

    # -- base operations ---------------------------------------------------------

    def put(self, key: str | bytes, document: Document) -> int:
        """Write to every live replica of the owning shard, then maintain
        every GSI.

        The record is durable once the replica fan-out returns; a fault
        while maintaining a GSI marks that ring dirty (it rebuilds before
        its next query) instead of leaving it silently stale.  While a
        split is in flight, acked writes to moving keys are also journaled
        for the WAL-tail replay.
        """
        return self._write("put", key_to_bytes(key), document)

    def get(self, key: str | bytes) -> Document | None:
        """Point read, routed by primary key; fails over within the shard."""
        self._check_open()
        self._drain_tail()
        return self._shard_for(key_to_bytes(key)).get(key_to_bytes(key))

    def delete(self, key: str | bytes) -> int:
        """Delete from the owning shard; GSIs get deletion markers.

        The tombstone's sequence number comes from the delete itself —
        reading ``versions.last_sequence`` afterwards would race a
        concurrent writer on the same shard and stamp the GSI marker with
        a stranger's sequence, breaking the globally-comparable-sequence
        invariant :meth:`_scatter_gather` and validation rely on.
        """
        return self._write("delete", key_to_bytes(key), None)

    def _write(self, op: str, key_bytes: bytes,
               document: Document | None) -> int:
        """Route, commit (journaling into an in-flight split), re-route a
        straggler, maintain the GSIs; returns the sequence now served."""
        self._check_open()
        shard_id = self.ring.shard_of(key_bytes)
        group = self.data_shards[shard_id]
        self._drain_tail(shard_id)
        old_document = None
        if op == "delete" and self.global_indexes:
            old_document = group.get(key_bytes)
        journaled = []

        def on_commit(seq):
            journaled.append(self._observe_commit(
                op, key_bytes, document, shard_id, seq))

        if op == "put":
            seq = group.put(key_bytes, document, on_commit=on_commit)
        else:
            seq = group.delete(key_bytes, on_commit=on_commit)
        if not any(journaled):
            seq = self._reroute_straggler(op, key_bytes, document,
                                          shard_id, seq)
        if op == "put":
            self._maintain_global(
                lambda index: index.on_put(key_bytes, document, seq))
        else:
            self._maintain_global(
                lambda index: index.on_delete(key_bytes, old_document, seq))
        return seq

    def _drain_tail(self, written_shard: int | None = None) -> None:
        """Barrier against an in-flight split's journal tail.

        Post-flip, the destination owns keys whose newest versions may
        still be journaled (a write routed pre-flip, committed post-flip),
        with *lower* sequence numbers than anything applied there since.
        Serving the destination's copy first would read a stale value —
        or resurrect a tombstoned record — and applying a direct write
        first would make the later tail replay go backwards.  So every
        query, and every write routed to the destination
        (``written_shard``), first drains the tail inside its own atomic
        chunk.  No-op without a registered migration."""
        migration = self._migration
        if migration is not None \
                and written_shard in (None, migration.new_id):
            migration.flush_tail()

    def _observe_commit(self, op: str, key_bytes: bytes,
                        document: Document | None, shard_id: int,
                        seq: int) -> bool:
        """Journal a commit into the in-flight split, atomically with the
        commit itself (runs before the fan-out's ack yield point);
        returns whether the split took it."""
        return self._migration is not None \
            and self._migration.observe(op, key_bytes, document, shard_id,
                                        seq)

    def _reroute_straggler(self, op: str, key_bytes: bytes,
                           document: Document | None, shard_id: int,
                           seq: int) -> int:
        """Close the route-vs-flip race on the write path.

        A write routes with one ring but commits later; if a split's ring
        flip lands in between, the write is acked by a shard that no
        longer owns the key.  While the split is registered, its journal
        ferries the write to the destination (flip- and cleanup-chunk
        drains) — that's the ``_observe_commit`` path.  When the write
        was *not* journaled (the split already finished its cleanup), the
        write re-applies here to the group the current ring says owns the
        key, as a fresh atomic op — an exact-sequence replay is unsound
        because source and destination can disagree on prior state (the
        source copy may already be purged).  Put/delete are idempotent
        latest-wins ops, so a re-apply is safe even in the rare case the
        checkpoint already carried the write.  Returns the sequence the
        owner serves, which downstream GSI maintenance must stamp.  The
        stray source copy stays invisible behind the ownership filter;
        static clusters (``_filter_owned`` unset) never take this branch.
        """
        if not self._filter_owned:
            return seq
        owner_id = self.ring.shard_of(key_bytes)
        if owner_id == shard_id:
            return seq
        owner = self.data_shards[owner_id]
        current = owner.primary.get_with_seq(key_bytes)
        if current is not None and current[1] >= seq:
            # The split's checkpoint or a journal drain already carried
            # this very write over; the owner serves it at its own seq.
            return current[1]
        new_seq = owner.apply_local(op, key_bytes, document)
        # The owner may itself be the source of a newer in-flight split;
        # journal the re-applied write so that split's drains ferry it.
        self._observe_commit(op, key_bytes, document, owner_id, new_seq)
        return new_seq

    def _maintain_global(self, apply: Callable[[GlobalSecondaryIndex], None]
                         ) -> None:
        """Apply one maintenance op to every GSI ring, containing faults.

        The data-shard write has already committed when this runs, so a
        fault here must not strand the index silently: the failing ring is
        marked dirty (rebuilt from the shards before its next query), the
        remaining rings still get their update, and the first fault is
        re-raised so the caller sees the failure.
        """
        first_error: Exception | None = None
        for attribute, index in self.global_indexes.items():
            if attribute in self._dirty_global:
                continue  # pending rebuild will replay this write anyway
            try:
                apply(index)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                self._dirty_global.add(attribute)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # -- secondary queries ---------------------------------------------------------

    def lookup(self, attribute: str, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        """LOOKUP: one GSI shard (global) or all-shard scatter (local)."""
        return self._query(
            "lookup", attribute, k,
            lambda index: index.lookup(value, k, early_termination),
            lambda shard, heap, owns: shard.lookup_into(
                attribute, value, heap, early_termination, owns))

    def range_lookup(self, attribute: str, low: Any, high: Any,
                     k: int | None = None,
                     early_termination: bool = True) -> list[LookupResult]:
        """RANGELOOKUP, routed or scattered per the attribute's scope.

        Scattered, each shard computes its own answer over the records it
        owns, which is offered to the shared heap: Lazy's level-boundary
        range termination is approximate, and run against other shards'
        results it would stop earlier and answer differently."""
        return self._query(
            "rangelookup", attribute, k,
            lambda index: index.range_lookup(low, high, k,
                                             early_termination),
            lambda shard, heap, owns: offer(heap, shard.range_lookup(
                attribute, low, high, k, early_termination, owns)))

    def _query(self, label: str, attribute: str, k: int | None,
               on_global, on_shard) -> list[LookupResult]:
        """One secondary query: ``on_global`` against the attribute's GSI
        ring (rebuilt first if dirty), else ``on_shard`` scattered over
        the data shards' local indexes."""
        self._check_open()
        if self._step_hook is not None:
            self._step_hook(f"read:{label}:{attribute}")
        self._drain_tail()
        if attribute in self.global_indexes:
            if attribute in self._dirty_global:
                self.rebuild_global_index(attribute)
            return on_global(self.global_indexes[attribute])
        if attribute not in self.manifest.local_indexes:
            raise InvalidArgumentError(
                f"no index on attribute {attribute!r}")
        return self._scatter_gather(on_shard, k)

    def _scatter_gather(self, fill, k: int | None) -> list[LookupResult]:
        """Local indexes: one top-K heap, filled by every shard in turn.

        ``fill(shard, heap, owns)`` offers a shard's results to the heap.
        Sequence numbers are globally comparable, so the heap ends holding
        the global top-K, and a candidate it already refuses — older than
        K results found on earlier shards — costs no validation GET.  Once
        a split has begun, ``owns`` admits only the keys the current ring
        assigns to the shard: pre-cleanup copies on the split's source (or
        unpurged destination) shard validate as live but belong to the
        other side, and must neither double a result nor, by raising the
        K-th sequence, push an owned one out.  Both queries drop such a
        key before it can enter any heap (the stand-alone kinds before its
        GET, Embedded before its validity check, inside the walk that
        fills a RANGELOOKUP's own top-K too), so no owned record is
        displaced.
        """
        heap: TopKBySeq[LookupResult] = TopKBySeq(k)
        for shard_id, group in enumerate(self.data_shards):
            self.data_shards_contacted += 1
            fill(group, heap, partial(self._owns, shard_id)
                 if self._filter_owned else None)
        return heap.results()

    def scan(self, low: str | bytes | None = None,
             high: str | bytes | None = None
             ) -> Iterator[tuple[str, Document]]:
        """Ordered iteration over live ``(key, document)`` pairs across
        the whole cluster (k-way merge of per-shard primary scans)."""
        self._check_open()
        if self._step_hook is not None:
            self._step_hook("read:scan")
        self._drain_tail()
        iterators = [self._owned_scan(shard_id, group, low, high)
                     for shard_id, group in enumerate(self.data_shards)]
        return heapq.merge(*iterators, key=lambda pair: pair[0])

    def _owned_scan(self, shard_id: int, group: ReplicaSet, low, high):
        for key, document in group.scan(low, high):
            if self._owns(shard_id, key):
                yield key, document

    # -- replication control -----------------------------------------------------

    def kill_replica(self, shard_id: int, replica_id: int) -> None:
        """Take one replica down abruptly (drill interface)."""
        self._check_open()
        self.data_shards[shard_id].kill(replica_id)

    def revive_replica(self, shard_id: int, replica_id: int) -> str:
        """Restart a downed replica from its files; returns ``up`` or
        ``stale`` (stale copies are reseeded by read repair or
        :meth:`repair_shard` before serving)."""
        self._check_open()
        return self.data_shards[shard_id].revive(replica_id)

    def repair_shard(self, shard_id: int) -> list[int]:
        """Reseed every stale replica of one shard from its leader."""
        self._check_open()
        return self.data_shards[shard_id].repair()

    # -- elastic resharding ------------------------------------------------------

    def begin_split(self, source_id: int | None = None,
                    vfs_factory: Callable[[int], VFS] | None = None):
        """Start a live split of ``source_id`` (default: the shard with
        the most live records) onto a new shard; returns the
        :class:`~repro.dist.migration.ShardSplit` to drive with ``step()``
        / ``run()``."""
        self._check_open()
        if source_id is None:
            counts = self.shard_record_counts()
            source_id = max(range(len(counts)), key=counts.__getitem__)
        if vfs_factory is None:
            new_id = len(self.data_shards)
            vfs_factory = (lambda replica_id:
                           self._vfs_factory(new_id, replica_id))
        return ShardSplit(self, source_id, vfs_factory)

    def split_shard(self, source_id: int | None = None):
        """Run a whole split synchronously; returns the finished
        :class:`~repro.dist.migration.ShardSplit`."""
        return self.begin_split(source_id).run()

    def _register_migration(self, migration) -> None:
        # Durable intent FIRST: if the process dies after any destination
        # file exists but before the flip, reopen finds the intent and
        # purges the half-copied shard instead of orphaning it.
        self._save_topology(in_flight=(migration.source_id,
                                       migration.new_id))
        self._migration = migration
        self._filter_owned = True

    def _unregister_migration(self, migration) -> None:
        if self._migration is migration:
            self._migration = None

    def _complete_flip(self, migration) -> None:
        """Publish the split: the manifest commits the new topology first
        (the durable decision point — a crash before the in-memory flip
        reopens onto the new ring), then the new group joins the shard
        list *before* the ring flips (the old ring never routes to it),
        then one attribute assignment moves ownership."""
        self._save_topology(splits=migration.next_ring.splits,
                            in_flight=None, pending_cleanup=True)
        self.data_shards.append(migration.dest)
        self.ring = migration.next_ring
        self.splits_completed += 1
        # The migration stays registered (and journaling) until cleanup:
        # a write that routed before this flip can still commit after it,
        # and its journal entry must reach the cleanup-chunk drain.

    # -- durable topology --------------------------------------------------------

    def _save_topology(self, **changes: Any) -> None:
        """Move to the next topology generation, persisting it first when
        there is a ``meta_vfs``: the in-memory manifest only advances
        once the save is durable, so a failed write leaves both the file
        and our view on the previous generation."""
        manifest = self.manifest.evolve(**changes) if changes \
            else self.manifest
        if self._meta_vfs is not None:
            manifest.save(self._meta_vfs)
        self.manifest = manifest

    # -- anti-entropy ------------------------------------------------------------

    def anti_entropy(self, block_budget: int | None = None) -> dict[str, Any]:
        """One full repair pass: scrub every replica, reseed diverged or
        stale copies from their leaders, then scrub the GSI rings and
        rebuild any that diverged — restoring exact query parity."""
        self._check_open()
        summary: dict[str, Any] = {"shards": {}, "gsi_rebuilt": [],
                                   "gsi_problems": []}
        for group in self.data_shards:
            summary["shards"][group.shard_id] = \
                group.anti_entropy(block_budget)
        for attribute, index in self.global_indexes.items():
            problems = index.scrub(block_budget)
            if problems:
                summary["gsi_problems"].extend(problems)
                self._dirty_global.add(attribute)
        for attribute in self.dirty_global_indexes():
            self.rebuild_global_index(attribute)
            summary["gsi_rebuilt"].append(attribute)
        return summary

    # -- index healing -------------------------------------------------------------

    def dirty_global_indexes(self) -> list[str]:
        """Attributes whose GSI ring missed an update and awaits rebuild."""
        return sorted(self._dirty_global)

    def _owned_records(self) -> Iterator[tuple[bytes, Document, int]]:
        """Every live record the current ring assigns to its shard —
        the authoritative dataset GSI rebuilds replay — oldest first
        across all shards, as the records were written."""
        seq_keys = [(seq, key_bytes)
                    for shard_id, group in enumerate(self.data_shards)
                    for key_bytes, _value, seq
                    in group.primary.scan_with_seq(fill_cache=False)
                    if self._owns(shard_id, key_bytes)]
        for key_bytes, value, seq in records_by_seq(
                lambda key: self._shard_for(key).primary.get_with_seq(key),
                seq_keys):
            yield key_bytes, decode_document(value), seq

    def rebuild_global_index(self, attribute: str) -> int:
        """Rebuild one GSI ring from the (authoritative) data shards.

        Returns the number of records replayed; clears the dirty mark.
        """
        self._check_open()
        index = self.global_indexes.get(attribute)
        if index is None:
            raise InvalidArgumentError(
                f"no global index on attribute {attribute!r}")
        replayed = index.rebuild(self._owned_records())
        self._dirty_global.discard(attribute)
        return replayed

    def heal_indexes(self) -> dict[str, int]:
        """Rebuild every dirty GSI ring and every shard's quarantined index.

        Returns ``{"global:attr" | "shardN:attr": records_replayed}`` —
        the cluster-wide face of the single-node ``heal_indexes``
        machinery.
        """
        self._check_open()
        healed: dict[str, int] = {}
        for attribute in self.dirty_global_indexes():
            healed[f"global:{attribute}"] = \
                self.rebuild_global_index(attribute)
        for shard_id, group in enumerate(self.data_shards):
            for attribute, replayed in group.heal_indexes().items():
                healed[f"shard{shard_id}:{attribute}"] = replayed
        return healed

    # -- introspection -------------------------------------------------------------

    def total_size(self) -> int:
        """Bytes across all data shards and global index rings."""
        total = sum(group.total_size() for group in self.data_shards)
        total += sum(index.size_bytes()
                     for index in self.global_indexes.values())
        return total

    def shard_record_counts(self) -> list[int]:
        """Live *owned* records per shard (balance check)."""
        return [sum(self._owns(shard_id, key_bytes)
                    for key_bytes, _value in group.primary.scan())
                for shard_id, group in enumerate(self.data_shards)]

    def verify_integrity(self) -> dict[str, Any]:
        """Integrity reports for every replica table in the cluster."""
        self._check_open()
        reports: dict[str, Any] = {}
        for group in self.data_shards:
            for label, report in group.verify_integrity().items():
                reports[f"shard{group.shard_id}:{label}"] = report
        return reports

    def stats(self) -> dict[str, Any]:
        """Cluster-wide counters: replication, routing, migration, GSIs."""
        self._check_open()
        migration = self._migration
        return {
            "num_shards": len(self.data_shards),
            "replication_factor": self.manifest.replication_factor,
            "ring": {"base_shards": self.ring.base_shards,
                     "splits": list(self.ring.splits)},
            "last_sequence": self.oracle.last_allocated,
            "data_shards_contacted": self.data_shards_contacted,
            "shards": [group.status() for group in self.data_shards],
            "splits_completed": self.splits_completed,
            "migration": None if migration is None else migration.status(),
            "global_indexes": sorted(self.global_indexes),
            "dirty_global_indexes": self.dirty_global_indexes(),
            "topology": None if self._meta_vfs is None else {
                "durable": True,
                "epoch": self.manifest.epoch,
                "in_flight": self.manifest.in_flight,
                "pending_cleanup": self.manifest.pending_cleanup,
            },
        }

    def instrument(self, step_hook: Callable[[str], None] | None) -> None:
        """Install (or remove) a distributed-layer step hook after
        construction — lets drills preload data hook-free, then hand the
        yield points to a DeterministicScheduler."""
        self._step_hook = step_hook
        for group in self.data_shards:
            group.step_hook = step_hook

    def flush(self) -> None:
        """Flush every live replica of every shard."""
        self._check_open()
        for group in self.data_shards:
            group.flush()

    def close(self) -> None:
        """Close every data shard and GSI ring (idempotent)."""
        if self._closed:
            return
        for group in self.data_shards:
            group.close()
        for index in self.global_indexes.values():
            index.close()
        self._closed = True

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("cluster is closed")
