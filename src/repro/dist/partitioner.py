"""Partitioners: deciding which shard owns a key.

*Hash* partitioning (stable blake2b modulo a fixed shard count) is what
the paper's referenced systems use for primary keys (DynamoDB, Riak,
Cassandra) and for global-index partition keys (DynamoDB GSIs) — perfect
balance, but value ranges scatter across every shard.

*Range* partitioning (HBase/Spanner style: sorted split points) keeps
adjacent values on the same shard, so a global index partitioned by range
can answer RANGELOOKUPs from only the overlapping shards — at the price
of hand-chosen (or rebalanced) boundaries and skew exposure.

*Split-hash* partitioning (:class:`SplitHashRing`) is the elastic variant
the migration machinery needs: it starts bit-identical to
:class:`HashPartitioner` and grows one shard at a time, linear-hashing
style — each split moves a pseudo-random *half* of one shard's keys to a
brand-new shard and leaves every other shard's ownership untouched, so a
live migration only ever copies one shard's data.
"""

from __future__ import annotations

import bisect
import hashlib


class HashPartitioner:
    """Stable hash partitioning of byte keys over ``num_shards`` shards."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def shard_of(self, key: bytes) -> int:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_shards

    def shards_overlapping(self, low: bytes, high: bytes) -> list[int]:
        """Hashing scatters ranges: every shard may hold in-range keys."""
        return list(range(self.num_shards))

    def shape(self) -> dict:
        """The partitioner as plain data (see :func:`partitioner_from_shape`)."""
        return {"scheme": "hash", "shards": self.num_shards}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner(num_shards={self.num_shards})"


class SplitHashRing:
    """An elastic hash ring: ``HashPartitioner`` plus linear-hash splits.

    With no splits, :meth:`shard_of` is bit-identical to
    ``HashPartitioner(base_shards).shard_of`` — the default cluster routing
    is unchanged until the first migration.  ``with_split(parent, new_id)``
    returns a *new* ring (instances are immutable, so a cluster can flip
    from old ring to new ring with one atomic attribute assignment) in
    which roughly half of ``parent``'s keys — chosen by one bit of a
    second, domain-separated digest per split depth — now route to
    ``new_id``.  Keys owned by other shards are never remapped.

    Split decisions consume bit ``depth`` of the secondary digest, so a
    shard split twice partitions its keyspace into quarters, exactly like
    classic linear hashing's directory doubling but one bucket at a time.
    """

    _PERSON = b"repro-reshard"

    def __init__(self, base_shards: int,
                 splits: tuple[tuple[int, int], ...] = ()) -> None:
        if base_shards < 1:
            raise ValueError("base_shards must be >= 1")
        self.base_shards = base_shards
        self.splits = tuple(splits)
        # leaf shard id -> split depth; a key's route walks depths 0..d.
        leaf_depth: dict[int, int] = {
            shard_id: 0 for shard_id in range(base_shards)}
        # (shard id, depth) -> new shard id taking the set-bit half.
        split_at: dict[tuple[int, int], int] = {}
        for parent, new_id in self.splits:
            if parent not in leaf_depth:
                raise ValueError(f"split parent {parent} is not a shard")
            if new_id in leaf_depth:
                raise ValueError(f"split target {new_id} already exists")
            depth = leaf_depth[parent]
            split_at[(parent, depth)] = new_id
            leaf_depth[parent] = depth + 1
            leaf_depth[new_id] = depth + 1
        self._split_at = split_at
        self._leaf_depth = leaf_depth
        self.num_shards = base_shards + len(self.splits)

    def shard_of(self, key: bytes) -> int:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        shard_id = int.from_bytes(digest, "big") % self.base_shards
        depth = 0
        route_bits: int | None = None
        while (shard_id, depth) in self._split_at:
            if route_bits is None:
                second = hashlib.blake2b(key, digest_size=8,
                                         person=self._PERSON).digest()
                route_bits = int.from_bytes(second, "big")
            if (route_bits >> depth) & 1:
                shard_id = self._split_at[(shard_id, depth)]
            depth += 1
        return shard_id

    def with_split(self, parent: int, new_id: int) -> "SplitHashRing":
        """A new ring in which ``parent`` has shed half its keys to
        ``new_id``; validation happens in the constructor."""
        return SplitHashRing(self.base_shards,
                             self.splits + ((parent, new_id),))

    @classmethod
    def from_state(cls, base_shards: int,
                   splits: "tuple[tuple[int, int], ...] | list" = ()
                   ) -> "SplitHashRing":
        """Rebuild a ring from persisted state (validates in __init__)."""
        return cls(base_shards,
                   tuple((int(parent), int(new_id))
                         for parent, new_id in splits))

    def shards_overlapping(self, low: bytes, high: bytes) -> list[int]:
        """Hashing scatters ranges: every shard may hold in-range keys."""
        return list(range(self.num_shards))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SplitHashRing(base_shards={self.base_shards}, "
                f"splits={self.splits})")


class RangePartitioner:
    """Split-point partitioning: shard *i* owns ``[splits[i-1], splits[i])``.

    ``split_points`` must be sorted encoded byte keys; ``len(splits) + 1``
    shards result.  Keys below the first split go to shard 0, keys at or
    above the last to the final shard.
    """

    def __init__(self, split_points: list[bytes]) -> None:
        if sorted(split_points) != list(split_points):
            raise ValueError("split points must be sorted")
        if len(set(split_points)) != len(split_points):
            raise ValueError("split points must be distinct")
        self.split_points = list(split_points)
        self.num_shards = len(split_points) + 1

    def shard_of(self, key: bytes) -> int:
        return bisect.bisect_right(self.split_points, key)

    def shards_overlapping(self, low: bytes, high: bytes) -> list[int]:
        """Only the shards whose intervals intersect ``[low, high]``."""
        if low > high:
            return []
        first = self.shard_of(low)
        last = self.shard_of(high)
        return list(range(first, last + 1))

    def shape(self) -> dict:
        """The partitioner as plain data (see :func:`partitioner_from_shape`)."""
        return {"scheme": "range",
                "split_points": [point.hex() for point in self.split_points]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangePartitioner(num_shards={self.num_shards})"


def partitioner_from_shape(shape) -> HashPartitioner | RangePartitioner:
    """Inverse of ``shape()``: the one place that reads the dialect the
    cluster manifest stores a global index ring in.  Raises ``ValueError``
    / ``KeyError`` / ``TypeError`` for anything ``shape()`` cannot have
    written."""
    if shape["scheme"] == "hash":
        return HashPartitioner(int(shape["shards"]))
    if shape["scheme"] == "range":
        return RangePartitioner([bytes.fromhex(point)
                                 for point in shape["split_points"]])
    raise ValueError(f"unknown partitioning scheme {shape['scheme']!r}")
