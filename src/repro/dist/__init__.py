"""Distributed secondary indexing — the paper's Appendix D, made concrete.

The paper's evaluation is deliberately single-node ("our focus is on a
single-machine storage engine ... the distribution techniques of HyperDex,
DynamoDB, Riak and Innesto can be viewed as complementary"), but its
Table 2 and related-work section lay out the two distribution strategies
industrial systems use:

**Local secondary indexes** (Riak, Cassandra): every data shard indexes
its own records.  Writes are one-shard operations, but a secondary LOOKUP
must scatter to *every* shard and gather/merge results.

**Global secondary indexes** (DynamoDB): one separate index ring,
partitioned by *attribute value*.  A LOOKUP touches a single index shard
(plus per-result GETs routed by primary key), but every write crosses
shard boundaries to maintain the index.

:class:`repro.dist.cluster.ShardedDB` composes the single-node engine into
both designs so their trade-off can be measured with the same I/O meters
as the paper's single-node experiments
(``benchmarks/bench_dist_local_vs_global.py``) — and, beyond the paper,
replicates each shard (:mod:`repro.dist.replication`), splits shards live
(:mod:`repro.dist.migration`) and repairs divergence with anti-entropy
passes, all drilled deterministically under the scheduler and fault VFS.
"""

from repro.dist.cluster import GlobalSecondaryIndex, SequenceOracle, ShardedDB
from repro.dist.migration import MigrationError, ShardSplit
from repro.dist.partitioner import (
    HashPartitioner,
    RangePartitioner,
    SplitHashRing,
)
from repro.dist.replication import (
    NoReplicaError,
    ReplicaSet,
    ReplicationError,
)

__all__ = [
    "GlobalSecondaryIndex",
    "HashPartitioner",
    "MigrationError",
    "NoReplicaError",
    "RangePartitioner",
    "ReplicaSet",
    "ReplicationError",
    "SequenceOracle",
    "ShardSplit",
    "ShardedDB",
    "SplitHashRing",
]
