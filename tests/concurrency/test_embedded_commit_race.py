"""An Embedded LOOKUP that runs between a PUT's commit and its return.

The Embedded index's MemTable postings are part of the primary MemTable
insert, so a record is findable from the moment the primary table
publishes it — before the PUT returns.  Each test runs the LOOKUP from a
wrapper around the primary table's ``write``, right after it returns: on a
single store (``SecondaryIndexedDB.commit``) and on a replica follower
(``SecondaryIndexedDB.apply_committed``).
"""

from __future__ import annotations

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.dist.replication import ReplicaSet
from repro.lsm.options import Options

INDEXES = {"u": IndexKind.EMBEDDED}


def _lookup_after_each_write(db: SecondaryIndexedDB) -> list[list[str]]:
    """Wrap ``db.primary.write``: after each write returns, look up the
    user ``alice`` on ``db``; returns the keys found, one list per write."""
    seen: list[list[str]] = []
    write = db.primary.write

    def write_then_lookup(*args, **kwargs):
        last_seq = write(*args, **kwargs)
        seen.append([r.key for r in db.lookup("u", "alice")])
        return last_seq

    db.primary.write = write_then_lookup
    return seen


def test_lookup_between_commit_and_return_finds_the_record():
    db = SecondaryIndexedDB.open_memory(INDEXES, Options())
    db.put("t0", {"u": "alice"})
    seen = _lookup_after_each_write(db)
    db.put("t1", {"u": "alice"})
    db.put("t0", {"u": "bob"})
    assert seen == [["t1", "t0"], ["t1"]]
    db.close()


def test_lookup_on_a_follower_between_apply_and_return_finds_the_record():
    shard = ReplicaSet.open_replicated(0, [None, None], INDEXES, Options())
    follower = shard.replicas[1].db
    seen = _lookup_after_each_write(follower)
    shard.put(b"t1", {"u": "alice"})
    shard.put(b"t2", {"u": "alice"})
    shard.put(b"t1", {"u": "bob"})
    assert seen == [["t1"], ["t2", "t1"], ["t2"]]
    shard.close()
