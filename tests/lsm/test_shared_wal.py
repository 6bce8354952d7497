"""Tables sharing one WAL: a host DB and the WAL-less tables it logs for."""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB, WriteBatch
from repro.lsm.errors import InvalidArgumentError
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS


def _concat(_key, operands):
    return b"|".join(operands)


def _open(vfs, **overrides):
    options = Options(merge_operator=_concat, **overrides)
    table = DB.open_table(vfs, "s/index", options)
    host = DB.open(vfs, "s/primary", options, tables=[table])
    return host, table


def _logs(vfs, name):
    return [n for n in vfs.list_dir(name + "/") if n.endswith(".log")]


def test_plain_batch_encoding_is_unchanged():
    batch = WriteBatch().put(b"k", b"v").delete(b"d").merge(b"m", b"o")
    assert batch.encode(5) == bytes.fromhex("0503" "01016b0176"
                                            "000164" "00" "02016d016f")


def test_each_table_counts_sequences_from_the_batch_start():
    vfs = MemoryVFS()
    host, table = _open(vfs)
    batch = (WriteBatch().put(b"a", b"1")
             .merge(b"x", lambda seq: b"%d" % seq, table)
             .merge(b"y", lambda seq: b"%d" % seq, table))
    assert batch.span() == 2
    last = host.write(batch)
    assert last == 2
    assert host.get_with_seq(b"a") == (b"1", 1)
    # Both values were stamped with the batch's first sequence.
    assert table.get_with_seq(b"x") == (b"1", 1)
    assert table.get_with_seq(b"y") == (b"1", 2)
    assert host.put(b"b", b"2") == 3
    table.close()
    host.close()


def test_an_indexed_put_is_one_append_and_one_sync():
    vfs = FaultInjectingVFS()
    db = SecondaryIndexedDB.open(vfs, "data", {"UserID": IndexKind.LAZY},
                                 Options(sync_writes=True))
    start = len(vfs.op_log)
    db.put("t1", {"UserID": "u1"})
    assert [kind for kind, _name in vfs.op_log[start:]] == ["append", "sync"]
    assert all(name.startswith("data/primary/")
               for _kind, name in vfs.op_log[start:])
    assert _logs(vfs, "data/index-lazy-UserID") == []
    db.close()


def test_replay_skips_what_each_table_already_flushed():
    vfs = MemoryVFS()
    host, table = _open(vfs)
    for step in range(3):
        host.write(WriteBatch().put(b"k%d" % step, b"v")
                   .merge(b"list", b"%d" % step, table))
    table.flush()  # the table's part of the WAL is in its files now
    host.write(WriteBatch().put(b"k3", b"v").merge(b"list", b"3", table))
    table.close()
    host.close()
    host, table = _open(vfs)
    # Each merge operand folded once, though the WAL held them all.
    assert table.get(b"list") == b"0|1|2|3"
    assert sorted(key for key, _value in host.scan()) == \
        [b"k0", b"k1", b"k2", b"k3"]
    table.close()
    host.close()


def test_a_wal_is_deleted_once_every_table_flushed_past_it():
    vfs = MemoryVFS()
    host, table = _open(vfs)
    host.write(WriteBatch().put(b"a", b"1").merge(b"x", b"1", table))
    first = _logs(vfs, "s/primary")
    host.flush()  # rotates the WAL; the table still needs the old one
    assert set(first) < set(_logs(vfs, "s/primary"))
    table.flush()
    assert not set(first) & set(_logs(vfs, "s/primary"))
    table.close()
    host.close()


def test_a_host_opened_alone_keeps_the_wal_of_its_tables():
    vfs = MemoryVFS()
    host, table = _open(vfs)
    host.write(WriteBatch().put(b"a", b"1").merge(b"x", b"1", table))
    table.close()
    host.close()
    alone = DB.open(vfs, "s/primary", Options())
    assert alone.get(b"a") == b"1"
    assert alone.verify_integrity().ok
    alone.close()
    host, table = _open(vfs)
    assert table.get(b"x") == b"1"
    table.close()
    host.close()


def test_a_table_writes_only_through_its_host():
    vfs = MemoryVFS()
    table = DB.open_table(vfs, "s/index", Options())
    with pytest.raises(InvalidArgumentError):
        table.put(b"k", b"v")
    other = DB.open(vfs, "s/other", Options())
    with pytest.raises(InvalidArgumentError):
        other.write(WriteBatch().put(b"k", b"v", table))
    host = DB.open(vfs, "s/primary", Options(), tables=[table])
    table.put(b"k", b"v")  # routed through the host's WAL
    assert table.get(b"k") == b"v"
    host.write(WriteBatch().put(b"h", b"1", host))  # ops naming the writer
    assert host.get(b"h") == b"1" and table.get(b"h") is None
    for db in (table, host, other):
        db.close()
