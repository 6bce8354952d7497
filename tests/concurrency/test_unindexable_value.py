"""A value whose indexed attribute no column can hold (a list, an object).

Such a value is refused in its writer's own thread, before it queues: it
never reaches the WAL, and it cannot fail the write group it would have
joined.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS


def _doc(user) -> bytes:
    return json.dumps({"u": user}).encode()


def _options() -> Options:
    return Options(indexed_attributes=("u",))


def test_a_bad_value_fails_alone_and_never_reaches_the_wal():
    vfs = MemoryVFS()
    db = DB.open(vfs, "db", _options())
    # Park the first leader inside its WAL append, so the writers that
    # come after it queue behind it and would commit as one group.
    log = db._log
    add_records = log.add_records
    appending, release = threading.Event(), threading.Event()

    def parked_add_records(payloads):
        if not appending.is_set():
            appending.set()
            assert release.wait(10)
        return add_records(payloads)

    log.add_records = parked_add_records
    errors: dict[bytes, BaseException] = {}

    def put(key: bytes, value: bytes) -> None:
        try:
            db.put(key, value)
        except BaseException as exc:  # noqa: BLE001 - checked below
            errors[key] = exc

    leader = threading.Thread(target=put, args=(b"a", _doc("alice")))
    leader.start()
    assert appending.wait(10)
    bad = threading.Thread(target=put, args=(b"b", _doc(["x", "y"])))
    bad.start()
    bad.join(2)
    good = threading.Thread(target=put, args=(b"c", _doc("carol")))
    good.start()
    while not any(writer.batch is not None
                  and writer.batch.ops[0][1] == b"c"
                  for writer in list(db._writers)):
        good.join(0.001)
    release.set()
    for thread in (leader, bad, good):
        thread.join(10)
        assert not thread.is_alive()
    assert sorted(errors) == [b"b"]
    assert isinstance(errors[b"b"], TypeError)
    assert db.get(b"b") is None
    with db.read_view() as view:
        assert sorted(key for _seq, key in view.memtable_postings(
            "u", b"", b"\xff")) == [b"a", b"c"]
    db.close()
    # Reopening replays the WAL: it holds no record of b.
    db = DB.open(vfs, "db", _options())
    assert [db.get(key) for key in (b"a", b"b", b"c")] == \
        [_doc("alice"), None, _doc("carol")]
    db.close()


def test_an_embedded_put_of_a_list_raises_before_the_commit():
    vfs = MemoryVFS()
    indexes = {"u": IndexKind.EMBEDDED}
    db = SecondaryIndexedDB.open(vfs, "data", indexes, Options())
    db.put("t1", {"u": "alice"})
    with pytest.raises(TypeError):
        db.put("t2", {"u": ["alice"]})
    with pytest.raises(TypeError):
        db.put("t1", {"u": {"name": "alice"}})
    db.put("t3", {"u": "alice"})
    assert [r.key for r in db.lookup("u", "alice")] == ["t3", "t1"]
    db.close()
    db = SecondaryIndexedDB.open(vfs, "data", indexes, Options())
    assert db.get("t2") is None
    assert [r.key for r in db.lookup("u", "alice")] == ["t3", "t1"]
    db.close()
