"""Crash drill for an indexed store: GET and LOOKUP agree on every image.

A PUT, an update, a DELETE and an index-table flush of a
``SecondaryIndexedDB`` are crashed before each of their mutating
filesystem operations (:func:`repro.lsm.faults.crash_points`), in both
image modes.  Whatever survives, the store must never hold a record that
GET returns and an exhaustive LOOKUP misses (or the other way round): a
crash may lose an unacknowledged write, never half of one.  The primary
write and its index entries commit as one WAL record, so they survive or
vanish together.  ``verify_integrity`` (which includes the cross-table
check) must pass on every recovered image too.
"""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.faults import crash_points, run_until_crash
from repro.lsm.options import Options

KINDS = [IndexKind.EAGER, IndexKind.LAZY, IndexKind.COMPOSITE,
         IndexKind.EMBEDDED]
USERS = ["u0", "u1", "u2", "u9"]


def _options() -> Options:
    return Options(sync_writes=True, compression="none")


def _doc(user: str, step: int) -> dict:
    return {"UserID": user, "CreationTime": step, "Body": "b" * 20}


def _workload(kind: IndexKind):
    """Four PUTs, an update that moves a record to another ``UserID``, a
    DELETE, an index-table flush while the primary's WAL still holds
    records, and two more PUTs."""
    def run(vfs) -> None:
        db = SecondaryIndexedDB.open(vfs, "data", {"UserID": kind},
                                     _options())
        for step in range(4):
            db.put(f"t{step}", _doc(USERS[step % 3], step))
        db.put("t1", _doc("u9", 4))
        db.delete("t2")
        db.indexes["UserID"].flush()
        db.put("t5", _doc("u0", 5))
        db.put("t2", _doc("u1", 6))
        db.close()
    return run


def _get_and_lookup_keys(db: SecondaryIndexedDB) -> tuple[set, set]:
    by_get = {key for key, _document in db.scan()}
    by_lookup = {result.key for user in USERS
                 for result in db.lookup("UserID", user, None,
                                         early_termination=False)}
    return by_get, by_lookup


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_get_equals_exhaustive_lookup_after_every_crash(kind):
    workload = _workload(kind)
    points = crash_points(workload)
    assert len(points) > 20
    disagreements = []
    for at_op in points:
        crashed = run_until_crash(workload, at_op)
        for mode in ("drop", "torn"):
            db = SecondaryIndexedDB.open(crashed.crash_image(mode), "data",
                                         {"UserID": kind}, _options())
            try:
                by_get, by_lookup = _get_and_lookup_keys(db)
                if by_get != by_lookup:
                    disagreements.append((at_op, mode, by_get, by_lookup))
                for label, report in db.verify_integrity().items():
                    assert report.ok, (at_op, mode, label, report.problems)
            finally:
                db.close()
    assert not disagreements, (
        f"{len(disagreements)} of {2 * len(points)} images disagree; "
        f"first: {disagreements[0]}")
