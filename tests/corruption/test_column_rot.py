"""The Embedded index's metadata through rot, scrub and repair.

The attribute column (FORMAT.md §4.3) is derived data, like the blooms: a
rotten column block costs a read its byte compares — the table's blocks are
parsed instead — but never an answer.  The scrubber reports it, and repair
rewrites the table with a fresh column.  Repair also keeps the Embedded
index whole when it is given no options (as the CLI gives none): it reads
the indexed attributes off the tables it audits.
"""

from __future__ import annotations

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.errors import CorruptionError
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.manifest import list_db_files
from repro.lsm.repair import repair_db

from drill_utils import corruption_options, meta_block_offset, table_files

INDEXES = {"CreationTime": IndexKind.EMBEDDED, "UserID": IndexKind.EMBEDDED}
COLUMN = "column.secondary.UserID"


def _load(db: SecondaryIndexedDB) -> None:
    for i in range(300):
        db.put(f"t{i:05d}", {"UserID": f"u{i % 10}", "CreationTime": 1000 + i,
                             "Body": "b" * 40})
    for i in range(0, 300, 7):  # updates: older versions stay behind
        db.put(f"t{i:05d}", {"UserID": f"u{(i + 3) % 10}",
                             "CreationTime": 2000 + i, "Body": "c" * 40})
    db.flush()


def _answers(db: SecondaryIndexedDB) -> list[list[tuple]]:
    """Exact answers (no early termination), so a repair that moves every
    table to level 0 cannot change them."""
    answers = []
    for k in (1, 10, None):
        for user in range(10):
            answers.append(db.lookup("UserID", f"u{user}", k, False))
        answers.append(db.range_lookup("UserID", "u2", "u6", k, False))
        answers.append(db.range_lookup("CreationTime", 1100, 1180, k, False))
    return [[(r.key, r.seq, r.document) for r in answer]
            for answer in answers]


def _assert_embedded_metadata(db: SecondaryIndexedDB) -> None:
    for _level, meta in db.primary.versions.current.all_files():
        assert set(meta.secondary_zonemaps) == set(INDEXES)
        table = db.primary.table_cache.get(meta.file_number)
        assert set(table.secondary_filters) == set(INDEXES)
        assert set(table.secondary_columns) == set(INDEXES)


@pytest.mark.parametrize("policy", ["raise", "quarantine"])
def test_rotten_column_is_scrubbed_and_repaired(policy):
    options = corruption_options(on_corruption=policy)
    vfs = FaultInjectingVFS()
    db = SecondaryIndexedDB.open(vfs, "data", INDEXES, options)
    _load(db)
    expected = _answers(db)
    db.close()

    number, victim = min(list_db_files(vfs, "data/primary").tables.items())
    vfs.flip_bit(victim, meta_block_offset(vfs, victim, COLUMN) + 3)
    db = SecondaryIndexedDB.open(vfs, "data", INDEXES, options)
    if policy == "quarantine":
        assert _answers(db) == expected  # column dropped, blocks parsed
    else:
        with pytest.raises(CorruptionError):
            _answers(db)
    report = db.primary.scrub()
    assert any(f"table {number}" in problem for problem in report.problems)
    if policy == "quarantine":
        assert any(COLUMN in problem for problem in report.problems)
    db.close()

    report = repair_db(vfs, "data/primary", options)
    assert (report.tables_salvaged, report.tables_dropped,
            report.blocks_dropped) == (1, 0, 0)
    db = SecondaryIndexedDB.open(vfs, "data", INDEXES, options)
    assert db.primary.verify_integrity().ok
    assert db.primary.scrub().clean
    _assert_embedded_metadata(db)
    assert _answers(db) == expected
    db.close()


def test_repair_without_options_keeps_embedded_metadata():
    options = corruption_options()
    vfs = FaultInjectingVFS()
    db = SecondaryIndexedDB.open(vfs, "data", INDEXES, options)
    _load(db)
    expected = _answers(db)
    db.close()
    # One table loses its primary filter: it is rewritten, the rest kept.
    victim = table_files(vfs, "data/primary")[0]
    vfs.flip_bit(victim, meta_block_offset(vfs, victim, "filter.primary") + 3)

    report = repair_db(vfs, "data/primary")
    assert report.tables_salvaged == 1 and report.tables_kept >= 1
    db = SecondaryIndexedDB.open(vfs, "data", INDEXES, options)
    _assert_embedded_metadata(db)
    assert _answers(db) == expected
    index = db.indexes["CreationTime"]
    index.files_pruned = 0
    db.range_lookup("CreationTime", 1000, 1010, k=None)
    assert index.files_pruned > 0  # the file-level zone maps survived
    db.close()
