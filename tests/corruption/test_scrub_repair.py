"""The scrubber (find rot early) and RepairDB (salvage what remains).

The scrubber re-reads every live block with CRC verification *always* on
— ``paranoid_checks`` gates the engine's own reads, never the audit.
Repair treats the directory listing as ground truth, keeps clean tables,
rebuilds partly-bad tables from their good blocks, salvages the WAL with
a fragment-skipping reader, and installs a fresh manifest — dropping
only provably-bad data.
"""

from __future__ import annotations

import pytest

from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.repair import repair_db

from drill_utils import corruption_options, populate, table_files, wal_files


def flip_data_block(vfs, name):
    """Corrupt the first data block of a stored table; returns its offset."""
    from test_containment import block_offsets

    data_offsets, _ = block_offsets(vfs, name)
    vfs.flip_bit(name, data_offsets[0] + 3)
    return data_offsets[0]


class TestScrubber:
    def test_clean_database_scrubs_clean(self, faulty_db):
        _vfs, db, _expected = faulty_db
        report = db.scrub()
        assert report.complete
        assert report.clean
        assert report.tables_scanned >= 2
        assert report.blocks_verified > report.tables_scanned
        assert report.wal_files_verified >= 1
        assert report.manifest_verified

    def test_scrub_ignores_paranoid_checks_setting(self, faulty_db):
        """The satellite guarantee: scrub verifies every CRC even though
        the engine's own reads (paranoid_checks=False here) do not."""
        vfs, db, _expected = faulty_db
        assert not db.options.paranoid_checks
        flip_data_block(vfs, table_files(vfs)[0])
        report = db.scrub()
        assert not report.clean
        assert any("CRC mismatch" in problem for problem in report.problems)

    def test_verify_integrity_ignores_paranoid_checks_too(self, faulty_db):
        vfs, db, _expected = faulty_db
        assert not db.options.paranoid_checks
        flip_data_block(vfs, table_files(vfs)[0])
        report = db.verify_integrity()
        assert not report.ok
        assert any("CRC mismatch" in problem for problem in report.problems)

    def test_scrub_quarantines_under_policy(self, faulty_db):
        vfs, db, expected = faulty_db
        flip_data_block(vfs, table_files(vfs)[0])
        report = db.scrub()
        assert report.quarantined
        assert db.stats()["corruption"]["tables_quarantined"] >= 1
        # After quarantine, reads serve around the rot without error.
        got = dict(db.scan())
        for key, value in got.items():
            assert expected[key] == value
        # A second scrub skips the quarantined file: clean, fewer blocks.
        second = db.scrub()
        assert second.clean
        assert second.blocks_verified < report.blocks_verified

    def test_budgeted_scrub_resumes_to_full_coverage(self, faulty_db):
        _vfs, db, _expected = faulty_db
        full = db.scrub()
        assert db._scrubber.cycles_completed == 1
        slices = []
        report = db.scrub(block_budget=2)
        slices.append(report)
        while not report.complete:
            report = db.scrub(block_budget=2)
            slices.append(report)
        assert len(slices) > 1, "budget of 2 must take several slices"
        assert sum(s.blocks_verified for s in slices) == full.blocks_verified
        assert sum(s.tables_scanned for s in slices) == full.tables_scanned
        assert db._scrubber.cycles_completed == 2

    def test_budgeted_scrub_still_finds_rot(self, faulty_db):
        vfs, db, _expected = faulty_db
        flip_data_block(vfs, table_files(vfs)[-1])  # last table: late find
        problems = []
        report = db.scrub(block_budget=1)
        problems.extend(report.problems)
        while not report.complete:
            report = db.scrub(block_budget=1)
            problems.extend(report.problems)
        assert any("CRC mismatch" in problem for problem in problems)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_smallest_budgets_verify_one_table_per_call(self, faulty_db,
                                                        budget):
        _vfs, db, _expected = faulty_db
        tables = sum(db.level_file_counts())
        slices = []
        while not (slices and slices[-1].complete):
            assert len(slices) < tables, "a scrub slice made no progress"
            slices.append(db.scrub(block_budget=budget))
        assert [s.tables_scanned for s in slices] == [1] * tables
        assert all(s.clean for s in slices)

    @pytest.mark.parametrize("audit", ["scrub", "verify_integrity"])
    def test_scrub_reports_wal_corruption(self, faulty_db, audit):
        vfs, db, _expected = faulty_db
        # Two records after the flush: rot in the *first* is mid-file
        # corruption (a rotten final record is a torn tail by design and
        # ends replay silently instead).
        db.put(b"tail-key-1", b"tail-value")
        db.put(b"tail-key-2", b"tail-value")
        wal = wal_files(vfs)[-1]
        vfs.flip_bit(wal, 10)  # inside the first record's payload
        report = getattr(db, audit)()
        assert any("WAL" in problem for problem in report.problems)


def test_stray_files_with_engine_suffixes_are_left_alone():
    """``notes.log`` is nobody's WAL and ``notes.ldb`` nobody's table:
    scrub, verify, reopen and repair all skip them and touch neither."""
    vfs = FaultInjectingVFS()
    db = DB.open(vfs, "db", corruption_options())
    expected = populate(db)
    strays = {"db/notes.log": b"not a wal", "db/notes.ldb": b"not a table"}
    for name, data in strays.items():
        vfs.write_whole(name, data)
    report = db.scrub()
    assert report.clean, report.problems
    assert report.wal_files_verified == 1
    assert db.verify_integrity().ok
    db.close()
    db = DB.open(vfs, "db", corruption_options())
    assert dict(db.scan()) == expected
    assert db.scrub().clean
    assert db.verify_integrity().ok
    db.close()
    report = repair_db(vfs, "db", corruption_options())
    assert report.problems == []
    assert (report.tables_salvaged, report.tables_dropped) == (0, 0)
    db = DB.open(vfs, "db", corruption_options())
    assert dict(db.scan()) == expected
    assert db.verify_integrity().ok
    db.close()
    for name, data in strays.items():
        assert vfs.read_whole(name) == data


class TestRepair:
    def test_repair_clean_database_is_lossless(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db)
        db.close()
        report = repair_db(vfs, "db", corruption_options())
        assert report.tables_dropped == 0
        assert report.blocks_dropped == 0
        db = DB.open(vfs, "db", corruption_options())
        assert dict(db.scan()) == expected
        assert db.verify_integrity().ok
        db.close()

    def test_repair_salvages_partly_bad_table(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db)
        db.close()
        flip_data_block(vfs, table_files(vfs)[0])
        report = repair_db(vfs, "db", corruption_options())
        assert report.tables_salvaged >= 1
        assert report.blocks_dropped >= 1
        db = DB.open(vfs, "db", corruption_options())
        got = dict(db.scan())
        # Only the bad block's rows are gone; every surviving row is right.
        for key, value in got.items():
            assert expected[key] == value
        assert len(got) < len(expected)
        assert db.verify_integrity().ok
        assert db.scrub().clean
        db.close()

    def test_repair_drops_unreadable_table(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db)
        db.close()
        victim = table_files(vfs)[0]
        # Garble the footer: the table cannot even be opened.
        vfs.garble(victim, vfs.file_size(victim) - 48, 48)
        report = repair_db(vfs, "db", corruption_options())
        assert report.tables_dropped == 1
        db = DB.open(vfs, "db", corruption_options())
        got = dict(db.scan())
        for key, value in got.items():
            assert expected[key] == value
        assert db.verify_integrity().ok
        db.close()

    def test_repair_salvages_wal_records(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db, rows=50)
        # More writes that live only in the WAL (no flush before close).
        for i in range(40):
            key = f"wal{i:03d}".encode()
            db.put(key, b"wal-value")
            expected[key] = b"wal-value"
        db.close()
        assert wal_files(vfs), "unflushed writes leave a WAL behind"
        report = repair_db(vfs, "db", corruption_options())
        assert report.wal_records_salvaged > 0
        db = DB.open(vfs, "db", corruption_options())
        assert dict(db.scan()) == expected
        assert db.verify_integrity().ok
        db.close()

    def test_repair_skips_bad_wal_fragment_keeps_rest(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db, rows=50)
        for i in range(40):
            key = f"wal{i:03d}".encode()
            db.put(key, b"wal-value")
            expected[key] = b"wal-value"
        db.close()
        wal = wal_files(vfs)[-1]
        vfs.flip_bit(wal, 10)
        repair_db(vfs, "db", corruption_options())
        db = DB.open(vfs, "db", corruption_options())
        got = dict(db.scan())
        # Records in the damaged 32 KiB block after the bad fragment are
        # dropped (their framing is untrustworthy); nothing is *wrong*.
        for key, value in got.items():
            assert expected[key] == value
        assert db.verify_integrity().ok
        db.close()

    def test_dry_run_mutates_nothing(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        populate(db)
        db.close()
        flip_data_block(vfs, table_files(vfs)[0])
        before = {name: bytes(data)
                  for name, data in vfs.base._files.items()}
        report = repair_db(vfs, "db", corruption_options(), dry_run=True)
        assert report.dry_run
        assert report.actions, "dry run still reports what it would do"
        after = {name: bytes(data)
                 for name, data in vfs.base._files.items()}
        assert after == before

    def test_repair_is_idempotent(self):
        vfs = FaultInjectingVFS()
        db = DB.open(vfs, "db", corruption_options())
        expected = populate(db)
        db.close()
        flip_data_block(vfs, table_files(vfs)[0])
        repair_db(vfs, "db", corruption_options())
        first = None
        db = DB.open(vfs, "db", corruption_options())
        first = dict(db.scan())
        db.close()
        second_report = repair_db(vfs, "db", corruption_options())
        assert second_report.tables_dropped == 0
        assert second_report.blocks_dropped == 0
        db = DB.open(vfs, "db", corruption_options())
        assert dict(db.scan()) == first
        for key, value in first.items():
            assert expected[key] == value
        db.close()
