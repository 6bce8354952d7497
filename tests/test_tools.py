"""The maintenance CLI (python -m repro)."""

import io

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.vfs import LocalVFS
from repro.tools import _parse_index_map, main


@pytest.fixture
def populated_dir(tmp_path):
    directory = str(tmp_path)
    options = Options(block_size=1024, sstable_target_size=4 * 1024,
                      memtable_budget=4 * 1024, l1_target_size=16 * 1024)
    db = DB.open(LocalVFS(directory), "db", options)
    for i in range(300):
        db.put(f"k{i:04d}".encode(), f"value-{i}".encode())
    db.flush()
    db.close()
    return directory


class TestStats:
    def test_reports_shape(self, populated_dir):
        out = io.StringIO()
        status = main(["stats", populated_dir, "db"], out)
        text = out.getvalue()
        lines = {line.strip() for line in text.splitlines()}
        assert status == 0
        assert "last_sequence: 300" in lines
        assert "L0:" in text or "L1:" in text
        assert "total size:" in text
        assert "compaction_count: 0" in lines
        assert {"trivial_moves: 0", "bytes_moved: 0"} <= lines
        assert "pipeline:" in text
        assert "background: False" in lines
        assert "imm_pending: 0" in lines
        assert "compaction_queue_depth:" in text
        assert "stall_events: 0" in lines


class TestDump:
    def test_dumps_in_key_order(self, populated_dir):
        out = io.StringIO()
        status = main(["dump", populated_dir, "db", "--limit", "5"], out)
        text = out.getvalue()
        assert status == 0
        assert "b'k0000'" in text
        assert "stopped at --limit 5" in text

    def test_full_dump_counts_entries(self, populated_dir):
        out = io.StringIO()
        main(["dump", populated_dir, "db"], out)
        assert "300 entries" in out.getvalue()


class TestVerify:
    def test_clean_database(self, populated_dir):
        out = io.StringIO()
        status = main(["verify", populated_dir, "db"], out)
        assert status == 0
        assert "OK" in out.getvalue()

    def test_corrupted_database(self, populated_dir):
        vfs = LocalVFS(populated_dir)
        corrupted = None
        for name in vfs.list_dir("db/"):
            if name.endswith(".ldb"):
                corrupted = name
                break
        assert corrupted is not None
        import os

        path = os.path.join(populated_dir, corrupted)
        with open(path, "r+b") as handle:
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))
        out = io.StringIO()
        status = main(["verify", populated_dir, "db"], out)
        assert status == 1
        assert "PROBLEM" in out.getvalue()


def _corrupt_first_table(directory, offset=40):
    import os

    vfs = LocalVFS(directory)
    corrupted = next(name for name in vfs.list_dir("db/")
                     if name.endswith(".ldb"))
    path = os.path.join(directory, corrupted)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return corrupted


class TestScrub:
    def test_clean_database(self, populated_dir):
        out = io.StringIO()
        status = main(["scrub", populated_dir, "db"], out)
        text = out.getvalue()
        assert status == 0
        assert "OK" in text
        assert "manifest: ok" in text

    def test_corrupted_database(self, populated_dir):
        _corrupt_first_table(populated_dir)
        out = io.StringIO()
        status = main(["scrub", populated_dir, "db"], out)
        assert status == 1
        assert "PROBLEM" in out.getvalue()
        assert "CRC mismatch" in out.getvalue()


class TestRepair:
    def test_repair_clean_database_keeps_everything(self, populated_dir):
        out = io.StringIO()
        status = main(["repair", populated_dir, "db"], out)
        assert status == 0
        assert "tables dropped:  0" in out.getvalue()
        verify_out = io.StringIO()
        assert main(["verify", populated_dir, "db"], verify_out) == 0

    def test_repair_salvages_corruption(self, populated_dir):
        _corrupt_first_table(populated_dir)
        assert main(["verify", populated_dir, "db"], io.StringIO()) == 1
        out = io.StringIO()
        status = main(["repair", populated_dir, "db"], out)
        assert status == 0
        # Repair restores a consistent view: verify and scrub both pass.
        assert main(["verify", populated_dir, "db"], io.StringIO()) == 0
        assert main(["scrub", populated_dir, "db"], io.StringIO()) == 0
        # Surviving rows still dump in order.
        dump = io.StringIO()
        assert main(["dump", populated_dir, "db"], dump) == 0
        assert "entries" in dump.getvalue()

    def test_dry_run_changes_nothing(self, populated_dir):
        import os

        _corrupt_first_table(populated_dir)
        db_dir = os.path.join(populated_dir, "db")

        def snapshot():
            return {name: os.path.getsize(os.path.join(db_dir, name))
                    for name in os.listdir(db_dir)}

        before = snapshot()
        out = io.StringIO()
        status = main(["repair", populated_dir, "db", "--dry-run"], out)
        assert status == 0
        assert "dry-run:" in out.getvalue()
        assert snapshot() == before
        # Still corrupt afterwards — nothing was silently fixed.
        assert main(["verify", populated_dir, "db"], io.StringIO()) == 1


USERS = ["u0", "u1", "u2"]


def _open_store(directory):
    # A MemTable no write fills: every record stays in the shared WAL.
    return SecondaryIndexedDB.open(
        LocalVFS(directory), "data", {"UserID": IndexKind.LAZY},
        Options(memtable_budget=1 << 30))


@pytest.fixture
def indexed_dir(tmp_path):
    """An indexed store closed with its records only in the primary's WAL,
    which holds the Lazy index table's records too."""
    directory = str(tmp_path)
    db = _open_store(directory)
    for i in range(60):
        db.put(f"t{i:03d}", {"UserID": USERS[i % 3], "Body": "b" * i})
    db.close()
    return directory


def _assert_store_whole(directory, rows=60):
    db = _open_store(directory)
    try:
        assert len(list(db.scan())) == rows
        found = sum(len(db.lookup("UserID", user, None)) for user in USERS)
        assert found == rows
        assert all(report.ok for report in db.verify_integrity().values())
    finally:
        db.close()


class TestIndexedStore:
    """The single-table tools over a store whose index tables log through
    the primary's WAL (``data/primary``) and have none of their own."""

    @pytest.mark.parametrize("command", ["stats", "dump", "verify", "scrub"])
    def test_primary_tools_keep_the_index_records(self, indexed_dir,
                                                  command):
        out = io.StringIO()
        assert main([command, indexed_dir, "data/primary"], out) == 0
        if command == "dump":
            assert "60 entries" in out.getvalue()
        # Twice: a tool's own reopen must keep the WAL it cannot replay.
        assert main([command, indexed_dir, "data/primary"],
                    io.StringIO()) == 0
        _assert_store_whole(indexed_dir)

    @pytest.mark.parametrize("command", ["stats", "verify", "scrub"])
    def test_index_table_tools(self, indexed_dir, command):
        db = _open_store(indexed_dir)
        db.flush()
        db.close()
        out = io.StringIO()
        assert main([command, indexed_dir, "data/index-lazy-UserID"],
                    out) == 0
        _assert_store_whole(indexed_dir)

    def test_dump_prints_an_index_tables_operand_chains(self, indexed_dir):
        db = _open_store(indexed_dir)
        db.flush()
        db.close()
        out = io.StringIO()
        assert main(["dump", indexed_dir, "data/index-lazy-UserID"],
                    out) == 0
        lines = out.getvalue().splitlines()
        assert lines[-1] == "3 entries"
        # One posting fragment per PUT, unfolded: no merge operator.
        assert all("=> 20 merge operands, unfolded (newest first): " in line
                   for line in lines[:-1])
        _assert_store_whole(indexed_dir)

    def test_repair_keeps_a_clean_wal_for_the_index(self, indexed_dir):
        out = io.StringIO()
        assert main(["repair", indexed_dir, "data/primary"], out) == 0
        text = out.getvalue()
        assert "wal records:     60" in text
        assert "60 of table 'index-lazy-UserID'" in text
        assert main(["verify", indexed_dir, "data/primary"],
                    io.StringIO()) == 0
        _assert_store_whole(indexed_dir)

    def test_repair_reports_index_records_it_drops(self, indexed_dir):
        import os

        wal = next(name for name in os.listdir(
            os.path.join(indexed_dir, "data", "primary"))
            if name.endswith(".log"))
        path = os.path.join(indexed_dir, "data", "primary", wal)
        with open(path, "r+b") as handle:
            handle.seek(200)  # inside an early record, not the tail
            byte = handle.read(1)
            handle.seek(200)
            handle.write(bytes([byte[0] ^ 0xFF]))
        out = io.StringIO()
        assert main(["repair", indexed_dir, "data/primary"], out) == 0
        assert "dropped the records of other tables it holds" \
            in out.getvalue()
        assert "of table 'index-lazy-UserID'" in out.getvalue()
        db = _open_store(indexed_dir)
        try:
            # The cross-table check names what the index lost, and a
            # rebuild from the primary brings it back.
            reports = db.verify_integrity()
            assert not reports["index:UserID"].ok
            db.rebuild_index("UserID")
            assert all(report.ok for report in db.verify_integrity().values())
        finally:
            db.close()


class TestMissingDatabase:
    @pytest.mark.parametrize("command", ["stats", "dump", "verify", "scrub"])
    def test_inspecting_creates_nothing(self, tmp_path, command):
        missing = tmp_path / "nodb"
        out = io.StringIO()
        assert main([command, str(missing), "db"], out) != 0
        assert out.getvalue() == f"no database at {missing / 'db'}\n"
        assert not missing.exists()
        # A directory without the database is left as it was, too.
        assert main([command, str(tmp_path), "db"], io.StringIO()) != 0
        assert list(tmp_path.iterdir()) == []


class TestArgumentParsing:
    def test_missing_command(self, populated_dir):
        with pytest.raises(SystemExit):
            main([], io.StringIO())

    def test_profile_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["profile", "nosuch"], io.StringIO())

    def test_serve_indexes_refuse_a_repeated_attribute(self):
        out = io.StringIO()
        assert _parse_index_map("UserID=lazy,UserID=eager", out) is None
        assert out.getvalue() == "repeated --indexes attribute 'UserID'\n"
        assert _parse_index_map("UserID=lazy,Time=eager", out) == {
            "UserID": IndexKind.LAZY, "Time": IndexKind.EAGER}


class TestProfile:
    def test_profile_put_prints_report(self):
        out = io.StringIO()
        status = main(["profile", "put", "--ops", "50", "--top", "5"], out)
        assert status == 0
        report = out.getvalue()
        assert "function calls" in report
        assert "cumulative" in report

    def test_profile_get_hits_engine_internals(self):
        out = io.StringIO()
        status = main(["profile", "get", "--ops", "40", "--top", "40"], out)
        assert status == 0
        assert "get_with_seq" in out.getvalue()
