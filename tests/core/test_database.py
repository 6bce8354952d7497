"""The SecondaryIndexedDB facade."""

import pytest

from index_helpers import load_tweets, open_db

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.errors import DBClosedError, InvalidArgumentError


class TestBaseOperations:
    def test_put_get_delete(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1", "Body": "hello"})
        assert db.get("t1") == {"UserID": "u1", "Body": "hello"}
        db.delete("t1")
        assert db.get("t1") is None
        db.close()

    def test_put_returns_increasing_seq(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        s1 = db.put("t1", {"UserID": "u1"})
        s2 = db.put("t2", {"UserID": "u1"})
        assert s2 > s1
        db.close()

    def test_bytes_keys_accepted(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put(b"t1", {"UserID": "u1"})
        assert db.get(b"t1") == {"UserID": "u1"}
        db.close()

    def test_lookup_on_unindexed_attribute_raises(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        with pytest.raises(InvalidArgumentError):
            db.lookup("Body", "hello")
        with pytest.raises(InvalidArgumentError):
            db.range_lookup("Body", "a", "z")
        db.close()

    def test_closed_rejects_operations(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.close()
        with pytest.raises(DBClosedError):
            db.put("t1", {"UserID": "u1"})
        db.close()  # idempotent

    def test_context_manager(self, index_options):
        with open_db(IndexKind.LAZY, index_options) as db:
            db.put("t1", {"UserID": "u1"})
        with pytest.raises(DBClosedError):
            db.get("t1")


class TestMixedIndexes:
    def test_different_kinds_per_attribute(self, index_options):
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": IndexKind.LAZY,
                     "CreationTime": IndexKind.EMBEDDED},
            options=index_options)
        for i in range(40):
            db.put(f"t{i:03d}", {"UserID": f"u{i % 4}",
                                 "CreationTime": 1000 + i})
        assert [r.key for r in db.lookup("UserID", "u1", k=2)] == \
            ["t037", "t033"]
        got = db.range_lookup("CreationTime", 1010, 1012,
                              early_termination=False)
        assert sorted(r.key for r in got) == ["t010", "t011", "t012"]
        db.close()

    def test_unknown_kind_rejected(self, index_options):
        with pytest.raises(InvalidArgumentError):
            SecondaryIndexedDB.open_memory(
                indexes={"UserID": "not-a-kind"}, options=index_options)


class TestDeleteSemantics:
    def test_delete_costs_a_get_with_standalone_indexes(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        db.flush()
        reads_before = db.primary.vfs.stats.read_blocks
        db.delete("t1")
        assert db.primary.vfs.stats.read_blocks > reads_before
        db.close()

    def test_delete_free_with_embedded_only(self, index_options):
        db = open_db(IndexKind.EMBEDDED, index_options)
        db.put("t1", {"UserID": "u1"})
        db.flush()
        reads_before = db.primary.vfs.stats.read_blocks
        db.delete("t1")
        assert db.primary.vfs.stats.read_blocks == reads_before
        db.close()

    def test_delete_of_missing_key(self, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.delete("ghost")  # must not raise
        assert db.get("ghost") is None
        db.close()


class TestIntrospection:
    def test_size_breakdown_shapes(self, index_options):
        """Figure 8a's ordering: Embedded adds no index table."""
        sizes = {}
        for kind in (IndexKind.EMBEDDED, IndexKind.LAZY, IndexKind.EAGER,
                     IndexKind.NOINDEX):
            db = open_db(kind, index_options)
            load_tweets(db, 300, users=10)
            db.flush()
            breakdown = db.size_breakdown()
            sizes[kind] = sum(breakdown.values())
            if kind in (IndexKind.EMBEDDED, IndexKind.NOINDEX):
                assert breakdown["index:UserID"] == 0
            else:
                assert breakdown["index:UserID"] > 0
            db.close()
        assert sizes[IndexKind.LAZY] > sizes[IndexKind.NOINDEX]
        assert sizes[IndexKind.EAGER] > sizes[IndexKind.NOINDEX]

    def test_io_stats_shape(self, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        load_tweets(db, 100)
        db.lookup("UserID", "u1", k=3)
        stats = db.io_stats()
        assert "primary" in stats
        assert "index:UserID" in stats
        assert stats["validation_gets"] > 0
        db.close()

    def test_total_size(self, index_options):
        db = open_db(IndexKind.COMPOSITE, index_options)
        load_tweets(db, 200)
        db.flush()
        assert db.total_size() == sum(db.size_breakdown().values())
        db.close()


class TestConsistencyUnderUpdates:
    def test_heavy_update_churn(self, index_options):
        for kind in (IndexKind.EMBEDDED, IndexKind.LAZY, IndexKind.EAGER,
                     IndexKind.COMPOSITE):
            db = open_db(kind, index_options)
            # Write each key 3 times, rotating users.
            for round_number in range(3):
                for i in range(60):
                    db.put(f"t{i:03d}",
                           {"UserID": f"u{(i + round_number) % 6}"})
            # Final assignment: user of t_i is u_{(i + 2) % 6}.
            for user_index in range(6):
                got = {r.key for r in db.lookup(
                    "UserID", f"u{user_index}", early_termination=False)}
                want = {f"t{i:03d}" for i in range(60)
                        if (i + 2) % 6 == user_index}
                assert got == want, (kind, user_index)
            db.close()


class TestCrossTableIntegrity:
    STAND_ALONE = (IndexKind.EAGER, IndexKind.LAZY, IndexKind.COMPOSITE)

    @pytest.mark.parametrize("kind", STAND_ALONE, ids=lambda k: k.value)
    def test_stale_entries_pass(self, index_options, kind):
        db = open_db(kind, index_options)
        load_tweets(db, 120, users=6)
        for i in range(0, 120, 7):  # move records: old entries go stale
            db.put(f"t{i:05d}", {"UserID": "moved"})
        db.delete("t00003")
        reports = db.verify_integrity()
        assert all(report.ok for report in reports.values()), reports
        db.close()

    @pytest.mark.parametrize("kind", STAND_ALONE, ids=lambda k: k.value)
    def test_record_missing_from_the_index_fails(self, index_options, kind):
        from repro.core.records import encode_document

        db = open_db(kind, index_options)
        load_tweets(db, 30)
        # Written past the facade: the primary has it, the index never will.
        db.primary.put(b"orphan", encode_document({"UserID": "u1"}))
        reports = db.verify_integrity()
        assert reports["primary"].ok
        assert not reports["index:UserID"].ok
        assert any("'orphan'" in problem
                   for problem in reports["index:UserID"].problems)
        db.rebuild_index("UserID")
        assert all(report.ok for report in db.verify_integrity().values())
        db.close()

    @pytest.mark.parametrize("policy", ["raise", "quarantine"])
    @pytest.mark.parametrize("kind", STAND_ALONE, ids=lambda k: k.value)
    @pytest.mark.parametrize("rotten", ["primary", "index"])
    def test_bad_block_is_reported_not_raised(self, index_options, kind,
                                              policy, rotten):
        from dataclasses import replace

        from repro.lsm.vfs import MemoryVFS

        vfs = MemoryVFS()
        db = SecondaryIndexedDB.open(
            vfs, "data", {"UserID": kind},
            options=replace(index_options, compression="none",
                            on_corruption=policy))
        load_tweets(db, 120)
        db.flush()
        folder = "data/primary/" if rotten == "primary" \
            else f"data/index-{kind.value}-UserID/"
        tables = [n for n in vfs.list_dir(folder) if n.endswith(".ldb")]
        assert tables
        for name in tables:
            vfs._files[name][40] ^= 0xFF  # inside the first data block
        reports = db.verify_integrity()
        label = "primary" if rotten == "primary" else "index:UserID"
        assert not reports[label].ok
        assert all(report.ok for other, report in reports.items()
                   if other != label), reports
        # The audit only reads: it quarantines nothing.
        assert db.quarantined_indexes() == []
        assert all(not table.quarantined_tables()
                   for _label, table in db.tables())
        db.close()
