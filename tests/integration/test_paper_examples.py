"""The paper's worked examples (Examples 1-3, Tables 4a/4b)."""

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.core.posting import decode_posting_list
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute


def _open(kind):
    options = Options(block_size=1024, sstable_target_size=4 * 1024,
                      memtable_budget=4 * 1024, l1_target_size=16 * 1024)
    return SecondaryIndexedDB.open_memory(
        indexes={"UserID": kind}, options=options)


class TestExample2:
    """PUT(t1,u1) PUT(t2,u1) PUT(t3,u2) PUT(t4,u2) — Tables 4a and 4b:
    UserIndex must read u1 -> [t2, t1] and u2 -> [t4, t3]."""

    def _load(self, db):
        db.put("t1", {"UserID": "u1", "text": "t1 text"})
        db.put("t2", {"UserID": "u1", "text": "t2 text"})
        db.put("t3", {"UserID": "u2", "text": "t3 text"})
        db.put("t4", {"UserID": "u2", "text": "t4 text"})

    def test_eager_index_state_matches_table_4b(self):
        db = _open(IndexKind.EAGER)
        self._load(db)
        index = db.indexes["UserID"]
        u1_list = decode_posting_list(
            index.index_db.get(encode_attribute("u1")))
        u2_list = decode_posting_list(
            index.index_db.get(encode_attribute("u2")))
        assert [e[0] for e in u1_list] == ["t2", "t1"]
        assert [e[0] for e in u2_list] == ["t4", "t3"]
        db.close()

    def test_lookup_results_all_variants(self):
        for kind in IndexKind:
            db = _open(kind)
            self._load(db)
            assert [r.key for r in db.lookup("UserID", "u1")] == ["t2", "t1"]
            assert [r.key for r in db.lookup("UserID", "u2")] == ["t4", "t3"]
            db.close()


class TestExample3:
    """PUT(t3, {u1, ...}) after Example 2: t3 moves from u2 to u1.

    Figure 4-6 show each index's state transition; observable here is that
    all variants must now answer u1 -> [t3, t2, t1], u2 -> [t4]."""

    def test_update_moves_record_between_posting_lists(self):
        for kind in IndexKind:
            db = _open(kind)
            db.put("t1", {"UserID": "u1", "text": "t text"})
            db.put("t2", {"UserID": "u1", "text": "t2 text"})
            db.put("t3", {"UserID": "u2", "text": "t3 text"})
            db.put("t4", {"UserID": "u2", "text": "t4 text"})
            db.put("t3", {"UserID": "u1", "text": "t text"})
            assert [r.key for r in db.lookup("UserID", "u1")] == \
                ["t3", "t2", "t1"], kind
            assert [r.key for r in db.lookup("UserID", "u2")] == ["t4"], kind
            # The move must survive compaction too (Figures 4-6 show the
            # post-compaction states).
            db.compact_all()
            assert [r.key for r in db.lookup("UserID", "u1")] == \
                ["t3", "t2", "t1"], kind
            assert [r.key for r in db.lookup("UserID", "u2")] == ["t4"], kind
            db.close()


class TestExample1LazyVsEager:
    """Example 1: the Lazy PUT writes a fragment without reading; the Eager
    PUT performs a read-modify-write."""

    def test_write_path_reads_differ(self):
        eager_db = _open(IndexKind.EAGER)
        lazy_db = _open(IndexKind.LAZY)
        for i in range(50):
            eager_db.put(f"t{i}", {"UserID": "u1"})
            lazy_db.put(f"t{i}", {"UserID": "u1"})
        eager_reads = eager_db.indexes["UserID"].index_db.vfs.stats.read_blocks
        lazy_reads = lazy_db.indexes["UserID"].index_db.vfs.stats.read_blocks
        assert eager_db.indexes["UserID"].write_path_reads == 50
        assert lazy_reads <= eager_reads
        eager_db.close()
        lazy_db.close()
