"""Integrity verification and fault injection."""

import random

import pytest

from repro.lsm.checker import verify_integrity
from repro.lsm.db import DB
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS


def _options(**overrides):
    base = dict(block_size=1024, sstable_target_size=4 * 1024,
                memtable_budget=4 * 1024, l1_target_size=16 * 1024,
                compression="none", indexed_attributes=("UserID",))
    base.update(overrides)
    return Options(**base)


def _build(vfs=None, count=800):
    import json

    vfs = vfs or MemoryVFS()
    db = DB.open(vfs, "db", _options())
    rng = random.Random(13)
    for i in range(count):
        doc = {"UserID": f"u{rng.randrange(40)}", "Body": "x" * 40}
        db.put(f"k{i:05d}".encode(), json.dumps(doc).encode())
    db.flush()
    return vfs, db


class TestHealthyDatabase:
    def test_clean_report(self):
        _vfs, db = _build()
        report = verify_integrity(db)
        assert report.ok, report.problems
        assert report.tables_checked > 0
        assert report.entries_checked == 800 or report.entries_checked > 0
        assert report.blocks_checked > 0
        db.close()

    def test_clean_after_compaction(self):
        _vfs, db = _build()
        db.compact_range()
        report = verify_integrity(db)
        assert report.ok, report.problems
        db.close()

    def test_clean_after_reopen(self):
        vfs, db = _build()
        db.close()
        db2 = DB.open(vfs, "db", _options())
        assert verify_integrity(db2).ok
        db2.close()

    def test_empty_database(self):
        db = DB.open_memory(_options())
        report = verify_integrity(db)
        assert report.ok
        assert report.tables_checked == 0
        db.close()


class TestFaultInjection:
    def _some_live_table(self, db):
        for _level, meta in db.versions.current.all_files():
            return meta
        raise AssertionError("no tables")

    def test_flipped_data_byte_detected(self):
        vfs, db = _build()
        meta = self._some_live_table(db)
        name = table_file_name("db", meta.file_number)
        # Flip a byte early in the file (inside a data block).
        vfs._files[name][50] ^= 0xFF
        db.table_cache.evict(meta.file_number)
        report = verify_integrity(db)
        assert not report.ok
        assert any("block" in problem for problem in report.problems)
        db.close()

    def test_truncated_file_detected(self):
        vfs, db = _build()
        meta = self._some_live_table(db)
        name = table_file_name("db", meta.file_number)
        del vfs._files[name][len(vfs._files[name]) // 2:]
        db.table_cache.evict(meta.file_number)
        report = verify_integrity(db)
        assert not report.ok
        db.close()

    def test_deleted_live_file_detected(self):
        vfs, db = _build()
        meta = self._some_live_table(db)
        vfs.delete(table_file_name("db", meta.file_number))
        db.table_cache.evict(meta.file_number)
        report = verify_integrity(db)
        assert any("missing" in problem for problem in report.problems)
        db.close()

    def test_size_mismatch_detected(self):
        vfs, db = _build()
        meta = self._some_live_table(db)
        name = table_file_name("db", meta.file_number)
        vfs._files[name].extend(b"garbage-tail")
        report = verify_integrity(db)
        assert any("size" in problem for problem in report.problems)
        db.close()

    def test_manifest_metadata_mismatch_detected(self):
        _vfs, db = _build()
        meta = self._some_live_table(db)
        meta.num_entries += 5  # lie in the in-memory manifest state
        report = verify_integrity(db)
        assert any("entries" in problem for problem in report.problems)
        db.close()

    def test_unsound_secondary_bloom_detected(self, monkeypatch):
        """A filter that rejects a *present* value silently loses query
        results; the checker must flag it.  Injected by sabotaging the
        filters as the checker's fresh table handle loads them."""
        import repro.lsm.sstable as sstable_module

        real_sstable = sstable_module.SSTable

        class SabotagedSSTable(real_sstable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                blooms = self.secondary_filters.get("UserID")
                if blooms and blooms[0]:
                    # All-zero bit array: rejects everything.
                    blooms[0] = bytes(len(blooms[0]) - 1) + blooms[0][-1:]

        _vfs, db = _build(count=300)
        monkeypatch.setattr(sstable_module, "SSTable", SabotagedSSTable)
        report = verify_integrity(db)
        assert any("bloom" in problem for problem in report.problems)
        db.close()

    def test_unsound_zone_map_detected(self, monkeypatch):
        import repro.lsm.sstable as sstable_module
        from repro.lsm.zonemap import ZoneMap, encode_attribute

        real_sstable = sstable_module.SSTable
        bogus = ZoneMap(encode_attribute("zzz-low"),
                        encode_attribute("zzz-high"))

        class SabotagedSSTable(real_sstable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                zonemaps = self.secondary_zonemaps.get("UserID")
                if zonemaps:
                    zonemaps[0] = bogus

        _vfs, db = _build(count=300)
        monkeypatch.setattr(sstable_module, "SSTable", SabotagedSSTable)
        report = verify_integrity(db)
        assert any("zone map" in problem for problem in report.problems)
        db.close()

    @pytest.mark.parametrize("sabotage", ["column", "bloom"])
    def test_nested_attribute_disagreeing_metadata_detected(
            self, monkeypatch, sabotage):
        """A dotted attribute is audited like a flat one: its column must
        match each entry's recomputed encoding, its bloom admit the value."""
        import json

        import repro.lsm.sstable as sstable_module

        real_sstable = sstable_module.SSTable

        class SabotagedSSTable(real_sstable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if sabotage == "column":
                    column = self.secondary_columns["user.id"][0]
                    column[0] = b"s" + column[0][1:] + b"-not-this"
                else:
                    blooms = self.secondary_filters["user.id"]
                    blooms[0] = bytes(len(blooms[0]) - 1) + blooms[0][-1:]

        db = DB.open(MemoryVFS(), "db",
                     _options(indexed_attributes=("user.id",)))
        for i in range(300):
            doc = {"user": {"id": f"u{i % 40}"}, "Body": "x" * 40}
            db.put(f"k{i:05d}".encode(), json.dumps(doc).encode())
        db.flush()
        assert verify_integrity(db).ok
        monkeypatch.setattr(sstable_module, "SSTable", SabotagedSSTable)
        report = verify_integrity(db)
        assert any(sabotage in problem and "'user.id'" in problem
                   for problem in report.problems), report.problems
        db.close()

    def test_audits_close_every_file_handle(self, tmp_path):
        """Open, scrub, verify of a table with a garbled footer, and repair
        leave no file handle on LocalVFS for the garbage collector."""
        import gc
        import os
        import warnings

        from repro.lsm.repair import repair_db
        from repro.lsm.vfs import LocalVFS

        directory = str(tmp_path)
        _vfs, db = _build(LocalVFS(directory))
        victim = table_file_name("db", self._some_live_table(db).file_number)
        db.close()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            DB.open(LocalVFS(directory), "db", _options()).close()
            db = DB.open(LocalVFS(directory), "db", _options())
            assert db.scrub().clean
            db.close()
            with open(os.path.join(directory, victim), "r+b") as handle:
                handle.seek(-48, os.SEEK_END)
                handle.write(b"\xa5" * 48)
            db = DB.open(LocalVFS(directory), "db", _options())
            assert not db.verify_integrity().ok
            db.close()
            assert repair_db(LocalVFS(directory), "db").tables_dropped == 1
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_random_corruption_sweep(self):
        """Any single flipped byte inside a table is either harmless to
        decoding (caught by CRC) or detected some other way — never a
        silent pass with changed content."""
        rng = random.Random(77)
        for _round in range(5):
            vfs, db = _build(count=300)
            meta = self._some_live_table(db)
            name = table_file_name("db", meta.file_number)
            data = vfs._files[name]
            position = rng.randrange(len(data) - 60)
            data[position] ^= 0x55
            db.table_cache.evict(meta.file_number)
            report = verify_integrity(db)
            assert not report.ok, f"flip at {position} went undetected"
            db.close()
