"""Dotted-path (nested) secondary attributes."""

import pytest

from index_helpers import open_db

from repro.core.base import IndexKind
from repro.lsm.options import resolve_attribute_path

ALL = [IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
       IndexKind.COMPOSITE, IndexKind.NOINDEX]


class TestPathResolution:
    def test_flat_key(self):
        assert resolve_attribute_path({"a": 1}, "a") == 1

    def test_nested_descent(self):
        doc = {"user": {"id": "u1", "geo": {"city": "NYC"}}}
        assert resolve_attribute_path(doc, "user.id") == "u1"
        assert resolve_attribute_path(doc, "user.geo.city") == "NYC"

    def test_literal_dotted_key_wins(self):
        doc = {"user.id": "flat", "user": {"id": "nested"}}
        assert resolve_attribute_path(doc, "user.id") == "flat"

    def test_missing_steps(self):
        doc = {"user": {"id": "u1"}}
        assert resolve_attribute_path(doc, "user.name") is None
        assert resolve_attribute_path(doc, "nothing.here") is None
        assert resolve_attribute_path(doc, "user.id.deeper") is None

    def test_non_dict_intermediate(self):
        assert resolve_attribute_path({"a": [1, 2]}, "a.b") is None


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.value)
class TestNestedIndexing:
    def test_lookup_on_nested_attribute(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("user.id",))
        for i in range(40):
            db.put(f"t{i:03d}", {"user": {"id": f"u{i % 4}"},
                                 "Body": "x" * 20})
        got = [r.key for r in db.lookup("user.id", "u2",
                                        early_termination=False)]
        assert got == [f"t{i:03d}" for i in range(39, -1, -1) if i % 4 == 2]
        db.close()

    def test_range_on_nested_numeric(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("geo.lat",))
        for i in range(30):
            db.put(f"p{i:03d}", {"geo": {"lat": float(i)}})
        got = sorted(r.key for r in db.range_lookup(
            "geo.lat", 10.0, 14.0, early_termination=False))
        assert got == [f"p{i:03d}" for i in range(10, 15)]
        db.close()

    def test_nested_updates_and_deletes(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("user.id",))
        db.put("t1", {"user": {"id": "u1"}})
        db.put("t1", {"user": {"id": "u2"}})
        assert db.lookup("user.id", "u1", early_termination=False) == []
        assert [r.key for r in db.lookup("user.id", "u2",
                                         early_termination=False)] == ["t1"]
        db.delete("t1")
        assert db.lookup("user.id", "u2", early_termination=False) == []
        db.close()

    def test_records_without_the_path_skipped(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("user.id",))
        db.put("t1", {"user": {"id": "u1"}})
        db.put("t2", {"user": "not-an-object"})
        db.put("t3", {"other": 1})
        got = [r.key for r in db.lookup("user.id", "u1",
                                        early_termination=False)]
        assert got == ["t1"]
        db.close()

    def test_survives_compaction(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("user.id",))
        for i in range(200):
            db.put(f"t{i:03d}", {"user": {"id": f"u{i % 3}"},
                                 "Body": "b" * 30})
        db.compact_all()
        got = [r.key for r in db.lookup("user.id", "u0", k=3,
                                        early_termination=False)]
        assert got == ["t198", "t195", "t192"]
        db.close()
