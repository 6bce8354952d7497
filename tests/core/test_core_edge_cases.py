"""Core-layer edge cases across all index variants."""

import pytest

from index_helpers import open_db

from repro.core.base import IndexKind
from repro.lsm.errors import InvalidArgumentError

ALL = [IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
       IndexKind.COMPOSITE, IndexKind.NOINDEX]


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.value)
class TestAttributeValueTypes:
    def test_unicode_values(self, index_options, kind):
        db = open_db(kind, index_options)
        db.put("t1", {"UserID": "ユーザー✓"})
        db.put("t2", {"UserID": "ユーザー✓"})
        got = [r.key for r in db.lookup("UserID", "ユーザー✓",
                                        early_termination=False)]
        assert got == ["t2", "t1"]
        db.close()

    def test_numeric_values(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("score",))
        for i in range(30):
            db.put(f"t{i:02d}", {"score": i % 5})
        got = {r.key for r in db.lookup("score", 3,
                                        early_termination=False)}
        assert got == {f"t{i:02d}" for i in range(30) if i % 5 == 3}
        db.close()

    def test_negative_and_float_ranges(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("delta",))
        values = [-2.5, -1.0, 0.0, 0.5, 1.5, 3.0]
        for i, value in enumerate(values):
            db.put(f"t{i}", {"delta": value})
        got = sorted(r.document["delta"] for r in db.range_lookup(
            "delta", -1.5, 1.0, early_termination=False))
        assert got == [-1.0, 0.0, 0.5]
        db.close()

    def test_int_and_float_equivalent_in_range(self, index_options, kind):
        db = open_db(kind, index_options, attributes=("n",))
        db.put("a", {"n": 2})
        db.put("b", {"n": 2.0})
        got = {r.key for r in db.range_lookup("n", 1.5, 2.5,
                                              early_termination=False)}
        assert got == {"a", "b"}
        db.close()

    def test_missing_attribute_never_matches(self, index_options, kind):
        db = open_db(kind, index_options)
        db.put("t1", {"Other": "x"})
        db.put("t2", {"UserID": None})  # null attribute: not indexed
        assert db.lookup("UserID", "x", early_termination=False) == []
        assert db.lookup("UserID", "y", early_termination=False) == []
        db.close()

    def test_querying_for_none_raises(self, index_options, kind):
        """``val(A) not null`` is the indexing rule; None is unqueryable."""
        db = open_db(kind, index_options)
        db.put("t1", {"UserID": "u1"})
        with pytest.raises(TypeError):
            db.lookup("UserID", None)
        db.close()


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.value)
class TestQueryEdges:
    def test_empty_database(self, index_options, kind):
        db = open_db(kind, index_options)
        assert db.lookup("UserID", "anyone") == []
        assert db.range_lookup("UserID", "a", "z") == []
        db.close()

    def test_k_larger_than_matches(self, index_options, kind):
        db = open_db(kind, index_options)
        db.put("t1", {"UserID": "u1"})
        results = db.lookup("UserID", "u1", k=100)
        assert [r.key for r in results] == ["t1"]
        db.close()

    def test_k_one(self, index_options, kind):
        db = open_db(kind, index_options)
        for i in range(20):
            db.put(f"t{i:02d}", {"UserID": "u1"})
        results = db.lookup("UserID", "u1", k=1)
        assert [r.key for r in results] == ["t19"]
        db.close()

    def test_single_point_range(self, index_options, kind):
        db = open_db(kind, index_options)
        db.put("t1", {"UserID": "u1"})
        db.put("t2", {"UserID": "u2"})
        got = [r.key for r in db.range_lookup("UserID", "u1", "u1",
                                              early_termination=False)]
        assert got == ["t1"]
        db.close()

    def test_everything_deleted(self, index_options, kind):
        db = open_db(kind, index_options)
        for i in range(30):
            db.put(f"t{i:02d}", {"UserID": "u1"})
        for i in range(30):
            db.delete(f"t{i:02d}")
        assert db.lookup("UserID", "u1", early_termination=False) == []
        db.compact_all()
        assert db.lookup("UserID", "u1", early_termination=False) == []
        db.close()

    @pytest.mark.parametrize("k", [0, -1, True, 2.5, "3"])
    def test_k_that_is_not_a_positive_int_is_refused(self, index_options,
                                                      kind, k):
        db = open_db(kind, index_options)
        for i in range(5):
            db.put(f"t{i}", {"UserID": "u1"})
        with pytest.raises(InvalidArgumentError, match="k must be"):
            db.lookup("UserID", "u1", k=k)
        with pytest.raises(InvalidArgumentError, match="k must be"):
            db.range_lookup("UserID", "u0", "u2", k=k)
        assert len(db.lookup("UserID", "u1", k=2)) == 2
        db.close()

    def test_results_carry_full_documents(self, index_options, kind):
        db = open_db(kind, index_options)
        doc = {"UserID": "u1", "Body": "text", "extra": [1, {"n": 2}]}
        db.put("t1", doc)
        results = db.lookup("UserID", "u1", early_termination=False)
        assert results[0].document == doc
        assert results[0].value == doc  # paper-notation alias
        db.close()


@pytest.mark.parametrize("kind", ALL, ids=lambda k: k.value)
def test_value_flapping(index_options, kind):
    """A record oscillating between two values must always land exactly
    where its latest version says."""
    db = open_db(kind, index_options)
    for round_number in range(9):
        db.put("flapper", {"UserID": f"u{round_number % 2}"})
        expected_user = f"u{round_number % 2}"
        other_user = f"u{(round_number + 1) % 2}"
        assert [r.key for r in db.lookup(
            "UserID", expected_user, early_termination=False)] == ["flapper"]
        assert db.lookup("UserID", other_user,
                         early_termination=False) == []
    db.close()
