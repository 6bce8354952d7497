"""Posting-list codec and the Lazy index's merge operator."""

import pytest
from index_helpers import open_db

from repro.core.base import IndexKind
from repro.core.posting import (
    decode_posting_list,
    encode_posting_list,
    merge_fragments,
    normalize,
    posting_merge_operator,
    single_posting_fragment,
)
from repro.lsm.errors import CorruptionError
from repro.lsm.zonemap import encode_attribute


class TestCodec:
    def test_roundtrip(self):
        entries = [["t2", 9], ["t1", 3], ["t0", 1, 1]]
        assert decode_posting_list(encode_posting_list(entries)) == entries

    def test_empty_list(self):
        assert decode_posting_list(encode_posting_list([])) == []

    def test_single_fragment_helper(self):
        fragment = decode_posting_list(single_posting_fragment("t7", 42))
        assert fragment == [["t7", 42]]
        marker = decode_posting_list(
            single_posting_fragment("t7", 43, deleted=True))
        assert marker == [["t7", 43, 1]]

    def test_bad_json(self):
        with pytest.raises(CorruptionError):
            decode_posting_list(b"{not json")

    def test_wrong_shape(self):
        with pytest.raises(CorruptionError):
            decode_posting_list(b'{"a": 1}')
        with pytest.raises(CorruptionError):
            decode_posting_list(b"[[1]]")


class TestNormalize:
    def test_dedup_newest_wins(self):
        entries = [["t1", 5], ["t1", 9], ["t2", 1]]
        assert normalize(entries) == [["t1", 9], ["t2", 1]]

    def test_marker_can_win(self):
        entries = [["t1", 5], ["t1", 9, 1]]
        assert normalize(entries) == [["t1", 9, 1]]

    def test_sorted_newest_first(self):
        entries = [["a", 1], ["b", 9], ["c", 5]]
        assert [seq for _key, seq in normalize(entries)] == [9, 5, 1]


class TestMergeFragments:
    def test_union(self):
        merged = merge_fragments([[["t1", 1]], [["t2", 2]]])
        assert merged == [["t2", 2], ["t1", 1]]

    def test_marker_cancels_older_posting(self):
        merged = merge_fragments([[["t1", 1]], [["t1", 5, 1]]])
        assert merged == [["t1", 5, 1]]

    def test_reinsert_after_marker(self):
        merged = merge_fragments([[["t1", 5, 1]], [["t1", 9]]])
        assert merged == [["t1", 9]]


class TestMergeOperator:
    def test_operator_folds_fragments(self):
        fragments = [single_posting_fragment("t1", 1),
                     single_posting_fragment("t2", 2),
                     single_posting_fragment("t1", 7)]
        merged = decode_posting_list(
            posting_merge_operator(b"u1", fragments))
        assert merged == [["t1", 7], ["t2", 2]]

    def test_associativity(self):
        """Partial merges require (a . b) . c == a . (b . c)."""
        a = single_posting_fragment("x", 1)
        b = single_posting_fragment("y", 2, deleted=True)
        c = single_posting_fragment("x", 3)
        left = posting_merge_operator(
            b"k", [posting_merge_operator(b"k", [a, b]), c])
        right = posting_merge_operator(
            b"k", [a, posting_merge_operator(b"k", [b, c])])
        assert left == right


#: Well-formed JSON arrays whose entries break the posting shapes: a
#: non-int seq, a non-str key, a bool or float seq, a marker other than 1.
MALFORMED = [b'[["a","x"]]', b'[[1,2]]', b'[["a",true]]', b'[["a",1.5]]',
             b'[["a",1,7]]']


@pytest.mark.parametrize("payload", MALFORMED)
class TestMalformedEntries:
    def test_decode_rejects(self, payload):
        with pytest.raises(CorruptionError):
            decode_posting_list(b'[["ok",3],' + payload[1:])

    def test_merge_operator_rejects(self, payload):
        with pytest.raises(CorruptionError):
            posting_merge_operator(b"k", [payload, b'[["b",1]]'])
        with pytest.raises(CorruptionError):
            posting_merge_operator(b"k", [b'[["b",1]]', payload])

    def test_eager_lookup_rejects(self, payload, index_options):
        db = open_db(IndexKind.EAGER, index_options)
        db.put("t1", {"UserID": "u1"})
        db.indexes["UserID"].index_db.put(encode_attribute("u1"), payload)
        with pytest.raises(CorruptionError):
            db.lookup("UserID", "u1")
        db.close()

    def test_lazy_lookup_rejects(self, payload, index_options):
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        db.indexes["UserID"].index_db.merge(encode_attribute("u1"), payload)
        with pytest.raises(CorruptionError):
            db.lookup("UserID", "u1")
        db.close()

    def test_lazy_compaction_rejects(self, payload, index_options):
        """The fold raises the error compaction's failure policy handles:
        nothing installed, inputs live."""
        db = open_db(IndexKind.LAZY, index_options)
        db.put("t1", {"UserID": "u1"})
        index_db = db.indexes["UserID"].index_db
        index_db.merge(encode_attribute("u1"), payload)
        db.put("t2", {"UserID": "u1"})
        index_db.flush()
        files_before = index_db.level_file_counts()
        with pytest.raises(CorruptionError):
            db.indexes["UserID"].compact()
        assert index_db.level_file_counts() == files_before
        db.close()
