"""Property-based tests: the store behaves like a dict, indexes like filters.

Hypothesis drives random operation sequences; the invariants are:

* the DB's visible state equals a dict applying the same operations;
* every index's exhaustive LOOKUP equals a brute-force filter over that
  dict, ordered by recency;
* bloom filters never produce false negatives;
* the posting merge operator is associative (required for partial merges).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.core.posting import posting_merge_operator, single_posting_fragment
from repro.lsm.bloom import BloomFilterBuilder, bloom_may_contain
from repro.lsm.db import DB
from repro.lsm.keys import KIND_DELETE, KIND_MERGE, KIND_VALUE
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _tiny_options(**overrides):
    base = dict(block_size=512, sstable_target_size=2 * 1024,
                memtable_budget=2 * 1024, l1_target_size=8 * 1024,
                compression="none")
    base.update(overrides)
    return Options(**base)


# One operation: (op_code, key_id, value_id)
_ops = st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=5)),
    max_size=300)


class TestDBEqualsDict:
    @given(_ops)
    @_SETTINGS
    def test_store_matches_dict_model(self, operations):
        db = DB.open_memory(_tiny_options())
        model = {}
        for op, key_id, value_id in operations:
            key = f"k{key_id:03d}".encode()
            if op == "put":
                value = (f"v{value_id}" * 10).encode()
                db.put(key, value)
                model[key] = value
            else:
                db.delete(key)
                model.pop(key, None)
        assert dict(db.scan()) == model
        for key_id in range(31):
            key = f"k{key_id:03d}".encode()
            assert db.get(key) == model.get(key)
        db.close()

    @given(_ops)
    @_SETTINGS
    def test_store_matches_dict_after_compaction(self, operations):
        db = DB.open_memory(_tiny_options())
        model = {}
        for op, key_id, value_id in operations:
            key = f"k{key_id:03d}".encode()
            if op == "put":
                value = (f"v{value_id}" * 10).encode()
                db.put(key, value)
                model[key] = value
            else:
                db.delete(key)
                model.pop(key, None)
        db.compact_range()
        assert dict(db.scan()) == model
        db.close()


class TestIndexesEqualFilters:
    @given(_ops, st.sampled_from([IndexKind.EMBEDDED, IndexKind.EAGER,
                                  IndexKind.LAZY, IndexKind.COMPOSITE]))
    @_SETTINGS
    def test_lookup_equals_bruteforce(self, operations, kind):
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind}, options=_tiny_options())
        model = {}
        seqs = {}
        for op, key_id, value_id in operations:
            key = f"k{key_id:03d}"
            if op == "put":
                doc = {"UserID": f"u{value_id}", "Body": "b" * 20}
                seqs[key] = db.put(key, doc)
                model[key] = doc
            else:
                db.delete(key)
                model.pop(key, None)
        for value_id in range(6):
            value = f"u{value_id}"
            got = [(r.seq, r.key) for r in db.lookup(
                "UserID", value, early_termination=False)]
            want = sorted(((seqs[key], key) for key, doc in model.items()
                           if doc["UserID"] == value), reverse=True)
            assert got == want
        db.close()


class TestBloomNeverLies:
    @given(st.sets(st.binary(min_size=1, max_size=20), max_size=200),
           st.integers(min_value=2, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, keys, bits_per_key):
        builder = BloomFilterBuilder(bits_per_key)
        for key in keys:
            builder.add(key)
        blob = builder.finish()
        assert all(bloom_may_contain(blob, key) for key in keys)


class TestMergeOperatorAssociativity:
    _fragment = st.builds(
        single_posting_fragment,
        key=st.text(min_size=1, max_size=5),
        seq=st.integers(min_value=0, max_value=1000),
        deleted=st.booleans())

    @given(_fragment, _fragment, _fragment)
    @settings(max_examples=100, deadline=None)
    def test_associative(self, a, b, c):
        left = posting_merge_operator(
            b"k", [posting_merge_operator(b"k", [a, b]), c])
        right = posting_merge_operator(
            b"k", [a, posting_merge_operator(b"k", [b, c])])
        assert json.loads(left) == json.loads(right)


class TestMemTableSorted:
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    unique=True, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_iteration_sorted(self, keys):
        mem = MemTable()
        for seq, key in enumerate(keys, start=1):
            mem.add(seq, KIND_VALUE, b"%07d" % key, b"")
        assert [e.user_key for e in mem] == sorted(b"%07d" % k for k in keys)

    @given(st.lists(st.tuples(st.sampled_from([b"", b"a", b"ab", b"b", b"c"]),
                              st.integers(min_value=1, max_value=30),
                              st.sampled_from([KIND_VALUE, KIND_DELETE,
                                               KIND_MERGE])),
                    max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_against_sorted_oracle(self, adds):
        """Any insertion order, sequences out of order included."""
        mem = MemTable()
        oracle: dict[tuple[bytes, int], tuple[int, bytes]] = {}
        for key, seq, kind in adds:
            value = b"%s@%d" % (key, seq)
            if (key, seq) in oracle:
                with pytest.raises(KeyError):
                    mem.add(seq, kind, key, value)
                continue
            mem.add(seq, kind, key, value)
            oracle[key, seq] = (kind, value)
        assert len(mem) == len(oracle)
        entries = sorted(oracle, key=lambda ks: (ks[0], -ks[1]))

        def triples(found):
            return [(e.user_key, e.seq, e.kind, e.value) for e in found]

        want = [(key, seq, *oracle[key, seq]) for key, seq in entries]
        assert triples(mem) == want
        for lo in (b"", b"\0", b"a", b"a\0", b"ab", b"abc", b"b", b"c",
                   b"d"):
            assert triples(mem.entries_from(lo)) == \
                [entry for entry in want if entry[0] >= lo]
        for key in (b"", b"a", b"ab", b"b", b"c", b"z"):
            for max_seq in range(32):
                visible = [entry for entry in want
                           if entry[0] == key and entry[1] <= max_seq]
                assert triples(mem.versions(key, max_seq)) == visible
                newest = mem.get(key, max_seq)
                assert triples([newest] if newest else []) == visible[:1]
