"""Randomized equivalence: every index variant vs a brute-force oracle.

The defining correctness property of the paper's system: all five
techniques answer LOOKUP and RANGELOOKUP identically (they differ only in
cost).  A randomized stream of PUTs, updates and DELs is applied through
the facade, and exhaustive queries are compared against an in-memory model.
"""

import random

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute

ALL_KINDS = [IndexKind.EMBEDDED, IndexKind.EAGER, IndexKind.LAZY,
             IndexKind.COMPOSITE, IndexKind.NOINDEX]


def _options():
    return Options(block_size=1024, sstable_target_size=4 * 1024,
                   memtable_budget=4 * 1024, l1_target_size=16 * 1024)


def _apply_random_ops(db, seed, num_ops, num_keys=400, num_users=20):
    rng = random.Random(seed)
    oracle = {}
    for i in range(num_ops):
        key = f"t{rng.randrange(num_keys):05d}"
        roll = rng.random()
        if roll < 0.10:
            db.delete(key)
            oracle.pop(key, None)
        else:
            doc = {"UserID": f"u{rng.randrange(num_users):03d}",
                   "CreationTime": i,
                   "Body": "x" * rng.randrange(30)}
            seq = db.put(key, doc)
            oracle[key] = (doc, seq)
    return oracle


def _oracle_lookup(oracle, attribute, value):
    matches = [(seq, key) for key, (doc, seq) in oracle.items()
               if doc.get(attribute) == value]
    return sorted(matches, reverse=True)


def _oracle_range(oracle, attribute, low, high):
    low_encoded = encode_attribute(low)
    high_encoded = encode_attribute(high)
    matches = []
    for key, (doc, seq) in oracle.items():
        attr_value = doc.get(attribute)
        if attr_value is None:
            continue
        if low_encoded <= encode_attribute(attr_value) <= high_encoded:
            matches.append((seq, key))
    return sorted(matches, reverse=True)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
class TestLookupEquivalence:
    def test_exhaustive_lookups(self, kind):
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind, "CreationTime": kind},
            options=_options())
        oracle = _apply_random_ops(db, seed=101, num_ops=2000)
        for user_index in range(20):
            value = f"u{user_index:03d}"
            got = [(r.seq, r.key) for r in db.lookup(
                "UserID", value, early_termination=False)]
            assert got == _oracle_lookup(oracle, "UserID", value)
        db.close()

    def test_finite_k_exhaustive_scan(self, kind):
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind}, options=_options())
        oracle = _apply_random_ops(db, seed=102, num_ops=1500)
        for k in (1, 3, 10):
            for user_index in range(0, 20, 4):
                value = f"u{user_index:03d}"
                got = [(r.seq, r.key) for r in db.lookup(
                    "UserID", value, k=k, early_termination=False)]
                assert got == _oracle_lookup(oracle, "UserID", value)[:k]
        db.close()

    def test_range_lookups(self, kind):
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind, "CreationTime": kind},
            options=_options())
        oracle = _apply_random_ops(db, seed=103, num_ops=1500)
        got = [(r.seq, r.key) for r in db.range_lookup(
            "UserID", "u005", "u012", early_termination=False)]
        assert got == _oracle_range(oracle, "UserID", "u005", "u012")
        got = [(r.seq, r.key) for r in db.range_lookup(
            "CreationTime", 500, 900, early_termination=False)]
        assert got == _oracle_range(oracle, "CreationTime", 500, 900)
        db.close()

    def test_early_termination_results_are_valid_and_ordered(self, kind):
        """With early termination (the paper's default), finite-K answers
        must still be correctly ordered live matches — the approximation
        only concerns *which* of the oldest qualifying records appear."""
        db = SecondaryIndexedDB.open_memory(
            indexes={"UserID": kind}, options=_options())
        oracle = _apply_random_ops(db, seed=104, num_ops=1500)
        for user_index in range(0, 20, 3):
            value = f"u{user_index:03d}"
            results = db.lookup("UserID", value, k=5)
            truth = _oracle_lookup(oracle, "UserID", value)
            assert len(results) == min(5, len(truth))
            seqs = [r.seq for r in results]
            assert seqs == sorted(seqs, reverse=True)
            truth_map = dict((key, seq) for seq, key in truth)
            for result in results:
                assert truth_map.get(result.key) == result.seq
        db.close()


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_equivalence_after_full_compaction(kind):
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": kind}, options=_options())
    oracle = _apply_random_ops(db, seed=105, num_ops=1200)
    db.compact_all()
    for user_index in range(0, 20, 2):
        value = f"u{user_index:03d}"
        got = [(r.seq, r.key) for r in db.lookup(
            "UserID", value, early_termination=False)]
        assert got == _oracle_lookup(oracle, "UserID", value)
        # Post-compaction, even paper-default early termination is exact
        # for top-K lookups.
        got_k = [(r.seq, r.key) for r in db.lookup("UserID", value, k=4)]
        assert got_k == _oracle_lookup(oracle, "UserID", value)[:4]
    db.close()


def _apply_time_ordered_ops(db, seed, num_ops, num_users=20):
    """Mostly new keys in key order (a tweet stream), with updates of recent
    and of old records and deletes — the load whose tables get moved."""
    rng = random.Random(seed)
    oracle = {}
    written = 0
    for i in range(num_ops):
        roll = rng.random()
        if roll < 0.80 or not written:
            key = f"t{written:05d}"
            written += 1
        elif roll < 0.92:
            key = f"t{rng.randrange(max(0, written - 50), written):05d}"
        else:
            key = f"t{rng.randrange(written):05d}"
        if roll >= 0.95:
            db.delete(key)
            oracle.pop(key, None)
            continue
        doc = {"UserID": f"u{rng.randrange(num_users):03d}",
               "CreationTime": i, "Body": "x" * rng.randrange(30)}
        oracle[key] = (doc, db.put(key, doc))
    return oracle


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_equivalence_across_trivial_moves(kind):
    """A moved table changes level, not content: GetLite's "levels above the
    match" and Lazy's "fragments only migrate downward" both survive it."""
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": kind, "CreationTime": kind}, options=_options())
    oracle = _apply_time_ordered_ops(db, seed=106, num_ops=2500)
    assert db.primary.stats()["compaction"]["trivial_moves"] > 0
    for k in (None, 1, 5):
        for user_index in range(0, 20, 3):
            value = f"u{user_index:03d}"
            got = [(r.seq, r.key) for r in db.lookup(
                "UserID", value, k=k, early_termination=False)]
            assert got == _oracle_lookup(oracle, "UserID", value)[:k]
        for attribute, low, high in (("UserID", "u005", "u012"),
                                     ("CreationTime", 700, 1900)):
            got = [(r.seq, r.key) for r in db.range_lookup(
                attribute, low, high, k=k, early_termination=False)]
            assert got == _oracle_range(oracle, attribute, low, high)[:k]
    db.close()
