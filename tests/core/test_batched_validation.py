"""Stand-alone LOOKUP/RANGELOOKUP: the one batched harvest against the
per-posting walks it replaced.

Eager, Lazy, Composite and the cluster's global index turn postings into
results through ``ValidityChecker.harvest``: candidates newest first, one
batched data-table GET per round of what the top-K heap has room for.  That
is reordering and sharing — a GET's result does not depend on which posting
asked for it — so the answers must equal, in keys, order and sequence
numbers, those of the walks that issued one GET per posting in arrival
order.  Those walks are kept here as the reference.  The second half pins
what the batching buys: validation GETs and data-table block reads.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.core.base import IndexKind, LookupResult
from repro.core.composite import (
    CompositeIndex,
    attribute_prefix,
    prefix_successor,
    split_composite_key,
)
from repro.core.costmodel import CostModel
from repro.core.database import SecondaryIndexedDB
from repro.core.eager import EagerIndex
from repro.core.lazy import LazyIndex
from repro.core.posting import decode_posting_list
from repro.core.records import decode_document, key_to_bytes, key_to_str
from repro.core.topk import TopKBySeq
from repro.core.validity import attribute_equals, attribute_in_range
from repro.dist.cluster import ShardedDB
from repro.lsm.keys import KIND_DELETE, KIND_MERGE, decode_varint
from repro.lsm.options import Options
from repro.lsm.zonemap import encode_attribute

STANDALONE = (IndexKind.EAGER, IndexKind.LAZY, IndexKind.COMPOSITE)
USERS = [f"u{i}" for i in range(6)]


# -- the reference: one GET per posting, in arrival order ------------------------


class PerPostingWalks:
    """The LOOKUP/RANGELOOKUP bodies as they were before the batched harvest.

    ``get_with_seq`` is the data-table GET (a ``DB``'s, or a cluster's routed
    one); ``gets`` counts them.
    """

    def __init__(self, attribute: str, get_with_seq) -> None:
        self.attribute = attribute
        self.get_with_seq = get_with_seq
        self.gets = 0

    def fetch_valid(self, key: bytes, predicate):
        self.gets += 1
        found = self.get_with_seq(key)
        if found is None:
            return None
        value, seq = found
        document = decode_document(value)
        if not predicate(document):
            return None
        return document, seq

    def lookup(self, index, value, k, early_termination):
        walk = {EagerIndex: self.eager_lookup, LazyIndex: self.lazy_lookup,
                CompositeIndex: self.composite_lookup}[type(index)]
        return walk(index, value, k, early_termination)

    def range_lookup(self, index, low, high, k, early_termination):
        walk = {EagerIndex: self.eager_range, LazyIndex: self.lazy_range,
                CompositeIndex: self.composite_range}[type(index)]
        return walk(index, low, high, k, early_termination)

    def _range_predicate(self, low, high):
        return attribute_in_range(self.attribute, encode_attribute(low),
                                  encode_attribute(high))

    # Eager ---------------------------------------------------------------------

    def eager_lookup(self, index, value, k, _early_termination):
        payload = index.index_db.get(encode_attribute(value))
        if payload is None:
            return []
        predicate = attribute_equals(self.attribute, value)
        results = []
        for key, _posting_seq, *marker in decode_posting_list(payload):
            if marker:
                continue
            found = self.fetch_valid(key_to_bytes(key), predicate)
            if found is None:
                continue
            document, seq = found
            results.append(LookupResult(key, document, seq))
            if k is not None and len(results) >= k:
                break
        return results

    def eager_range(self, index, low, high, k, _early_termination):
        low_encoded, high_encoded = \
            encode_attribute(low), encode_attribute(high)
        if low_encoded > high_encoded:
            return []
        predicate = self._range_predicate(low, high)
        heap = TopKBySeq(k)
        seen = set()
        for key, posting_seq, *marker in self._eager_merged(
                index, low_encoded, high_encoded):
            if marker or key in seen:
                continue
            seen.add(key)
            if k is not None and heap.is_full and not \
                    heap.would_accept(posting_seq):
                break
            found = self.fetch_valid(key_to_bytes(key), predicate)
            if found is None:
                continue
            document, seq = found
            heap.add(seq, LookupResult(key, document, seq))
        return heap.results()

    @staticmethod
    def _eager_merged(index, low, high):
        lists = []
        for _key, payload in index.index_db.scan(low, high):
            entries = decode_posting_list(payload)
            if entries:
                lists.append(entries)
        merged = []
        for number, entries in enumerate(lists):
            heapq.heappush(merged, (-entries[0][1], number, 0))
        while merged:
            _neg_seq, number, pos = heapq.heappop(merged)
            yield lists[number][pos]
            if pos + 1 < len(lists[number]):
                heapq.heappush(
                    merged, (-lists[number][pos + 1][1], number, pos + 1))

    # Lazy ----------------------------------------------------------------------

    def lazy_lookup(self, index, value, k, early_termination):
        fragments = index.index_db.fragments_by_level(encode_attribute(value))
        predicate = attribute_equals(self.attribute, value)
        heap = TopKBySeq(k)
        state = (set(), set())
        for _level, entries in fragments:
            if self._lazy_consume_level(entries, heap, state, predicate):
                break
            if early_termination and heap.is_full:
                break
        return heap.results()

    def _lazy_consume_level(self, entries, heap, state, predicate):
        for kind, _seq, payload in entries:
            if kind != KIND_MERGE:
                if kind == KIND_DELETE:
                    return True
                self._lazy_harvest(b"", decode_posting_list(payload), heap,
                                   state, predicate)
                return True
            self._lazy_harvest(b"", decode_posting_list(payload), heap,
                               state, predicate)
        return False

    def _lazy_harvest(self, index_key, postings, heap, state, predicate):
        resolved, cancelled = state
        for key, posting_seq, *marker in postings:
            if key in resolved:
                continue
            scope = (index_key, key)
            if scope in cancelled:
                continue
            if marker:
                cancelled.add(scope)
                continue
            if not heap.would_accept(posting_seq):
                continue
            resolved.add(key)
            found = self.fetch_valid(key_to_bytes(key), predicate)
            if found is None:
                continue
            document, seq = found
            heap.add(seq, LookupResult(key, document, seq))

    def lazy_range(self, index, low, high, k, early_termination):
        low_encoded, high_encoded = \
            encode_attribute(low), encode_attribute(high)
        if low_encoded > high_encoded:
            return []
        predicate = self._range_predicate(low, high)
        heap = TopKBySeq(k)
        state = (set(), set())
        shadowed = set()
        for level in [-1, *range(index.index_db.options.max_levels)]:
            for ikey, payload in index.index_db.scan_level(
                    level, low_encoded, high_encoded):
                if ikey.user_key in shadowed:
                    continue
                if ikey.kind != KIND_MERGE:
                    shadowed.add(ikey.user_key)
                    if ikey.kind == KIND_DELETE:
                        continue
                self._lazy_harvest(ikey.user_key,
                                   decode_posting_list(payload), heap, state,
                                   predicate)
            if early_termination and heap.is_full:
                break
        return heap.results()

    # Composite -----------------------------------------------------------------

    def composite_lookup(self, index, value, k, _early_termination):
        prefix = attribute_prefix(encode_attribute(value))
        candidates = []
        for composite, payload in index.index_db.scan(
                prefix, prefix_successor(prefix)):
            if not composite.startswith(prefix):
                break
            candidates.append((decode_varint(payload, 0)[0],
                               composite[len(prefix):]))
        return self._composite_validate(
            candidates, attribute_equals(self.attribute, value), k)

    def composite_range(self, index, low, high, k, _early_termination):
        low_encoded, high_encoded = \
            encode_attribute(low), encode_attribute(high)
        if low_encoded > high_encoded:
            return []
        scan_lo = attribute_prefix(low_encoded)
        scan_hi = prefix_successor(attribute_prefix(high_encoded))
        candidates = []
        for composite, payload in index.index_db.scan(scan_lo, scan_hi):
            encoded_attr, primary_key = split_composite_key(composite)
            if encoded_attr > high_encoded:
                break
            candidates.append((decode_varint(payload, 0)[0], primary_key))
        return self._composite_validate(
            candidates, self._range_predicate(low, high), k)

    def _composite_validate(self, candidates, predicate, k):
        results = []
        seen = set()
        for _posting_seq, primary_key in sorted(candidates, reverse=True):
            if k is not None and len(results) >= k:
                break
            if primary_key in seen:
                continue
            seen.add(primary_key)
            found = self.fetch_valid(primary_key, predicate)
            if found is None:
                continue
            document, seq = found
            results.append(
                LookupResult(key_to_str(primary_key), document, seq))
        results.sort(key=lambda r: -r.seq)
        return results


# -- seeded streams -----------------------------------------------------------------


def _options() -> Options:
    return Options(block_size=512, sstable_target_size=2 * 1024,
                   memtable_budget=2 * 1024, l1_target_size=8 * 1024)


def _drive(db, seed: int, steps: int = 700) -> dict[str, tuple[dict, int]]:
    """Inserts, updates that move a record to another user (and a new
    time), deletes, flushes and compactions.  Returns ``{key: (doc, seq)}``."""
    rng = random.Random(seed)
    live: dict[str, tuple[dict, int]] = {}
    made = 0
    for step in range(steps):
        roll = rng.random()
        if roll < 0.5 or len(live) < 10:
            key = f"t{made:05d}"
            made += 1
        elif roll < 0.85:
            key = rng.choice(sorted(live))
        else:
            key = rng.choice(sorted(live))
            db.delete(key)
            del live[key]
            continue
        document = {"UserID": rng.choice(USERS), "CreationTime": 1000 + step,
                    "Body": "b" * rng.randrange(20, 60)}
        live[key] = (document, db.put(key, document))
        if step % 90 == 89:
            db.flush()
        if step == 400 and seed % 2:
            db.compact_all()
    return live


def _queries(rng: random.Random, steps: int = 700):
    lookups = [("UserID", user) for user in USERS] + [("UserID", "nobody")]
    ranges = [("UserID", "u1", "u3"), ("UserID", "u0", "u5"),
              ("UserID", "u4", "u2")]
    for _ in range(6):
        start = 1000 + rng.randrange(steps)
        lookups.append(("CreationTime", start))
        ranges.append(("CreationTime", start, start + rng.choice((3, 40, 400))))
    return lookups, ranges


def _flat(results):
    return [(r.key, r.seq, r.document) for r in results]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", STANDALONE, ids=lambda kind: kind.value)
def test_answers_equal_the_per_posting_walks(kind, seed):
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": kind, "CreationTime": kind}, options=_options())
    live = _drive(db, seed)
    assert sum(db.primary.level_file_counts()[1:]) > 0
    lookups, ranges = _queries(random.Random(seed))
    reference = {attribute: PerPostingWalks(attribute,
                                            db.primary.get_with_seq)
                 for attribute in ("UserID", "CreationTime")}
    nonempty = 0
    for k in (1, 5, None):
        for early in (True, False):
            for attribute, value in lookups:
                got = db.lookup(attribute, value, k, early)
                want = reference[attribute].lookup(
                    db.indexes[attribute], value, k, early)
                assert _flat(got) == _flat(want), (attribute, value, k, early)
                nonempty += bool(got)
            for attribute, low, high in ranges:
                got = db.range_lookup(attribute, low, high, k, early)
                want = reference[attribute].range_lookup(
                    db.indexes[attribute], low, high, k, early)
                assert _flat(got) == _flat(want), \
                    (attribute, low, high, k, early)
                nonempty += bool(got)
    assert nonempty > 60
    # And the exhaustive form is the exact answer.
    for user in USERS:
        want = sorted(((seq, key) for key, (doc, seq) in live.items()
                       if doc["UserID"] == user), reverse=True)
        got = db.lookup("UserID", user, None, early_termination=False)
        assert [(r.seq, r.key) for r in got] == want
    db.close()


def test_eager_lookup_is_newest_first_after_a_rebuild():
    """A rebuilt posting list answers as the list the write path left
    (``rebuild_index`` replays in sequence order, not key order)."""
    db = SecondaryIndexedDB.open_memory(indexes={"UserID": IndexKind.EAGER})
    for key in ("a", "z", "m"):
        db.put(key, {"UserID": "u1"})
    want = [r.key for r in db.lookup("UserID", "u1")]
    assert want == ["m", "z", "a"]
    db.rebuild_index("UserID")
    assert [r.key for r in db.lookup("UserID", "u1")] == want
    assert [r.key for r in db.lookup("UserID", "u1", k=1)] == ["m"]
    assert [r.key for r in db.range_lookup("UserID", "u0", "u2", k=2)] \
        == ["m", "z"]
    db.close()


def test_gsi_cluster_equals_its_oracle_and_the_per_posting_walk():
    cluster = ShardedDB.open_memory(
        num_shards=3, global_indexes=("UserID", "CreationTime"),
        options=_options(), replication_factor=2)
    live = _drive(cluster, seed=11, steps=500)

    def routed_get(key: bytes):
        shard = cluster.data_shards[cluster.ring.shard_of(key)]
        return shard.primary.get_with_seq(key)

    def oracle(matches, k):
        ranked = sorted(((seq, key) for key, (doc, seq) in live.items()
                         if matches(doc)), reverse=True)
        return ranked if k is None else ranked[:k]

    lookups, ranges = _queries(random.Random(11), steps=500)
    for k in (1, 5, None):
        for attribute, value in lookups:
            gsi = cluster.global_indexes[attribute]
            walk = PerPostingWalks(attribute, routed_get)
            shard = gsi.shards[gsi.partitioner.shard_of(
                encode_attribute(value))]
            contacted = cluster.data_shards_contacted
            for early in (True, False):
                got = cluster.lookup(attribute, value, k, early)
                assert _flat(got) == _flat(
                    walk.lazy_lookup(shard, value, k, early))
            # LOOKUP is exact with or without early termination.
            assert [(r.seq, r.key) for r in got] == oracle(
                lambda doc: doc[attribute] == value, k)
            # The routed batch still charges one shard contact per key.
            assert cluster.data_shards_contacted - contacted == walk.gets
        for attribute, low, high in ranges:
            got = cluster.range_lookup(attribute, low, high, k,
                                       early_termination=False)
            assert [(r.seq, r.key) for r in got] == oracle(
                lambda doc: low <= doc[attribute] <= high, k)
    cluster.close()


# -- what the batching buys: GETs and blocks -------------------------------------------


def _static_tweets(kind: IndexKind, count: int = 600) -> SecondaryIndexedDB:
    """A static load: 20 tweets per second of ``CreationTime``, compacted."""
    db = SecondaryIndexedDB.open_memory(
        indexes={"UserID": kind, "CreationTime": kind},
        options=Options(block_size=1024, sstable_target_size=8 * 1024,
                        memtable_budget=8 * 1024, l1_target_size=32 * 1024))
    for i in range(count):
        db.put(f"t{i:05d}", {"UserID": f"u{i % 12}",
                             "CreationTime": 1000 + i // 20,
                             "Body": "b" * 40})
    db.compact_all()
    return db


def _primary_data_reads(db: SecondaryIndexedDB, query) -> int:
    before = db.primary.vfs.stats.snapshot()
    query()
    return db.primary.vfs.stats.delta(before).reads_by_category.get("data", 0)


def test_lazy_time_range_costs_k_gets_not_one_per_posting():
    """A level's posting lists arrive in *attribute* order — on a
    time-correlated attribute oldest list first, so each of the window's
    three lists offers K postings newer than the heap's root and the
    per-posting walk GETs 3 x K records for K results."""
    db = _static_tweets(IndexKind.LAZY)
    walk = PerPostingWalks("CreationTime", db.primary.get_with_seq)
    want = walk.lazy_range(db.indexes["CreationTime"], 1010, 1012, 10, True)
    assert walk.gets == 30
    gets_before = db.checker.validation_gets
    blocks = _primary_data_reads(
        db, lambda: _flat(db.range_lookup("CreationTime", 1010, 1012, k=10)))
    assert db.checker.validation_gets - gets_before == 10
    # The ten newest tweets of the window are neighbours in the data table.
    assert blocks <= 4
    assert _flat(db.range_lookup("CreationTime", 1010, 1012, k=10)) \
        == _flat(want)
    assert [r.key for r in want] == [f"t{i:05d}" for i in range(259, 249, -1)]
    db.close()


@pytest.mark.parametrize("kind", STANDALONE, ids=lambda kind: kind.value)
def test_validation_gets_are_bounded_by_k_plus_stale_candidates(kind):
    db = _static_tweets(kind)
    # Static load: every candidate is live, a LOOKUP examines exactly K.
    gets_before = db.checker.validation_gets
    results = sum(len(db.lookup("UserID", f"u{user}", k=10))
                  for user in range(12))
    assert results == 120
    assert (db.checker.validation_gets - gets_before) / results == 1.0
    # Move the 7 newest u3 tweets to another user: their u3 postings go
    # stale and are the first candidates a LOOKUP(u3) meets.
    u3_newest_first = [f"t{i:05d}" for i in range(599, -1, -1) if i % 12 == 3]
    for key in u3_newest_first[:7]:
        db.put(key, {"UserID": "moved", "CreationTime": 2000, "Body": "x"})
    gets_before = db.checker.validation_gets
    got = db.lookup("UserID", "u3", k=10)
    assert [r.key for r in got] == u3_newest_first[7:17]
    assert db.checker.validation_gets - gets_before <= 10 + 7
    db.close()


@pytest.mark.parametrize("kind", STANDALONE, ids=lambda kind: kind.value)
def test_lookup_block_reads_stay_inside_the_table5_bound(kind):
    """Table 5: a stand-alone LOOKUP costs at most ``K' + 1`` (Eager) or
    ``K' + L`` (Lazy, Composite) block reads — the index reads plus one per
    validation GET.  Batching only takes reads away from the second term.

    One allowance, for Composite: the paper counts one index read per
    level, but a value's composite keys are a *range* that may straddle a
    block boundary, so its index term is up to ``2 L``.
    """
    db = _static_tweets(kind)
    index_db = db.indexes["UserID"].index_db
    levels = index_db.num_nonempty_levels()
    model = CostModel(levels=levels)
    straddle = levels if kind == IndexKind.COMPOSITE else 0
    db.lookup("UserID", "u0")  # open the tables: a first touch reads metadata
    for user in range(12):
        for k in (1, 10, None):
            data_before = db.primary.vfs.stats.read_blocks
            index_before = index_db.vfs.stats.read_blocks
            gets_before = db.checker.validation_gets
            assert db.lookup("UserID", f"u{user}", k)
            data = db.primary.vfs.stats.read_blocks - data_before
            index = index_db.vfs.stats.read_blocks - index_before
            examined = db.checker.validation_gets - gets_before
            assert examined == (50 if k is None else k)
            assert data <= examined, (user, k)
            assert data + index <= \
                model.lookup_cost(kind, examined) + straddle, (user, k)
    db.close()
