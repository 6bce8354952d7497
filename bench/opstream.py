"""Deterministic operation streams and the plain-dict oracle that checks them.

The load generator is the ``workloads`` layer: tweets come from
``repro.workloads.tweets.TweetGenerator`` (the paper's seed-dataset shape:
Zipf users, time-correlated CreationTime, padded bodies) and the operation
mixes from ``repro.workloads.generator.MIXED_RATIOS`` (Table 7b).  The
program under test only ever sees the generated operations; the seed never
reaches it.

Operations are plain tuples so they serialise byte-for-byte
(:func:`encode_ops`) and dispatch cheaply::

    ("put", key, document)            # an update is a put of a known key
    ("get", key)
    ("lookup", attribute, value, k)
    ("range", attribute, low, high, k)
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Any, Iterable

from repro.core.records import encode_document
from repro.workloads.generator import StaticWorkload
from repro.workloads.tweets import SeedProfile, TweetGenerator

Op = tuple
#: The paper's seed dataset averages 30 tweets per user.
TWEETS_PER_USER = 30


def users_for(num_tweets: int) -> int:
    return max(5, num_tweets // TWEETS_PER_USER)


def user_bytes(key: str, document: dict) -> int:
    """Bytes of user data in one record, as the engine stores it."""
    return len(key.encode("utf-8")) + len(encode_document(document))


def encode_ops(ops: Iterable[Op]) -> bytes:
    """Canonical bytes of an op stream (same seed -> identical bytes)."""
    return json.dumps(list(ops), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class StreamBuilder:
    """One seeded source of tweets and of operations over them.

    Successive calls continue the same tweet-id and clock sequence, so a
    workload can preload, then run one mix, then another, against one
    database, with updates and GETs aimed at keys that exist.
    """

    def __init__(self, seed: int, num_users: int,
                 lookup_attribute: str = "UserID") -> None:
        self.num_users = num_users
        self.lookup_attribute = lookup_attribute
        self._tweets = TweetGenerator(SeedProfile(num_users=num_users), seed)
        self._rng = random.Random(seed ^ 0xBEEF)
        self.keys: list[str] = []
        #: Every attribute value written so far, repeats kept: sampling it
        #: queries hot users proportionally more often, as the paper does.
        self.values: list[Any] = []

    def _fresh(self) -> tuple[str, dict]:
        key, document = self._tweets.next_tweet()
        self.values.append(document[self.lookup_attribute])
        return key, document

    def load(self, count: int) -> list[Op]:
        """``count`` inserts of new tweets, in arrival order."""
        ops = []
        for _ in range(count):
            key, document = self._fresh()
            self.keys.append(key)
            ops.append(("put", key, document))
        return ops

    def mixed(self, count: int, ratios: dict[str, float], lookup_k: int = 5,
              frozen_targets: bool = False) -> list[Op]:
        """``count`` ops drawn with Table 7(b)-style ``ratios``.

        ``frozen_targets`` aims every GET at a key that existed before this
        call: the expected answer then does not depend on how two client
        threads interleave the stream (it must contain no updates).
        """
        put_cut = ratios.get("put", 0.0)
        get_cut = put_cut + ratios.get("get", 0.0)
        lookup_cut = get_cut + ratios.get("lookup", 0.0)
        if frozen_targets and ratios.get("update", 0.0):
            raise ValueError("frozen_targets needs an update-free mix")
        if not self.keys:
            raise ValueError("mixed() needs preloaded keys to aim at")
        rng = self._rng
        targets = list(self.keys) if frozen_targets else self.keys
        ops: list[Op] = []
        for _ in range(count):
            roll = rng.random()
            if roll < put_cut:
                key, document = self._fresh()
                self.keys.append(key)
                ops.append(("put", key, document))
            elif roll < get_cut:
                ops.append(("get", rng.choice(targets)))
            elif roll < lookup_cut:
                ops.append(("lookup", self.lookup_attribute,
                            rng.choice(self.values), lookup_k))
            else:
                _unused_key, document = self._fresh()
                ops.append(("put", rng.choice(self.keys), document))
        return ops

    def lookups(self, count: int, k: int = 10) -> list[Op]:
        return [("lookup", self.lookup_attribute,
                 self._rng.choice(self.values), k) for _ in range(count)]

    def user_ranges(self, count: int, span_users: int = 5,
                    k: int = 10) -> list[Op]:
        """RANGELOOKUPs over ``span_users`` adjacent user ids."""
        max_start = max(0, self.num_users - span_users)
        ops = []
        for _ in range(count):
            start = self._rng.randint(0, max_start)
            ops.append(("range", "UserID", f"u{start:05d}",
                        f"u{start + span_users - 1:05d}", k))
        return ops


def static_queries(workload: StaticWorkload, gets: int, lookups: int,
                   time_ranges: int, user_ranges: int,
                   k: int = 10) -> dict[str, list[Op]]:
    """The Static workload's query phases as op tuples (Figs. 8c/10/11).

    Time windows are 3 s wide and user ranges 5 users wide: with K=10 both
    return full pages at this dataset's 35 tweets/s and 30 tweets/user.
    """
    return {
        "get": [("get", op.key) for op in workload.gets(gets)],
        "lookup": [("lookup", op.attribute, op.value, op.k)
                   for op in workload.lookups(lookups, "UserID", k)],
        "range_time": [("range", op.attribute, op.low, op.high, op.k)
                       for op in workload.time_range_lookups(
                           time_ranges, 3.0 / 60.0, k)],
        "range_user": [("range", op.attribute, op.low, op.high, op.k)
                       for op in workload.user_range_lookups(
                           user_ranges, 5, k)],
    }


class Oracle:
    """The reference answers: a dict of live documents and their write seqs.

    ``seq`` is whatever the system returned for the PUT, so "most recent"
    means what the system itself committed to — also when two client
    threads race.
    """

    def __init__(self) -> None:
        self.docs: dict[str, dict] = {}
        self.seqs: dict[str, int] = {}
        self._indexes: dict[str, tuple[list, dict]] = {}

    def put(self, key: str, document: dict, seq: int) -> None:
        self.docs[key] = document
        self.seqs[key] = seq
        self._indexes.clear()

    def live_bytes(self) -> int:
        return sum(user_bytes(key, document)
                   for key, document in self.docs.items())

    def _index(self, attribute: str) -> tuple[list, dict]:
        index = self._indexes.get(attribute)
        if index is None:
            by_value: dict[Any, list[tuple[int, str]]] = {}
            for key, document in self.docs.items():
                value = document.get(attribute)
                if value is not None:
                    by_value.setdefault(value, []).append(
                        (self.seqs[key], key))
            index = (sorted(by_value), by_value)
            self._indexes[attribute] = index
        return index

    def lookup(self, attribute: str, value: Any, k: int | None) -> list[str]:
        """Keys of the ``k`` most recent live records with that value."""
        return self.range(attribute, value, value, k)

    def range(self, attribute: str, low: Any, high: Any,
              k: int | None) -> list[str]:
        values, by_value = self._index(attribute)
        hits: list[tuple[int, str]] = []
        for value in values[bisect.bisect_left(values, low):
                            bisect.bisect_right(values, high)]:
            hits.extend(by_value[value])
        hits.sort(reverse=True)
        return [key for _seq, key in (hits if k is None else hits[:k])]

    def expected(self, op: Op) -> list[str]:
        if op[0] == "lookup":
            return self.lookup(op[1], op[2], op[3])
        if op[0] == "range":
            return self.range(op[1], op[2], op[3], op[4])
        raise ValueError(f"no expected key list for {op[0]!r}")
