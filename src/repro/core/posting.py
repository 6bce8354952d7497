"""Posting lists: the value format of the Eager and Lazy index tables.

A posting list maps one secondary-attribute value to the primary keys that
carry it, "similarly to an inverted index in Information Retrieval"
(Section 4.1).  Following the paper, lists are serialized as JSON arrays —
the JSON parsing/merging overhead is part of what the paper measures as the
Lazy index's compaction CPU cost — with each entry carrying the data-table
sequence number ("we attach a sequence number to each entry in the postings
list on every write").

A posting is its decoded JSON entry (a str pk, an int seq)::

    [pk, seq]        a live posting
    [pk, seq, 1]     a deletion marker (Lazy DEL writes these; they cancel
                     older postings of pk when fragments merge)

Lists are kept newest-first, at most one entry per primary key, and written
in the canonical encoding of docs/FORMAT.md §5; decoding checks each entry's
shape.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from repro.lsm.errors import CorruptionError

posting_key = itemgetter(0)
posting_seq = itemgetter(1)
# One encoder for every call: ``json.dumps`` with non-default separators
# builds a new ``JSONEncoder`` each time.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_posting_list(entries: list[list]) -> bytes:
    """Serialize postings (assumed newest-first) as a JSON array."""
    return _encode_json(entries).encode("ascii")


def decode_posting_list(payload: bytes) -> list[list]:
    """Parse and check a stored posting list; order is preserved."""
    try:
        entries = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise CorruptionError(f"bad posting list: {exc}") from exc
    if type(entries) is not list:
        raise CorruptionError("posting list is not a JSON array")
    # C-level passes, each run once the previous held; ``type`` bars bools.
    if not (set(map(type, entries)) <= {list}
            and (lengths := set(map(len, entries))) <= {2, 3}
            and set(map(type, map(posting_key, entries))) <= {str}
            and set(map(type, map(posting_seq, entries))) <= {int}
            and (3 not in lengths or {(type(e[2]), e[2]) for e in entries
                                      if len(e) == 3} == {(int, 1)})):
        raise CorruptionError(f"bad posting list: {payload[:80]!r}")
    return entries


def normalize(entries: Iterable[list]) -> list[list]:
    """Deduplicate by primary key (newest wins) and sort newest-first.

    Among postings of one key with equal sequences the earliest wins.  The
    key tiebreak makes the form canonical: sequence ties cannot occur
    between real writes, but canonicality keeps the merge operator exactly
    associative on arbitrary inputs.
    """
    # Oldest first, later arrivals first among equal sequences (the sort
    # is stable): the dict keeps each key's last posting, its winner.
    ascending = sorted(entries, key=posting_seq, reverse=True)[::-1]
    newest = dict(zip(map(posting_key, ascending), ascending)).values()
    return sorted(sorted(newest, key=posting_key), key=posting_seq,
                  reverse=True)


def merge_fragments(fragments_oldest_first: Iterable[list[list]]
                    ) -> list[list]:
    """Union posting fragments: per key, the newest posting (or marker) wins.

    Deletion markers survive the merge — a marker must keep cancelling
    postings that may still live in deeper, not-yet-merged fragments, so it
    can only be discarded by a query (or a hypothetical bottommost full
    merge, which the operator cannot detect).
    """
    return normalize(chain.from_iterable(fragments_oldest_first))


def live_postings(index_db) -> Iterator[tuple[bytes, bytes]]:
    """``(index key, primary key)`` of every posting in an Eager or Lazy
    index table that no deletion marker cancels, read without filling the
    block cache."""
    for index_key, payload in index_db.scan(fill_cache=False):
        for entry in decode_posting_list(payload):
            if len(entry) == 2:
                yield index_key, entry[0].encode("utf-8")


def posting_merge_operator(key: bytes, operands: list[bytes]) -> bytes:
    """``repro.lsm`` merge operator folding posting fragments (oldest first).

    Associative by construction, which the engine's partial merges require.
    """
    return encode_posting_list(
        merge_fragments(map(decode_posting_list, operands)))


def single_posting_fragment(key: str, seq: int, deleted: bool = False) -> bytes:
    """The Lazy index's per-write fragment: ``PUT(a, [k])`` of Example 1."""
    return encode_posting_list([[key, seq, 1] if deleted else [key, seq]])
