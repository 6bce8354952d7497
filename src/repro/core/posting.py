"""Posting lists: the value format of the Eager and Lazy index tables.

A posting list maps one secondary-attribute value to the primary keys that
carry it, "similarly to an inverted index in Information Retrieval"
(Section 4.1).  Following the paper, lists are serialized as JSON arrays —
the JSON parsing/merging overhead is part of what the paper measures as the
Lazy index's compaction CPU cost — with each entry carrying the data-table
sequence number ("we attach a sequence number to each entry in the postings
list on every write").

Entry forms::

    [pk, seq]        a live posting
    [pk, seq, 1]     a deletion marker (Lazy DEL writes these; they cancel
                     older postings of pk when fragments merge)

Lists are kept newest-first, at most one entry per primary key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from repro.lsm.errors import CorruptionError


@dataclass(frozen=True)
class PostingEntry:
    """One ``(primary key, seq)`` posting, possibly a deletion marker."""

    key: str
    seq: int
    deleted: bool = False

    def to_json(self) -> list:
        if self.deleted:
            return [self.key, self.seq, 1]
        return [self.key, self.seq]


def encode_posting_list(entries: list[PostingEntry]) -> bytes:
    """Serialize entries (assumed newest-first) as a JSON array."""
    return json.dumps([entry.to_json() for entry in entries],
                      separators=(",", ":")).encode("utf-8")


def decode_posting_list(payload: bytes) -> list[PostingEntry]:
    """Parse a stored posting list; order is preserved."""
    try:
        raw = json.loads(payload)
    except ValueError as exc:
        raise CorruptionError(f"bad posting list: {exc}") from exc
    if not isinstance(raw, list):
        raise CorruptionError("posting list is not a JSON array")
    entries = []
    for item in raw:
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise CorruptionError(f"bad posting entry: {item!r}")
        entries.append(PostingEntry(item[0], item[1], len(item) == 3))
    return entries


def normalize(entries: list[PostingEntry]) -> list[PostingEntry]:
    """Deduplicate by primary key (newest wins) and sort newest-first.

    The key tiebreak makes the form canonical: sequence ties cannot occur
    between real writes, but canonicality keeps the merge operator exactly
    associative on arbitrary inputs.
    """
    newest: dict[str, PostingEntry] = {}
    for entry in entries:
        current = newest.get(entry.key)
        if current is None or entry.seq > current.seq:
            newest[entry.key] = entry
    return sorted(newest.values(), key=lambda e: (-e.seq, e.key))


def merge_fragments(fragments_oldest_first: list[list[PostingEntry]]
                    ) -> list[PostingEntry]:
    """Union posting fragments: per key, the newest posting (or marker) wins.

    Deletion markers survive the merge — a marker must keep cancelling
    postings that may still live in deeper, not-yet-merged fragments, so it
    can only be discarded by a query (or a hypothetical bottommost full
    merge, which the operator cannot detect).
    """
    combined: list[PostingEntry] = []
    for fragment in fragments_oldest_first:
        combined.extend(fragment)
    return normalize(combined)


def live_postings(index_db) -> Iterator[tuple[bytes, bytes]]:
    """``(index key, primary key)`` of every posting in an Eager or Lazy
    index table that no deletion marker cancels, read without filling the
    block cache."""
    for index_key, payload in index_db.scan(fill_cache=False):
        for entry in decode_posting_list(payload):
            if not entry.deleted:
                yield index_key, entry.key.encode("utf-8")


def posting_merge_operator(key: bytes, operands: list[bytes]) -> bytes:
    """``repro.lsm`` merge operator folding posting fragments (oldest first).

    Associative by construction, which the engine's partial merges require.
    """
    fragments = [decode_posting_list(op) for op in operands]
    return encode_posting_list(merge_fragments(fragments))


def single_posting_fragment(key: str, seq: int, deleted: bool = False) -> bytes:
    """The Lazy index's per-write fragment: ``PUT(a, [k])`` of Example 1."""
    return encode_posting_list([PostingEntry(key, seq, deleted)])
