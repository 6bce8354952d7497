"""Helpers the core-layer index tests import: an in-memory indexed store
and a deterministic tweet load.

A plain module, not ``conftest``: every test directory has its own
``conftest``, and ``from conftest import ...`` binds to whichever of them
was imported first.
"""

from __future__ import annotations

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options


def open_db(kind: IndexKind, options: Options,
            attributes: tuple[str, ...] = ("UserID",)) -> SecondaryIndexedDB:
    return SecondaryIndexedDB.open_memory(
        indexes={attr: kind for attr in attributes}, options=options)


def load_tweets(db: SecondaryIndexedDB, count: int, users: int = 10,
                start: int = 0) -> dict[str, dict]:
    """Insert ``count`` deterministic tweets; returns the final state."""
    state = {}
    for i in range(start, start + count):
        key = f"t{i:05d}"
        doc = {"UserID": f"u{i % users}", "CreationTime": 1000 + i,
               "Body": "b" * 40}
        db.put(key, doc)
        state[key] = doc
    return state
