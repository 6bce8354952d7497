"""Thread safety: a synchronized wrapper around the facade.

The facade takes one caller at a time — the paper chose LevelDB *because*
"it is a single-threaded pure single-node key value store, so we can
easily isolate and explain the performance differences", and index
maintenance on PUT still assumes it.  The engine runs its flushes and
compactions through one scheduler: inline, in the writing caller's
thread, or on a thread of its own (``Options.background_compaction``),
where every index reads through the engine's read view, so a flush or
compaction landing in the middle of a LOOKUP changes nothing it sees.

Applications that want to share one database across threads wrap it in
:class:`ThreadSafeDB`: a re-entrant mutex serialises every operation, so
the one-caller invariant holds while callers get a thread-safe surface
(coarse-grained, like SQLite's default mode — correctness first,
parallelism never).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.base import LookupResult
from repro.core.database import SecondaryIndexedDB
from repro.core.records import Document


class ThreadSafeDB:
    """Mutex-serialised view of a :class:`SecondaryIndexedDB`.

    Every public operation holds one re-entrant lock for its full
    duration, including any inline flush/compaction it triggers.  The
    wrapped database must not be used directly while the wrapper lives.
    """

    def __init__(self, inner: SecondaryIndexedDB) -> None:
        self._inner = inner
        self._lock = threading.RLock()

    # -- base operations ---------------------------------------------------------

    def put(self, key: str | bytes, document: Document) -> int:
        with self._lock:
            return self._inner.put(key, document)

    def get(self, key: str | bytes) -> Document | None:
        with self._lock:
            return self._inner.get(key)

    def delete(self, key: str | bytes) -> int:
        with self._lock:
            return self._inner.delete(key)

    # -- secondary queries ---------------------------------------------------------

    def lookup(self, attribute: str, value: Any, k: int | None = None,
               early_termination: bool = True) -> list[LookupResult]:
        with self._lock:
            return self._inner.lookup(attribute, value, k,
                                      early_termination)

    def range_lookup(self, attribute: str, low: Any, high: Any,
                     k: int | None = None,
                     early_termination: bool = True) -> list[LookupResult]:
        with self._lock:
            return self._inner.range_lookup(attribute, low, high, k,
                                            early_termination)

    # -- maintenance ----------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._inner.flush()

    def compact_all(self) -> None:
        with self._lock:
            self._inner.compact_all()

    def size_breakdown(self) -> dict[str, int]:
        with self._lock:
            return self._inner.size_breakdown()

    def total_size(self) -> int:
        with self._lock:
            return self._inner.total_size()

    def io_stats(self) -> dict[str, Any]:
        with self._lock:
            return self._inner.io_stats()

    def close(self) -> None:
        with self._lock:
            self._inner.close()

    def __enter__(self) -> "ThreadSafeDB":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def inner(self) -> SecondaryIndexedDB:
        """The wrapped facade — for single-threaded inspection only."""
        return self._inner
