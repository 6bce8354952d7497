"""Outside-in span tracing: timing closures hung on instances the harness built.

Nothing under ``src/`` is edited or monkey-patched at class level.  The
harness replaces *bound methods on the objects it constructed* (one
``SecondaryIndexedDB``, its ``primary`` DB, each index table's DB, a
``ShardedDB``, a ``Client``) with closures that push and pop a per-thread
span stack.  Because the program reaches those objects through ordinary
attribute lookup (``self.primary.get(...)``), calls *between* layers are
caught too, which is what gives every span its parent.

A span is ``[name, start, end, parent, op_id]``: ``parent`` indexes the
span that caused it (``-1`` for a root) and all spans of one top-level
operation share that root's ``op_id``.  Names are ``<layer>.<call>``
(``core.lookup``, ``lsm.get_with_seq``, ``dist.put``, ``client.get``).  A
span's **self time** is its duration minus the part its children cover.

Generator methods (``DB.scan`` and friends) interleave with their consumer,
so an interval from first ``next()`` to exhaustion would wrongly contain the
consumer's own work.  They are recorded *compacted*: ``start`` is the first
``next()``, ``end`` is ``start`` plus only the time spent inside the
generator.  Durations and self times stay exact; the interval is not.

``Tracer.enabled`` gates recording per call, so a harness can alternate
traced and plain blocks of operations over one set-up and read the tracing
overhead off the same run.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Iterable

NAME, START, END, PARENT, OP_ID = range(5)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: Entries yielded by wrapped generators, by span name.
        self.yielded: dict[str, int] = {}
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _mine(self) -> "_ThreadSpans":
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = _ThreadSpans()
            self._local.spans = mine
            with self._lock:
                self._threads.append(mine)
        return mine

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Replace ``obj.method`` (on the instance) with a timing closure."""
        original = getattr(obj, method)
        tracer = self
        clock = self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            mine = tracer._mine()
            index = mine.open(name, clock())
            try:
                return original(*args, **kwargs)
            finally:
                mine.close(index, clock())

        setattr(obj, method, traced)

    def wrap_generator(self, obj: Any, method: str, name: str) -> None:
        """Like :meth:`wrap` for a method that returns a generator."""
        original = getattr(obj, method)
        tracer = self
        clock = self.clock

        def traced(*args: Any, **kwargs: Any) -> Iterable[Any]:
            if not tracer.enabled:
                return original(*args, **kwargs)
            return tracer._drive(original(*args, **kwargs), name, clock)

        setattr(obj, method, traced)

    def _drive(self, inner: Iterable[Any], name: str,
               clock: Callable[[], float]) -> Iterable[Any]:
        mine = self._mine()
        iterator = iter(inner)
        index = -1
        busy = 0.0
        count = 0
        try:
            while True:
                began = clock()
                if index < 0:
                    index = mine.open(name, began)
                else:
                    mine.reenter(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    busy += clock() - began
                    mine.leave()
                count += 1
                yield item
        finally:
            if index >= 0:
                span = mine.spans[index]
                span[END] = span[START] + busy
            self.yielded[name] = self.yielded.get(name, 0) + count

    # -- reading -------------------------------------------------------------

    def spans(self) -> list[list]:
        """Every finished span, parents re-indexed into one flat list."""
        with self._lock:
            threads = list(self._threads)
        return concat([mine.spans for mine in threads])


def concat(span_lists: Iterable[list[list]]) -> list[list]:
    """Join span lists whose ``parent`` fields index their own list.

    Unfinished spans (a generator abandoned mid-way) keep their slot so
    indexes stay valid, with zero length.  ``op_id`` becomes unique across
    the joined lists.
    """
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            parent = span[PARENT]
            end = span[END] if span[END] is not None else span[START]
            merged.append([span[NAME], span[START], end,
                           parent + offset if parent >= 0 else -1,
                           span[OP_ID] + offset])
    return merged


def dump(spans: list[list], path: str) -> None:
    """Write spans as a JSON list of objects."""
    with open(path, "w") as handle:
        json.dump([{"name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "op_id": span[OP_ID]} for span in spans], handle)


class _ThreadSpans:
    """One thread's span list and open-span stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, now: float) -> int:
        index = len(self.spans)
        if self.stack:
            parent = self.stack[-1]
            op_id = self.spans[parent][OP_ID]
        else:
            parent, op_id = -1, index
        self.spans.append([name, now, None, parent, op_id])
        self.stack.append(index)
        return index

    def close(self, index: int, now: float) -> None:
        self.spans[index][END] = now
        self.leave()

    def reenter(self, index: int) -> None:
        self.stack.append(index)

    def leave(self) -> None:
        self.stack.pop()


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self time per span: duration minus the children's durations."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def durations_by_name(spans: list[list]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for span in spans:
        grouped.setdefault(span[NAME], []).append(span[END] - span[START])
    return grouped


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Total self time per layer (the part of a name before the dot)."""
    totals: dict[str, float] = {}
    for span, self_time in zip(spans, self_times(spans)):
        layer = span[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + self_time
    return totals


def self_share(spans: list[list], name: str) -> float:
    """Sum of self time over sum of duration, for every span called ``name``.

    Answers "how much of this call is the layer's own work, and how much
    is the layer below".  0.0 when there is no such span.
    """
    own = self_times(spans)
    total = mine = 0.0
    for span, self_time in zip(spans, own):
        if span[NAME] == name:
            total += span[END] - span[START]
            mine += self_time
    return mine / total if total > 0 else 0.0
