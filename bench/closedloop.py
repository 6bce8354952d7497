"""The closed-loop driver: one caller, next op only after the last returned.

Works on anything with ``put/get/lookup/range_lookup`` — a
``SecondaryIndexedDB``, a ``ShardedDB`` or a wire ``Client`` — and checks
every answer against the :class:`~opstream.Oracle` *outside* the timed
window (the clock stops before the comparison starts).
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from calibrate import OPS_PER_SLICE, Calibrator
from opstream import Op, Oracle, user_bytes

#: Ops per traced/plain block when a tracer alternates (see spans.py).
TRACE_BLOCK = 50


class Tally:
    """Attempted and failed operations, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def absorb(self, part: "Tally") -> None:
        """Add another tally's counts (a client thread's, a replica's)."""
        self.attempted += part.attempted
        self.failed += part.failed
        self.reasons.extend(part.reasons[:10 - len(self.reasons)])


class Timings:
    """Latency samples in seconds, by label, split by traced/plain block."""

    def __init__(self) -> None:
        self.plain: dict[str, list[float]] = {}
        self.traced: dict[str, list[float]] = {}
        #: User bytes written by PUTs, and records returned by queries.
        self.put_bytes = 0
        self.hits: dict[str, int] = {}

    def of(self, label: str) -> list[float]:
        """Plain samples when the run alternated, every sample otherwise."""
        return self.plain.get(label, [])

    def ran(self, label: str) -> int:
        """How many ops ran under ``label``, traced blocks included."""
        return len(self.plain.get(label, [])) + \
            len(self.traced.get(label, []))

    def count(self) -> int:
        return sum(self.ran(label) for label in {*self.plain, *self.traced})

    def seconds(self) -> float:
        return sum(sum(samples) for samples in
                   (*self.plain.values(), *self.traced.values()))


def _parts(hit: Any) -> tuple[str, dict, int]:
    """``(key, document, seq)`` of one hit, in-process or off the wire."""
    if hasattr(hit, "key"):
        return hit.key, hit.document, hit.seq
    return hit[0], hit[1], hit[2]


def result_keys(results: Sequence[Any]) -> list[str]:
    return [_parts(hit)[0] for hit in results]


def _check_hits(op: Op, results: Sequence[Any], oracle: Oracle,
                racing: bool) -> str | None:
    """Cheap per-op check of a secondary query made mid-stream.

    Every hit must be the live version of its record, match the predicate
    and arrive newest first; the exact top-K is checked on the closing
    sample, where the oracle's index is built once.  Under ``racing``
    (a second client thread is writing) a hit may be newer than this
    thread's view of the oracle, so only shape and order are checked.
    """
    attribute = op[1]
    low, high = (op[2], op[2]) if op[0] == "lookup" else (op[2], op[3])
    k = op[-1]
    if k is not None and len(results) > k:
        return f"{op[0]} returned {len(results)} > k={k}"
    last_seq = None
    for hit in results:
        key, document, seq = _parts(hit)
        value = document.get(attribute)
        if value is None or not low <= value <= high:
            return f"{op[0]} hit {key} has {attribute}={value!r}"
        if last_seq is not None and seq >= last_seq:
            return f"{op[0]} hits not newest-first at {key}"
        last_seq = seq
        if not racing and oracle.docs.get(key) != document:
            return f"{op[0]} hit {key} is not the live version"
    return None


def run_closed(target: Any, ops: Sequence[Op], oracle: Oracle, tally: Tally,
               timings: Timings, label: str | None = None,
               tracer: Any = None, exact: bool = False,
               racing: bool = False, record: list | None = None,
               start: int = 0, calibrator: Calibrator | None = None) -> None:
    """Run ``ops`` one after another against ``target``, timing each call.

    ``label`` files every sample under one name (the Static workload's
    phases); otherwise samples go under the op type.  ``exact`` compares
    secondary answers with the oracle's exact top-K (closing samples).
    ``record`` collects ``(op, response)`` pairs for the codec replay.
    ``start`` is the stream position of ``ops[0]`` when a caller feeds the
    stream in slices (it keeps the traced/plain blocks aligned).
    ``calibrator`` takes a speed-calibration slice every ``OPS_PER_SLICE``
    ops, between two operations.
    """
    clock = time.perf_counter
    put, get = target.put, target.get
    lookup, range_lookup = target.lookup, target.range_lookup
    for position, op in enumerate(ops, start):
        if calibrator is not None and position % OPS_PER_SLICE == 0:
            calibrator.slice()
        traced = False
        if tracer is not None:
            traced = tracer.enabled = (position // TRACE_BLOCK) % 2 == 1
        kind = op[0]
        try:
            if kind == "put":
                began = clock()
                response = put(op[1], op[2])
                elapsed = clock() - began
                oracle.put(op[1], op[2], response)
                timings.put_bytes += user_bytes(op[1], op[2])
                problem = None
            elif kind == "get":
                began = clock()
                response = get(op[1])
                elapsed = clock() - began
                problem = None
                if response != oracle.docs.get(op[1]):
                    problem = f"get {op[1]} returned a wrong document"
            else:
                if kind == "lookup":
                    began = clock()
                    response = lookup(op[1], op[2], op[3])
                    elapsed = clock() - began
                else:
                    began = clock()
                    response = range_lookup(op[1], op[2], op[3], op[4])
                    elapsed = clock() - began
                name = label or kind
                timings.hits[name] = timings.hits.get(name, 0) + len(response)
                if exact:
                    problem = None
                    if result_keys(response) != oracle.expected(op):
                        problem = f"{op[:-1]} differs from the oracle's top-K"
                else:
                    problem = _check_hits(op, response, oracle, racing)
        except Exception as exc:  # an op that raises is a failed op
            tally.fail(f"{kind} raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        if problem is None:
            tally.ok()
        else:
            tally.fail(problem)
        bucket = timings.traced if traced else timings.plain
        bucket.setdefault(label or kind, []).append(elapsed)
        if record is not None:
            record.append((op, response))
