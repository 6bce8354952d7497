"""Lock-free MemTable walks under a real writer thread.

The pipeline's leader inserts into the active MemTable while readers walk
it with no lock (``DB.scan_level(-1)``, the scan path's merge).  Every walk
must come out in internal-key order with no entry twice, and must include
every entry whose ``add`` had returned before the walk began.  An entry
whose ``add`` is still running is not published yet: a walk may or may not
see it.  The switch interval is cut to a microsecond so the threads
interleave inside the MemTable's operations, not just between them.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.lsm.keys import KIND_VALUE
from repro.lsm.memtable import MemTable

ADDS = 20_000


def _plan(rng: random.Random) -> list[tuple[bytes, int]]:
    """``(user_key, seq)`` in insertion order.  New keys land in front of
    and behind each other; a quarter of the adds go to four hot keys with
    long version lists; sequences are shuffled within windows of 64, so a
    hot key's add often carries a sequence older than its newest (the
    MemTable's out-of-order path) while a walk is inside its versions."""
    seqs = list(range(1, ADDS + 1))
    for start in range(0, ADDS, 64):
        window = seqs[start:start + 64]
        rng.shuffle(window)
        seqs[start:start + 64] = window
    return [(b"k%04d" % (rng.randrange(5000) if rng.random() < 0.75
                         else rng.randrange(0, 5000, 1250)), seq)
            for seq in seqs]


def test_walks_are_ordered_and_see_every_returned_add():
    rng = random.Random(2018)
    plan = _plan(rng)
    mem = MemTable()
    returned = 0  # plan[:returned] have all returned from add()
    failures: list[str] = []
    walks = [0, 0]  # per reader: finished walks that began after an add

    def reader(slot: int, seed: int) -> None:
        pick = random.Random(seed)
        try:
            while returned < ADDS:
                before = returned
                if not before:
                    continue
                lo = b"" if pick.random() < 0.5 else \
                    b"k%04d" % pick.randrange(5000)
                got = [(e.user_key, -e.seq) for e in mem.entries_from(lo)]
                if got != sorted(set(got)):
                    failures.append(f"walk from {lo!r} out of order")
                    return
                seen = set(got)
                missing = [(key, seq) for key, seq in plan[:before]
                           if key >= lo and (key, -seq) not in seen]
                if missing:
                    failures.append(f"walk from {lo!r} missed {missing[:3]}")
                    return
                walks[slot] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=reader, args=(slot, slot), daemon=True)
               for slot in range(2)]
    try:
        for thread in readers:
            thread.start()
        for key, seq in plan:
            mem.add(seq, KIND_VALUE, key, b"v")
            returned += 1
            if returned == ADDS // 2:
                # Half way: let each reader finish a walk before going on,
                # so no reader can miss the write phase entirely.
                deadline = time.monotonic() + 30
                while not all(walks) and not failures \
                        and time.monotonic() < deadline:
                    time.sleep(0.001)
    finally:
        returned = ADDS
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert failures == []
    assert all(walks), walks
    final = [(e.user_key, e.seq) for e in mem]
    assert final == sorted(plan, key=lambda ks: (ks[0], -ks[1]))
