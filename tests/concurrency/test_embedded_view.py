"""The Embedded index reads through the engine's view.

One caller at a time on the facade, the engine's maintenance on its own
thread: an Embedded LOOKUP must see what every other read sees — both
MemTables, one pinned Version — however the background flush and
compaction interleave with it.  NoIndex (a full scan through
``DB.scan_with_seq``) is the reference answer.

The race in scope is the B-tree's: the MemTable's postings leave with it
when the background thread's flush installs.  A record flushed after the
query's view was taken must still be found (in the view's sealed
MemTable); one flushed before it must be found exactly once (on disk, not
also through a MemTable's postings).
"""

from __future__ import annotations

import time

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.core.noindex import NoIndex
from repro.lsm.options import Options
from scheduling import DeterministicScheduler, explore_interleavings
from repro.lsm.vfs import MemoryVFS
from repro.lsm.zonemap import encode_attribute

USERS = ("alice", "bob", "carol")


def _doc(user: str, n: int) -> dict:
    return {"u": user, "n": n, "pad": "x" * 40}


def _answer(results):
    return [(r.key, r.seq, r.document) for r in results]


class HoldFlush:
    """A step hook that keeps the background flush parked until released.

    The background thread parks at ``bg:flush`` with the sealed MemTable
    in hand; guarding that park makes it ineligible, so the test's thread
    keeps the token for as long as it wants to look at the sealed state.
    """

    def __init__(self, scheduler: DeterministicScheduler) -> None:
        self.scheduler = scheduler
        self.hold = True

    def __call__(self, label: str) -> None:
        self.park_until(label, None)

    def park_until(self, label, guard) -> None:
        if label == "bg:flush":
            guard = lambda: not self.hold  # noqa: E731
        self.scheduler.park_until(label, guard)


def _assert_equals_noindex(db: SecondaryIndexedDB) -> int:
    """LOOKUP and RANGELOOKUP, ``k=None`` and ``k=3``; returns how many
    records the unbounded LOOKUPs found."""
    reference = NoIndex("u", db.primary)
    found = 0
    for k in (None, 3):
        for user in USERS + ("nobody",):
            got = _answer(db.lookup("u", user, k))
            assert got == _answer(reference.lookup(user, k)), (user, k)
            assert len({key for key, _seq, _doc in got}) == len(got)
            if k is None:
                found += len(got)
        got = _answer(db.range_lookup("u", "alice", "bob", k))
        assert got == _answer(reference.range_lookup("alice", "bob", k)), k
    return found


def test_embedded_equals_noindex_around_a_sealed_memtable():
    sched = DeterministicScheduler(default="first")
    hook = HoldFlush(sched)
    db = SecondaryIndexedDB.open_memory(
        {"u": IndexKind.EMBEDDED},
        Options(background_compaction=True, step_hook=hook,
                memtable_budget=4096))
    primary = db.primary
    written = 0
    while primary.imm is None:
        db.put(f"t{written:04d}", _doc(USERS[written % 3], written))
        written += 1
        assert written < 1000, "the leader never sealed the MemTable"
    # Everything written so far sits in the sealed MemTable, un-flushed.
    assert len(primary.imm) == written and len(primary.memtable) == 0
    assert primary.level_file_counts()[0] == 0
    assert _assert_equals_noindex(db) == written

    # An update and a delete of sealed records land in the active MemTable.
    db.put("t0000", _doc("bob", 9000))
    db.delete("t0001")
    db.put("t9999", _doc("alice", 9001))
    assert primary.imm is not None and len(primary.memtable) == 3
    assert _assert_equals_noindex(db) == written
    assert [r.key for r in db.lookup("u", "bob", k=1)] == ["t0000"]

    # The flush installs: the same records, now from level 0.
    hook.hold = False
    db.flush()
    assert primary.imm is None and primary.level_file_counts()[0] >= 1
    with primary.read_view() as view:
        assert view.memtable_postings("u", encode_attribute(""),
                                      encode_attribute("\uffff")) == []
    assert _assert_equals_noindex(db) == written
    assert primary._version_pins == {}
    sched.shutdown()
    db.close()


# -- every interleaving of one caller with the background thread ------------------


def _drain(db: SecondaryIndexedDB) -> None:
    """Flush, then wait until the background thread owes no compaction (the
    scheduler is shut down by now: the thread runs free)."""
    primary = db.primary
    db.flush()
    deadline = time.monotonic() + 10.0
    while primary._bg_compacting \
            or primary.stats()["pipeline"]["compaction_queue_depth"]:
        assert time.monotonic() < deadline, "background compaction hung"
        time.sleep(0.001)


def _seeded_store(l0_files: int) -> tuple[MemoryVFS, dict, dict]:
    """An inline life of the store: ``l0_files`` level-0 tables."""
    vfs = MemoryVFS()
    db = SecondaryIndexedDB.open(
        vfs, "data", {"u": IndexKind.EMBEDDED},
        Options(disable_auto_compaction=True))
    docs, seqs = {}, {}
    for table in range(l0_files):
        for i in range(4):
            key = f"t{i:02d}" if table else f"s{i:02d}"
            docs[key] = _doc(USERS[(i + table) % 3], table * 10 + i)
            seqs[key] = db.put(key, docs[key])
        db.flush()
    db.close()
    return vfs, docs, seqs


def _one_caller_scenario(l0_files: int, seal: bool, **tree_options):
    """One client thread — put, overwrite, delete, a LOOKUP checked against
    the model after each — against the background thread.

    ``seal``: the first PUT fills the MemTable, so the rest runs against
    its background flush.  Otherwise level 0 is at the compaction trigger
    from the start and the client runs against a background compaction —
    a merge of ``l0_files`` tables, or with one table a trivial move.
    """

    def scenario(sched: DeterministicScheduler):
        vfs, docs, seqs = _seeded_store(l0_files)
        db = SecondaryIndexedDB.open(
            vfs, "data", {"u": IndexKind.EMBEDDED},
            Options(background_compaction=True, step_hook=sched,
                    memtable_budget=450, **tree_options))
        primary = db.primary
        failures: list[str] = []

        def check(step: str) -> None:
            want = sorted(((key, seqs[key], doc) for key, doc in docs.items()
                           if doc["u"] == "alice"), key=lambda hit: -hit[1])
            got = _answer(db.lookup("u", "alice"))
            if got != want:
                failures.append(
                    f"{step}: LOOKUP = {[hit[:2] for hit in got]}, "
                    f"model {[hit[:2] for hit in want]}")

        def client() -> None:
            try:
                if seal:
                    docs["new"] = dict(_doc("alice", 100), pad="x" * 400)
                    seqs["new"] = db.put("new", docs["new"])
                    check("put")
                docs["t01"] = _doc("alice", 101)  # was on disk
                seqs["t01"] = db.put("t01", docs["t01"])
                check("overwrite")
                if seal:
                    del docs["new"]               # was sealed
                    db.delete("new")
                    check("delete")
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(f"client died: {exc!r}")

        thread = sched.spawn("client", client)
        sched.wait_threads(thread)
        sched.shutdown()
        _drain(db)
        check("drained")
        pins, zombies = dict(primary._version_pins), set(primary._zombie_tables)
        work = primary.stats()["compaction"]
        db.close()
        return failures, pins, zombies, work

    return scenario


def _explore(scenario, budget: int = 3000):
    results = explore_interleavings(scenario, max_interleavings=budget)
    assert len(results) < budget, "choice tree did not converge"
    assert len(results) > 10, "enumeration never varied the schedule"
    for decisions, (failures, pins, zombies, _work) in results:
        assert failures == [], (decisions, failures)
        assert pins == {} and zombies == set(), decisions
    return [work for _decisions, (*_rest, work) in results]


def test_lookup_equals_model_at_every_interleaving_with_a_background_flush():
    work = _explore(_one_caller_scenario(1, seal=True,
                                         disable_auto_compaction=True))
    assert all(stats["flush_count"] >= 1 for stats in work)


def test_lookup_equals_model_at_every_interleaving_with_a_compaction():
    work = _explore(_one_caller_scenario(2, seal=False,
                                         l0_compaction_trigger=2))
    assert all(stats["compaction_count"] >= 1 for stats in work)


def test_lookup_equals_model_at_every_interleaving_with_a_trivial_move():
    """One level-0 table at a trigger of one: the background compaction has
    one input and nothing below it, so it is a relabel, not a merge."""
    work = _explore(_one_caller_scenario(1, seal=False,
                                         l0_compaction_trigger=1))
    assert all(stats["trivial_moves"] >= 1 for stats in work)
    assert all(stats["compaction_count"] == 0 for stats in work)


def test_a_view_pinned_before_a_move_reads_the_table_at_its_old_level():
    """The moved table is in the pinned Version (level 0) and in the current
    one (level 1) under one file number: nothing is retired, so the pin has
    nothing to protect and leaves nothing behind."""

    def scenario(sched: DeterministicScheduler):
        vfs, _docs, _seqs = _seeded_store(1)
        db = SecondaryIndexedDB.open(
            vfs, "data", {"u": IndexKind.EMBEDDED},
            Options(background_compaction=True, step_hook=sched,
                    l0_compaction_trigger=1))
        primary = db.primary
        seen: dict = {}

        def client() -> None:
            with primary.read_view() as view:
                seen["pinned"] = [len(files)
                                  for files in view.version.levels[:2]]
                seen["current"] = primary.level_file_counts()[:2]
                pinned_level = seen["pinned"].index(1)
                seen["keys"] = [ikey.user_key for ikey, _value
                                in view.scan_level(pinned_level)]
                seen["other"] = list(view.scan_level(1 - pinned_level))
                seen["lookup"] = len(db.lookup("u", "alice"))

        sched.wait_threads(sched.spawn("client", client))
        sched.shutdown()
        _drain(db)
        seen["after"] = primary.level_file_counts()[:2]
        seen["tables"] = [name for name in vfs.list_dir("data/")
                          if name.endswith(".ldb")]
        seen["pins"] = dict(primary._version_pins)
        seen["zombies"] = set(primary._zombie_tables)
        seen["moves"] = primary.stats()["compaction"]["trivial_moves"]
        db.close()
        return seen

    results = explore_interleavings(scenario, max_interleavings=500)
    assert len(results) < 500, "choice tree did not converge"
    moved_under_the_pin = 0
    for decisions, seen in results:
        assert seen["keys"] == [b"s00", b"s01", b"s02", b"s03"], decisions
        assert seen["other"] == [] and seen["lookup"] == 2, decisions
        assert seen["after"] == [0, 1] and seen["moves"] == 1, decisions
        assert len(seen["tables"]) == 1, decisions
        assert seen["pins"] == {} and seen["zombies"] == set(), decisions
        if seen["pinned"] == [1, 0] and seen["current"] == [0, 1]:
            moved_under_the_pin += 1
    assert moved_under_the_pin > 0
