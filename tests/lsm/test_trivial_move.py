"""Trivial moves: one input file, nothing it overlaps below — a manifest edit.

An automatically picked compaction with exactly one input and no
overlapping file in the output level relabels the table one level down:
one version edit, no table byte read or written, the same file number live
before and after.  Manual compaction never moves (its caller wants the
entries rewritten).  A time-ordered load is the case in point: each table
the level-0 merge writes covers keys no deeper table has seen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import pytest

from repro.lsm.compaction import Compaction, pick_compaction
from repro.lsm.db import DB
from repro.lsm.errors import (
    FaultInjectedError,
    OutOfSpaceError,
    SimulatedCrashError,
)
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options

KEYS_PER_ROUND = 40
VALUE = b"v" * 60


def _options(**overrides) -> Options:
    base = dict(block_size=1024, sstable_target_size=4 * 1024,
                memtable_budget=1 << 30,  # flushes are explicit below
                l0_compaction_trigger=2, l1_target_size=8 * 1024,
                compression="none", sync_writes=True)
    base.update(overrides)
    return Options(**base)


def _write_round(db: DB, r: int, model: dict[bytes, bytes]) -> None:
    """Time-ordered keys, plus an update and a delete of the round before."""
    for i in range(KEYS_PER_ROUND):
        key = b"t%04d-%03d" % (r, i)
        db.put(key, VALUE)
        model[key] = VALUE
    if r:
        db.put(b"t%04d-%03d" % (r - 1, 0), b"updated")
        model[b"t%04d-%03d" % (r - 1, 0)] = b"updated"
        db.delete(b"t%04d-%03d" % (r - 1, 1))
        del model[b"t%04d-%03d" % (r - 1, 1)]


def _moves(db: DB) -> int:
    return db.compactor.stats.trivial_moves


def _levels(db: DB) -> list[list[int]]:
    return [[meta.file_number for meta in files]
            for files in db.versions.current.levels]


def _level_of(db: DB, file_number: int) -> int | None:
    for level, numbers in enumerate(_levels(db)):
        if file_number in numbers:
            return level
    return None


def _table_bytes(vfs, file_number: int) -> bytes:
    return vfs.read_whole(table_file_name("db", file_number))


@functools.cache
def _moving_round() -> int:
    """The round whose flush ends in the load's first move, learnt from a
    fault-free probe — the engine is deterministic."""
    probe = DB.open(FaultInjectingVFS(), "db", _options())
    model: dict[bytes, bytes] = {}
    rounds = 0
    while _moves(probe) == 0:
        _write_round(probe, rounds, model)
        probe.flush()
        rounds += 1
        assert rounds < 50, "the load never moved a table"
    probe.close()
    return rounds - 1


def _load_until_a_flush_is_about_to_move(vfs):
    """``(db, model, round)``: the MemTable holds ``round``'s writes and the
    ``flush()`` the caller makes next ends in the load's first move."""
    db = DB.open(vfs, "db", _options())
    model: dict[bytes, bytes] = {}
    for r in range(_moving_round()):
        _write_round(db, r, model)
        db.flush()
    assert _moves(db) == 0
    _write_round(db, _moving_round(), model)
    return db, model, _moving_round()


@dataclass
class Move:
    """One move the compactor made: what it was handed, what it did."""

    file_number: int
    level: int
    table: bytes            # the table's bytes before the move
    first_op: int           # vfs.op_count when the move began
    ops: list = field(default_factory=list)  # the mutating ops it made


def _record_moves(db: DB, vfs: FaultInjectingVFS) -> list[Move]:
    """Watch the compactor's one door; returns the list the moves land in."""
    moves: list[Move] = []
    real_run = db.compactor.run

    def run(compaction: Compaction):
        if not compaction.is_trivial_move():
            return real_run(compaction)
        meta = compaction.inputs0[0]
        move = Move(meta.file_number, compaction.level,
                    _table_bytes(vfs, meta.file_number), vfs.op_count)
        moves.append(move)
        try:
            return real_run(compaction)
        finally:
            move.ops = vfs.op_log[move.first_op:]

    db.compactor.run = run
    return moves


class TestAMoveWritesNoTableByte:
    def test_one_manifest_record_same_table_one_level_down(self):
        vfs = FaultInjectingVFS()
        db, model, first = _load_until_a_flush_is_about_to_move(vfs)
        moves = _record_moves(db, vfs)
        db.flush()  # the merge that writes the tables, then their moves
        assert moves
        for move in moves:
            assert _level_of(db, move.file_number) == move.level + 1
            assert _table_bytes(vfs, move.file_number) == move.table
        for r in range(first + 1, first + 8):
            _write_round(db, r, model)
            db.flush()
        stats = db.stats()["compaction"]
        assert len(moves) == stats["trivial_moves"] >= 3
        assert stats["bytes_moved"] == sum(len(m.table) for m in moves)
        for move in moves:
            assert [kind for kind, _name in move.ops] == ["append", "sync"]
            assert all("MANIFEST" in name for _kind, name in move.ops)
        assert f"trivial_moves: {len(moves)}" in {
            line.strip() for line in db.debug_string().splitlines()}
        assert dict(db.scan()) == model
        assert db.verify_integrity().ok
        db.close()

    def test_a_move_counts_as_no_compaction(self):
        """``compaction_count``, ``compactions_by_level`` and the byte
        counters keep meaning "merged": a store that only ever moves
        (level-0 trigger of one, disjoint tables) reports none."""
        db = DB.open_memory(_options(l0_compaction_trigger=1))
        for r in range(12):
            for i in range(KEYS_PER_ROUND):
                db.put(b"t%04d-%03d" % (r, i), VALUE)
            db.flush()
        stats = db.compactor.stats
        assert stats.trivial_moves >= 12
        assert stats.bytes_moved > 0
        assert stats.compaction_count == 0
        assert stats.compactions_by_level == {}
        assert stats.bytes_compacted_in == stats.bytes_compacted_out == 0
        assert db.level_file_counts()[0] == 0
        db.close()


class TestManualCompactionNeverMoves:
    def test_compact_range_rewrites_a_one_file_level(self):
        """One table, nothing below it — and ``compact_range()`` still merges
        it, level after level: folding operands and eliding tombstones is
        what it is called for."""

        def concat(_key, operands):
            return b"|".join(operands)

        db = DB.open_memory(_options(merge_operator=concat,
                                     disable_auto_compaction=True))
        db.merge(b"k", b"a")
        db.merge(b"k", b"b")
        db.put(b"gone", b"x")
        db.delete(b"gone")
        db.flush()
        (table,), = [files for files in _levels(db) if files]
        db.compact_range()
        assert db.compactor.stats.trivial_moves == 0
        assert db.compactor.stats.merges_folded >= 2
        (rewritten,), = [files for files in _levels(db) if files]
        assert rewritten != table
        assert [(ikey.user_key, ikey.kind_name, value) for ikey, value
                in db.scan_level(db.options.max_levels - 1)] \
            == [(b"k", "value", b"a|b")]
        db.close()

    def test_only_a_picked_compaction_is_a_move(self):
        db = DB.open_memory(_options(l0_compaction_trigger=1,
                                     disable_auto_compaction=True))
        db.put(b"k", b"v")
        db.flush()
        picked = pick_compaction(db.versions)
        assert picked is not None and picked.is_trivial_move()
        assert not Compaction(picked.level, picked.inputs0, picked.inputs1,
                              manual=True).is_trivial_move()
        below = picked.inputs0  # any file overlapping below: a merge
        assert not Compaction(0, picked.inputs0, below).is_trivial_move()
        assert not Compaction(0, picked.inputs0 * 2, []).is_trivial_move()
        db.close()


class TestAFailedMoveDidNotHappen:
    @staticmethod
    def _at_the_first_move(ops_in: int):
        """``(vfs, db, model, round, at_op)``: the flush about to move, and
        the mutating op ``ops_in`` ops into its first move's manifest write."""
        probe = FaultInjectingVFS()
        db, _model, _round = _load_until_a_flush_is_about_to_move(probe)
        moves = _record_moves(db, probe)
        db.flush()
        db.close()
        vfs = FaultInjectingVFS()
        db, model, last = _load_until_a_flush_is_about_to_move(vfs)
        return vfs, db, model, last, moves[0].first_op + ops_in

    @pytest.mark.parametrize("ops_in", [1, 2], ids=["append", "sync"])
    def test_write_fault_leaves_the_tree_as_it_was(self, ops_in):
        vfs, db, model, last, at_op = self._at_the_first_move(ops_in)
        vfs.schedule_write_error(at_op)
        with pytest.raises(FaultInjectedError):
            db.flush()
        assert _moves(db) == 0 and not db.read_only
        assert _levels(db)[2] == []     # nothing reached level 2
        assert dict(db.scan()) == model
        assert db.verify_integrity().ok
        # The next flush retries it, behind a settled manifest.
        _write_round(db, last + 1, model)
        db.flush()
        assert _moves(db) >= 1
        db.close()
        db = DB.open(vfs, "db", _options())
        assert dict(db.scan()) == model
        assert db.verify_integrity().ok
        db.close()

    def test_full_disk_parks_read_only_like_any_compaction(self):
        vfs, db, model, _last, at_op = self._at_the_first_move(1)
        vfs.schedule_enospc(at_op)
        with pytest.raises(OutOfSpaceError):
            db.flush()
        assert db.read_only and _moves(db) == 0
        assert dict(db.scan()) == model
        db.close()
        vfs.clear_enospc()
        db = DB.open(vfs, "db", _options())
        assert dict(db.scan()) == model
        assert db.verify_integrity().ok
        db.close()


def test_crash_at_every_op_of_a_flush_that_moves():
    """Reopen lands before or after each move, never between: a moved table
    is live at its old level or the next one, under the same number, with the
    same bytes; every acknowledged write reads back; the audit is clean."""
    probe = FaultInjectingVFS()
    db, model, _round = _load_until_a_flush_is_about_to_move(probe)
    moves = _record_moves(db, probe)
    start = probe.op_count
    db.flush()
    flush_ops = probe.op_count - start
    db.close()

    seen_levels = set()
    for offset in range(1, flush_ops + 2):  # +1: a crash right after it
        vfs = FaultInjectingVFS()
        db, model, _round = _load_until_a_flush_is_about_to_move(vfs)
        assert vfs.op_count == start
        vfs.schedule_crash(start + offset)
        try:
            db.flush()
            db.put(b"one-more", b"op")  # the op the crash lands on
        except SimulatedCrashError:
            pass
        for unsynced in ("drop", "torn"):
            image = vfs.crash_image(unsynced)
            db = DB.open(image, "db", _options())
            for move in moves:
                level = _level_of(db, move.file_number)
                seen_levels.add(None if level is None else level - move.level)
                if level is not None:
                    assert level in (move.level, move.level + 1), offset
                    assert _table_bytes(image, move.file_number) \
                        == move.table
                # Once its manifest record is synced, the move is durable.
                if start + offset > move.first_op + len(move.ops):
                    assert level == move.level + 1, (offset, unsynced)
            got = dict(db.scan())
            got.pop(b"one-more", None)
            assert got == model, (offset, unsynced)
            report = db.verify_integrity()
            assert report.ok, (offset, unsynced, report.problems)
            db.close()
    assert seen_levels == {None, 0, 1}  # not written yet / before / after
