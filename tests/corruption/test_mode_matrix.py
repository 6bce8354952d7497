"""One read path: every probe answers the same in every engine mode.

``DB`` has two mode switches that used to fork the read path four ways:
``background_compaction`` (inline vs pipeline: how a read's view of the
MemTables and the Version is taken) and ``on_corruption`` (``"raise"`` vs
``"quarantine"``: what a failed table read does).  The probes now share
one body, so one seeded op stream must give identical answers from every
probe in all four cells — and, with one table bit-flipped, the two
quarantine cells must still agree with each other while serving around it.
"""

from __future__ import annotations

import random

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.keys import MAX_SEQUENCE

from drill_utils import corruption_options, table_files

MODES = [(background, policy)
         for background in (False, True)
         for policy in ("raise", "quarantine")]
KEYS = [b"k%03d" % i for i in range(60)]


def _concat(_key, operands):
    return b"|".join(operands)


def _options(background: bool, policy: str):
    # Explicit flushes and one manual compaction only: the tree shape is
    # then a function of the op stream, not of background timing, so the
    # per-level probes are comparable across modes.
    return corruption_options(
        background_compaction=background, on_corruption=policy,
        paranoid_checks=True, merge_operator=_concat,
        memtable_budget=1 << 30, disable_auto_compaction=True)


def _drive(db: DB, seed: int = 2018) -> dict[bytes, bytes]:
    """Puts, overwrites, deletes, merges, flushes, a manual compaction.

    Ends with data in every component: compacted levels, fresh level-0
    tables on top, and an unflushed MemTable.  Returns the model.
    """
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    for step in range(600):
        key = rng.choice(KEYS)
        roll = rng.random()
        if roll < 0.55:
            value = b"v%04d-" % step + b"x" * rng.randrange(40)
            db.put(key, value)
            model[key] = value
        elif roll < 0.75:
            db.delete(key)
            model.pop(key, None)
        else:
            operand = b"m%04d" % step
            db.merge(key, operand)
            model[key] = model[key] + b"|" + operand \
                if key in model else operand
        if step % 70 == 69:
            db.flush()
        if step == 350:
            db.compact_range()
    return model


def _getlite(db: DB, key: bytes, seq: int) -> list[tuple[bool, int, int]]:
    """GetLite from every level on one held view (``position=-1``: a
    level-0 match's siblings are all of level 0)."""
    with db.read_view() as view:
        return [view.newer_version(key, seq, below, -1)
                for below in range(db.options.max_levels + 1)]


def _probe_everything(db: DB) -> dict:
    """The answer of every read probe, over every key and level."""
    levels = range(-1, db.options.max_levels)
    return {
        "get_with_seq": [db.get_with_seq(key) for key in KEYS],
        "get_many_with_seq": db.get_many_with_seq(KEYS),
        "fragments_by_level": [list(db.fragments_by_level(key))
                               for key in KEYS],
        "fragments_bounded": [list(db.fragments_by_level(key, max_seq=300))
                              for key in KEYS],
        "key_maybe_in_levels": [
            [db.key_maybe_in_levels(key, below)
             for below in range(db.options.max_levels + 1)]
            for key in KEYS],
        "newer_version": [_getlite(db, key, seq)
                          for key in KEYS for seq in (0, 300)],
        "scan_with_seq": list(db.scan_with_seq()),
        "scan_bounded": list(db.scan_with_seq(KEYS[10], KEYS[40])),
        "scan_level": [list(db.scan_level(level)) for level in levels],
        "scan_level_bounded": [list(db.scan_level(level, KEYS[5], KEYS[25]))
                               for level in levels],
    }


def _assert_no_pins_left(db: DB) -> None:
    assert db._version_pins == {}, "a read view was not released"
    assert db._zombie_tables == set()


@pytest.fixture(scope="module")
def inline_raise_answers():
    db = DB.open_memory(_options(False, "raise"))
    model = _drive(db)
    answers = _probe_everything(db)
    shape = db.level_file_counts()
    db.close()
    return model, answers, shape


@pytest.mark.parametrize("background,policy", MODES)
def test_every_probe_agrees_across_modes(background, policy,
                                         inline_raise_answers):
    model, want, shape = inline_raise_answers
    db = DB.open_memory(_options(background, policy))
    assert _drive(db) == model
    # The drill needs data in every component or it compares nothing.
    assert db.level_file_counts() == shape
    assert shape[0] >= 1 and sum(shape[1:]) >= 1
    assert len(db.memtable) > 0
    got = _probe_everything(db)
    for probe, answer in want.items():
        assert got[probe] == answer, f"{probe} differs in this mode"
    # And the shared answer is the right one.
    assert {key: value for key, value, _seq in got["scan_with_seq"]} == model
    assert [None if hit is None else hit[0]
            for hit in got["get_with_seq"]] == [model.get(k) for k in KEYS]
    assert got["get_many_with_seq"] == dict(zip(KEYS, got["get_with_seq"]))
    _assert_no_pins_left(db)
    assert db.stats()["corruption"]["events"] == 0
    db.close()


def _rotten_image() -> tuple[FaultInjectingVFS, dict[bytes, bytes], int]:
    """A closed database with one bit flipped in a deep table's data."""
    vfs = FaultInjectingVFS()
    db = DB.open(vfs, "db", _options(False, "quarantine"))
    model = _drive(db)
    db.flush()
    deepest = max(level for level, files
                  in enumerate(db.versions.current.levels) if files)
    victim_number = db.versions.current.levels[deepest][0].file_number
    db.close()
    victim = next(name for name in table_files(vfs)
                  if int(name.rsplit("/", 1)[-1].split(".")[0])
                  == victim_number)
    # Compression is off and a table starts with its first data block:
    # byte 3 of the file is payload the block CRC covers.
    vfs.flip_bit(victim, 3)
    return vfs, model, victim_number


def test_pipeline_reads_around_a_bit_flipped_table():
    """Pipeline + quarantine: containment with a *pinned* read view.

    The version pin and the quarantine decision meet here: every probe
    must serve around the rotten table (missing-but-detected, never
    wrong), release its pin, and agree with the inline engine reading the
    same damaged image.
    """
    answers = {}
    for background in (False, True):
        vfs, model, victim_number = _rotten_image()
        db = DB.open(vfs, "db", _options(background, "quarantine"))
        got = _probe_everything(db)
        corruption = db.stats()["corruption"]
        assert corruption["quarantined"] == [victim_number]
        assert corruption["events"] >= 1
        # Never a wrong value: what is returned is what was written (a
        # merge chain whose base sat in the rotten table folds the rest).
        for key, value, _seq in got["scan_with_seq"]:
            assert model[key] == value or b"|" in model[key]
        served = {key for key, _value, _seq in got["scan_with_seq"]}
        assert served < set(model), "the rotten table's rows must be missing"
        for key, hit in zip(KEYS, got["get_with_seq"]):
            if key in served:
                assert hit is not None
        # GetLite stays conservative about what it can no longer see.
        lost = sorted(set(model) - served)
        assert all(db.key_maybe_in_levels(key, db.options.max_levels)
                   for key in lost)
        assert all(_getlite(db, key, MAX_SEQUENCE - 1)[-1][0]
                   for key in lost)
        _assert_no_pins_left(db)
        # The engine keeps serving: writes, a flush, reads of new data.
        db.put(b"after", b"quarantine")
        db.flush()
        assert db.get(b"after") == b"quarantine"
        _assert_no_pins_left(db)
        answers[background] = got
        db.close()
    assert answers[True] == answers[False]


@pytest.mark.parametrize("background", [False, True])
def test_batched_get_contains_a_rotten_block_as_the_single_get_does(
        background):
    """``get_many_with_seq`` meeting the bit-flipped block *first*.

    ``"raise"``: the batch raises what the first per-key GET to touch the
    block raises, and quarantines nothing.  ``"quarantine"``: the batch
    itself makes the quarantine decision, serves the rest of its keys
    around the table and answers what per-key GETs answer on a second
    copy of the same image; a batch repeated afterwards agrees.
    """
    vfs, _model, victim_number = _rotten_image()
    db = DB.open(vfs, "db", _options(background, "raise"))
    with pytest.raises(CorruptionError) as batch_error:
        db.get_many_with_seq(KEYS)
    with pytest.raises(CorruptionError) as single_error:
        for key in KEYS:
            db.get_with_seq(key)
    assert str(batch_error.value) == str(single_error.value)
    assert db.quarantined_tables() == []
    _assert_no_pins_left(db)
    db.close()

    db = DB.open(vfs, "db", _options(background, "quarantine"))
    batch = db.get_many_with_seq(KEYS)
    assert db.quarantined_tables() == [victim_number]
    assert db.stats()["corruption"]["events"] == 1
    assert db.get_many_with_seq(KEYS[::-1]) == batch
    _assert_no_pins_left(db)
    db.close()
    twin_vfs, _model, _victim = _rotten_image()
    twin = DB.open(twin_vfs, "db", _options(background, "quarantine"))
    assert batch == {key: twin.get_with_seq(key) for key in KEYS}
    assert any(hit is None for hit in batch.values())
    twin.close()


# -- the facade: five index kinds x {inline, pipeline} x {raise, quarantine} ------


FACADE_USERS = [f"u{i}" for i in range(6)]


def _drive_facade(db: SecondaryIndexedDB, seed: int = 2018) -> dict[str, dict]:
    """Puts, overwrites, deletes, flushes and one manual compaction; ends
    with compacted levels, level-0 tables and an unflushed MemTable."""
    rng = random.Random(seed)
    model: dict[str, dict] = {}
    for step in range(500):
        key = f"t{rng.randrange(120):04d}"
        if rng.random() < 0.8:
            model[key] = {"UserID": rng.choice(FACADE_USERS),
                          "CreationTime": step, "Body": "b" * rng.randrange(60)}
            db.put(key, model[key])
        else:
            db.delete(key)
            model.pop(key, None)
        if step % 60 == 59:
            db.flush()
        if step == 300:
            db.compact_all()
    return model


def _facade_answers(db: SecondaryIndexedDB) -> dict:
    def answer(results):
        return [(r.key, r.seq, r.document) for r in results]

    return {
        "lookup": {(user, k): answer(db.lookup("UserID", user, k))
                   for user in FACADE_USERS + ["nobody"] for k in (None, 3)},
        "range_lookup": {k: answer(db.range_lookup("UserID", "u0", "u9", k))
                         for k in (None, 5)},
    }


def _open_facade(vfs, kind: IndexKind, background: bool, policy: str):
    return SecondaryIndexedDB.open(vfs, "data", {"UserID": kind},
                                   _options(background, policy))


@pytest.fixture(scope="module")
def noindex_answers():
    db = _open_facade(FaultInjectingVFS(), IndexKind.NOINDEX, False, "raise")
    model = _drive_facade(db)
    answers = _facade_answers(db)
    db.close()
    assert sorted(key for key, _seq, _doc in answers["range_lookup"][None]) \
        == sorted(model)
    return answers


@pytest.mark.parametrize("kind", list(IndexKind), ids=lambda kind: kind.value)
def test_facade_answers_agree_across_modes_and_with_noindex(
        kind, noindex_answers):
    for background, policy in MODES:
        db = _open_facade(FaultInjectingVFS(), kind, background, policy)
        _drive_facade(db)
        shape = db.primary.level_file_counts()
        assert shape[0] >= 1 and sum(shape[1:]) >= 1
        assert len(db.primary.memtable) > 0
        assert _facade_answers(db) == noindex_answers, (background, policy)
        for _label, table in db.tables():
            _assert_no_pins_left(table)
            assert table.stats()["corruption"]["events"] == 0
        db.close()


def _rotten_facade_image(kind: IndexKind):
    """A closed store with one bit flipped in the deepest primary table."""
    vfs = FaultInjectingVFS()
    db = _open_facade(vfs, kind, False, "quarantine")
    _drive_facade(db)
    db.flush()
    version = db.primary.versions.current
    victim_number = version.levels[version.deepest_nonempty_level()][0] \
        .file_number
    db.close()
    # Compression is off and a table starts with its first data block:
    # byte 3 of the file is payload the block CRC covers.
    vfs.flip_bit(f"data/primary/{victim_number:06d}.ldb", 3)
    return vfs, victim_number


@pytest.mark.parametrize("kind", list(IndexKind), ids=lambda kind: kind.value)
def test_facade_serves_around_a_bit_flipped_primary_table(kind):
    """Quarantine: every kind serves around the rotten table, reports it,
    and — once the quarantine has settled — answers what NoIndex answers
    on the same image, inline and pipeline alike.  Raise: every kind
    raises, and quarantines nothing."""
    settled = {}
    for background in (False, True):
        vfs, victim_number = _rotten_facade_image(kind)
        db = _open_facade(vfs, kind, background, "raise")
        with pytest.raises(CorruptionError):
            db.range_lookup("UserID", "u0", "u9")
        assert db.primary.quarantined_tables() == []
        _assert_no_pins_left(db.primary)
        db.close()

        db = _open_facade(vfs, kind, background, "quarantine")
        # The query that meets the rotten block makes the quarantine
        # decision itself; what it had already decoded stays served.
        first = db.range_lookup("UserID", "u0", "u9")
        assert db.primary.quarantined_tables() == [victim_number]
        assert db.primary.stats()["corruption"]["events"] >= 1
        settled[background] = _facade_answers(db)
        survivors = {key for key, _seq, _doc
                     in settled[background]["range_lookup"][None]}
        assert survivors and survivors <= {r.key for r in first}
        _assert_no_pins_left(db.primary)
        db.close()

        reference = _open_facade(vfs, IndexKind.NOINDEX, background,
                                 "quarantine")
        assert _facade_answers(reference) == settled[background]
        assert reference.primary.quarantined_tables() == [victim_number]
        reference.close()
    assert settled[True] == settled[False]


def test_a_raising_embedded_lookup_leaves_no_pin():
    """``"raise"`` under the pipeline: an Embedded LOOKUP that meets the
    rotten block mid-walk raises, and its view's pin goes with it.  With
    the block mended, a compaction then deletes every table it retires,
    none kept for a reader that is gone."""
    vfs, victim_number = _rotten_facade_image(IndexKind.EMBEDDED)
    db = _open_facade(vfs, IndexKind.EMBEDDED, True, "raise")
    primary = db.primary
    with pytest.raises(CorruptionError):
        for user in FACADE_USERS:
            db.lookup("UserID", user, None, early_termination=False)
    _assert_no_pins_left(primary)
    assert primary.quarantined_tables() == []
    vfs.flip_bit(f"data/primary/{victim_number:06d}.ldb", 3)
    before = {meta.file_number
              for _level, meta in primary.versions.current.all_files()}
    primary.compact_range()
    live = {meta.file_number
            for _level, meta in primary.versions.current.all_files()}
    assert before - live, "the compaction retired nothing"
    assert {int(name.rsplit("/", 1)[-1].split(".")[0])
            for name in table_files(vfs, "data/primary")} == live
    _assert_no_pins_left(primary)
    db.close()
