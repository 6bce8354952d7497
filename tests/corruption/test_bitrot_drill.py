"""Exhaustive bit-rot drill: flip EVERY byte, one at a time.

For each byte of a small live SSTable (and of a WAL tail) the drill
inverts that byte, opens the database fresh (paranoid reads, quarantine
policy) and scans everything.  The invariant is absolute:

    **No single-byte flip may ever yield a wrong result.**

Each flip must be either *harmless* (results identical to the
uncorrupted twin — the byte was padding or redundant) or *detected*
(scan raises nothing, but some rows are missing AND the corruption
counters moved / recovery reported the damage).  A flip that silently
changed a returned value is a CRC hole and fails the drill.

Set ``CORRUPTION_DRILL_LOG_DIR`` to keep per-offset outcome logs (the CI
corruption job uploads them as artifacts).
"""

from __future__ import annotations

import os

from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError
from repro.lsm.faults import FaultInjectingVFS

from drill_utils import corruption_options


def drill_options():
    # One table, small blocks: every part of the format (footer, index,
    # meta, several data blocks) is within the flip range.
    return corruption_options(paranoid_checks=True, block_size=512,
                              sstable_target_size=64 * 1024,
                              memtable_budget=64 * 1024)


def build_image(flush: bool) -> tuple[dict[str, bytes], dict[bytes, bytes]]:
    """Build a tiny DB; returns ``(file_image, expected_rows)``."""
    vfs = FaultInjectingVFS()
    db = DB.open(vfs, "db", drill_options())
    expected = {}
    for i in range(40):
        key = f"k{i:02d}".encode()
        value = f"value-{i:02d}-".encode() * 2
        db.put(key, value)
        expected[key] = value
    if flush:
        db.flush()
    db.close()
    image = {name: bytes(data) for name, data in vfs.base._files.items()}
    return image, expected


def vfs_from_image(image: dict[str, bytes],
                   flip: tuple[str, int] | None = None) -> FaultInjectingVFS:
    vfs = FaultInjectingVFS()
    for name, data in image.items():
        handle = vfs.create(name)
        handle.append(data)
        handle.sync()
        handle.close()
    vfs.op_count = 0
    if flip is not None:
        name, offset = flip
        vfs.base._files[name][offset] ^= 0xFF
    return vfs


def open_log(basename: str):
    log_dir = os.environ.get("CORRUPTION_DRILL_LOG_DIR")
    if not log_dir:
        return None
    os.makedirs(log_dir, exist_ok=True)
    return open(os.path.join(log_dir, basename), "w")


class TestExhaustiveTableBitrot:
    def test_every_flipped_byte_is_detected_or_harmless(self):
        image, expected = build_image(flush=True)
        victim = table_files_from_image(image)[0]
        size = len(image[victim])
        log = open_log("bitrot-table.log")
        outcomes = {"harmless": 0, "detected": 0}
        try:
            for offset in range(size):
                vfs = vfs_from_image(image, flip=(victim, offset))
                db = DB.open(vfs, "db", drill_options())
                got = dict(db.scan())  # must not raise under quarantine
                stats = db.stats()["corruption"]
                for key, value in got.items():
                    assert expected[key] == value, (
                        f"flip at byte {offset} of {victim} silently "
                        f"changed {key!r}")
                if got == expected and not stats["events"] \
                        and not stats["filter_degradations"]:
                    outcome = "harmless"
                else:
                    # Rows missing or damage noticed: must be *detected*.
                    assert stats["events"] or stats["filter_degradations"], (
                        f"flip at byte {offset} of {victim} lost rows "
                        f"without any detection")
                    outcome = "detected"
                outcomes[outcome] += 1
                if log:
                    log.write(f"{victim} byte {offset}: {outcome} "
                              f"(rows {len(got)}/{len(expected)})\n")
                db.close()
        finally:
            if log:
                log.write(f"summary: {outcomes}\n")
                log.close()
        # The drill is only meaningful if flips actually landed in live
        # data: most of a data file is CRC-protected payload.
        assert outcomes["detected"] > size // 2

    def test_flip_plus_repair_restores_consistency(self):
        from repro.lsm.repair import repair_db

        image, expected = build_image(flush=True)
        victim = table_files_from_image(image)[0]
        # A handful of representative offsets: head, every block-size
        # stride, and the footer region.
        size = len(image[victim])
        offsets = sorted(set(
            list(range(0, size, 97)) + [size - 1, size - 20, size - 48]))
        for offset in offsets:
            vfs = vfs_from_image(image, flip=(victim, offset))
            repair_db(vfs, "db", drill_options())
            db = DB.open(vfs, "db", drill_options())
            got = dict(db.scan())
            for key, value in got.items():
                assert expected[key] == value
            assert db.verify_integrity().ok, (
                f"repair after flip at {offset} left inconsistency")
            assert db.scrub().clean
            db.close()


class TestExhaustiveWalBitrot:
    def test_every_flipped_wal_byte_is_detected_or_harmless(self):
        image, expected = build_image(flush=False)  # rows live in the WAL
        wal = wal_files_from_image(image)[-1]
        size = len(image[wal])
        log = open_log("bitrot-wal.log")
        outcomes = {"harmless": 0, "detected": 0, "rejected": 0}
        try:
            for offset in range(size):
                vfs = vfs_from_image(image, flip=(wal, offset))
                try:
                    db = DB.open(vfs, "db", drill_options())
                except CorruptionError:
                    # Mid-file WAL damage: recovery refuses loudly.
                    outcomes["rejected"] += 1
                    if log:
                        log.write(f"{wal} byte {offset}: rejected\n")
                    continue
                got = dict(db.scan())
                for key, value in got.items():
                    assert expected[key] == value, (
                        f"flip at WAL byte {offset} silently changed "
                        f"{key!r}")
                outcome = "harmless" if got == expected else "detected"
                outcomes[outcome] += 1
                if log:
                    log.write(f"{wal} byte {offset}: {outcome} "
                              f"(rows {len(got)}/{len(expected)})\n")
                db.close()
        finally:
            if log:
                log.write(f"summary: {outcomes}\n")
                log.close()
        # Almost every byte of a WAL is CRC-covered record data; flips
        # must overwhelmingly be caught, not absorbed.
        caught = outcomes["detected"] + outcomes["rejected"]
        assert caught > size // 2


def table_files_from_image(image: dict[str, bytes]) -> list[str]:
    return sorted(n for n in image if n.endswith(".ldb"))


def wal_files_from_image(image: dict[str, bytes]) -> list[str]:
    return sorted(n for n in image if n.endswith(".log"))
