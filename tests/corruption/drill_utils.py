"""Helpers shared by the corruption-survival drills.

Kept out of ``conftest.py`` so test modules can import them directly
(the test tree is not a package; pytest puts this directory on
``sys.path``).
"""

from __future__ import annotations

import time

from repro.lsm.db import DB
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.options import Options


def corruption_options(**overrides) -> Options:
    """Tiny multi-table geometry, compression off, quarantine policy."""
    defaults = dict(
        block_size=1024,
        sstable_target_size=4 * 1024,
        memtable_budget=4 * 1024,
        l1_target_size=16 * 1024,
        compression="none",
        on_corruption="quarantine",
    )
    defaults.update(overrides)
    return Options(**defaults)


def populate(db: DB, rows: int = 300) -> dict[bytes, bytes]:
    """Write ``rows`` records, flush, and return the expected contents."""
    expected = {}
    for i in range(rows):
        key = f"k{i:04d}".encode()
        value = f"value-{i:04d}".encode() * 3
        db.put(key, value)
        expected[key] = value
    db.flush()
    return expected


def table_files(vfs: FaultInjectingVFS, name: str = "db") -> list[str]:
    return sorted(n for n in vfs.list_dir(name + "/") if n.endswith(".ldb"))


def wal_files(vfs: FaultInjectingVFS, name: str = "db") -> list[str]:
    return sorted(n for n in vfs.list_dir(name + "/") if n.endswith(".log"))


def meta_block_offset(vfs: FaultInjectingVFS, name: str,
                      block_name: str) -> int:
    """File offset of the meta block ``block_name`` of one stored table."""
    from repro.lsm.keys import decode_length_prefixed, decode_varint
    from repro.lsm.sstable import _FOOTER_SIZE, BlockHandle

    data = bytes(vfs.base._files[name])
    metaindex, _pos = BlockHandle.decode(data[-_FOOTER_SIZE:], 0)
    payload = data[metaindex.offset:metaindex.offset + metaindex.size]
    count, pos = decode_varint(payload, 0)
    for _ in range(count):
        found, pos = decode_length_prefixed(payload, pos)
        handle_bytes, pos = decode_length_prefixed(payload, pos)
        if found == block_name.encode():
            return BlockHandle.decode(handle_bytes, 0)[0].offset
    raise KeyError(f"{name} has no meta block {block_name!r}")


def wait_until(predicate, what: str, timeout: float = 10.0) -> None:
    """Poll ``predicate`` (background-thread progress) with a deadline."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)
