"""Virtual filesystem with block-grained I/O accounting.

The paper's primary experimental metric is the *number of disk block
accesses* performed by each indexing technique (Figures 9c and 13-15 plot
cumulative disk I/O; Tables 3 and 5 bound it analytically).  Re-running the
original experiments on spinning rust would make results hardware-dependent
and non-deterministic, so every byte the engine reads or writes flows
through a :class:`VFS` that meters I/O in 4 KiB device-block units.

Two implementations are provided:

:class:`MemoryVFS`
    Files live in ``bytearray`` buffers.  Fast and fully deterministic; the
    default for tests and benchmarks.  A single instance can be shared
    across DB open/close cycles to exercise recovery paths.

:class:`LocalVFS`
    Files live on the real filesystem, for durability demonstrations and
    for anyone who wants to inspect the produced SSTables.

Reads are tagged with a :class:`Category` so experiments can split, e.g.,
compaction I/O from query I/O exactly as the paper's figures do.
"""

from __future__ import annotations

import os
import threading
from copy import copy
from dataclasses import dataclass, field, fields
from enum import Enum

from typing import Any, Callable

from repro.lsm.errors import (
    CorruptionError,
    NotFoundError,
    SimulatedCrashError,
)

#: Device block size used to convert byte counts into I/O operations.
DEVICE_BLOCK_SIZE = 4096


def retry_transient_io(retries: int, what: str,
                       call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, with ``retries`` more tries on *transient* I/O errors.

    The engine's one retry policy for reads (``Options.read_retries``): an
    ``EIO`` from the device usually succeeds on the next attempt.  A
    checksum failure is not transient (the bytes arrived, they are just
    wrong) and a simulated crash is terminal, so neither is retried; a
    missing file (:class:`NotFoundError`, no ``OSError``) passes through
    too.  A call that keeps failing past
    the budget is reported as :class:`CorruptionError` — ``what`` and the
    arguments name it — so the containment layer quarantines the table
    instead of crash-looping the read.
    """
    remaining = retries
    while True:
        try:
            return call(*args)
        except (CorruptionError, SimulatedCrashError):
            raise
        except OSError as exc:
            if remaining <= 0:
                raise CorruptionError(
                    f"{what} {args} still failing after {retries} "
                    f"retries: {exc}") from exc
            remaining -= 1


class Category(str, Enum):
    """What a read or write was performed for.

    The categories correspond to the series the paper plots separately:
    query-time data reads, index(-table) reads, compaction traffic and log
    writes.
    """

    DATA = "data"
    INDEX = "index"
    FILTER = "filter"
    COMPACTION = "compaction"
    FLUSH = "flush"
    WAL = "wal"
    MANIFEST = "manifest"
    OTHER = "other"


def _blocks(nbytes: int) -> int:
    """Number of device blocks touched by an access of ``nbytes`` bytes."""
    if nbytes <= 0:
        return 0
    return -(-nbytes // DEVICE_BLOCK_SIZE)


def counter_dict(counters: Any) -> dict[str, Any]:
    """A counter dataclass as a dict, each dict field copied in one step:
    threads count without a lock, and ``asdict`` would fail on a mapping
    that grows mid-copy."""
    return {f.name: copy(getattr(counters, f.name)) for f in fields(counters)}


@dataclass
class IOStats:
    """Counters of device-block reads and writes, split by category.

    ``read_ops``/``write_ops`` count *accesses* (seeks, roughly); the
    ``*_blocks`` counters count 4 KiB device blocks, which is the unit the
    paper calls a "disk access".
    """

    read_ops: int = 0
    write_ops: int = 0
    read_blocks: int = 0
    write_blocks: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    reads_by_category: dict[str, int] = field(default_factory=dict)
    writes_by_category: dict[str, int] = field(default_factory=dict)

    def record_read(self, nbytes: int, category: Category) -> None:
        blocks = _blocks(nbytes)
        self.read_ops += 1
        self.read_blocks += blocks
        self.read_bytes += nbytes
        key = category.value
        self.reads_by_category[key] = self.reads_by_category.get(key, 0) + blocks

    def record_write(self, nbytes: int, category: Category) -> None:
        blocks = _blocks(nbytes)
        self.write_ops += 1
        self.write_blocks += blocks
        self.write_bytes += nbytes
        key = category.value
        self.writes_by_category[key] = self.writes_by_category.get(key, 0) + blocks

    def snapshot(self) -> "IOStats":
        """Copy of the current counters (for before/after deltas)."""
        return IOStats(**counter_dict(self))

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` was snapshotted.

        A per-category entry that did not change is left out.
        """
        counts: dict[str, Any] = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(earlier, f.name)
            if isinstance(now, dict):
                counts[f.name] = {key: value - then.get(key, 0)
                                  for key, value in now.items()
                                  if value != then.get(key, 0)}
            else:
                counts[f.name] = now - then
        return IOStats(**counts)

    @property
    def total_blocks(self) -> int:
        return self.read_blocks + self.write_blocks


class WritableFile:
    """Append-only file handle."""

    def append(self, data: bytes, category: Category = Category.OTHER) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError


class RandomAccessFile:
    """Positional-read file handle."""

    def read_at(self, offset: int, length: int,
                category: Category = Category.DATA,
                charge: bool = True) -> bytes:
        """Read ``length`` bytes at ``offset``.

        ``charge=False`` performs the read without touching the I/O
        counters; the buffer-cache simulator uses it to serve hits "from
        memory".
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError


class VFS:
    """Abstract filesystem interface used by the engine."""

    def __init__(self) -> None:
        self.stats = IOStats()
        self._lock = threading.Lock()

    # -- file lifecycle -----------------------------------------------------

    def create(self, name: str) -> WritableFile:
        raise NotImplementedError

    def open_random(self, name: str) -> RandomAccessFile:
        raise NotImplementedError

    def read_whole(self, name: str, category: Category = Category.OTHER) -> bytes:
        handle = self.open_random(name)
        try:
            return handle.read_at(0, handle.size, category)
        finally:
            handle.close()

    def write_whole(self, name: str, data: bytes,
                    category: Category = Category.OTHER) -> None:
        handle = self.create(name)
        try:
            handle.append(data, category)
            handle.sync()
        finally:
            handle.close()

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def delete_if_exists(self, name: str) -> bool:
        """Delete ``name`` if present; returns whether it existed.

        Recovery paths use this where a crash may already have removed the
        file (for example the previous WAL after an interrupted flush).
        """
        try:
            self.delete(name)
        except NotFoundError:
            return False
        return True

    def rename(self, old: str, new: str) -> None:
        raise NotImplementedError

    def list_dir(self, prefix: str = "") -> list[str]:
        raise NotImplementedError

    def file_size(self, name: str) -> int:
        raise NotImplementedError

    def total_size(self, prefix: str = "") -> int:
        """Sum of file sizes under ``prefix`` (the "database size" metric)."""
        return sum(self.file_size(name) for name in self.list_dir(prefix))

    def reset_stats(self) -> None:
        self.stats = IOStats()


class _MemoryWritable(WritableFile):
    def __init__(self, vfs: "MemoryVFS", name: str) -> None:
        self._vfs = vfs
        self._name = name
        self._buffer = bytearray()
        self._closed = False
        vfs._files[name] = self._buffer

    def append(self, data: bytes, category: Category = Category.OTHER) -> None:
        if self._closed:
            raise ValueError(f"file already closed: {self._name}")
        self._buffer.extend(data)
        self._vfs.stats.record_write(len(data), category)

    def flush(self) -> None:
        return None

    def sync(self) -> None:
        return None

    def close(self) -> None:
        self._closed = True

    @property
    def size(self) -> int:
        return len(self._buffer)


class _MemoryRandomAccess(RandomAccessFile):
    def __init__(self, vfs: "MemoryVFS", name: str) -> None:
        if name not in vfs._files:
            raise NotFoundError(f"no such file: {name}")
        self._vfs = vfs
        self._name = name
        self._buffer = vfs._files[name]

    def read_at(self, offset: int, length: int,
                category: Category = Category.DATA,
                charge: bool = True) -> bytes:
        data = bytes(self._buffer[offset:offset + length])
        if charge:
            self._vfs.stats.record_read(len(data), category)
        return data

    def close(self) -> None:
        return None

    @property
    def size(self) -> int:
        return len(self._buffer)


class MemoryVFS(VFS):
    """In-memory filesystem: deterministic, fast, and metered."""

    def __init__(self) -> None:
        super().__init__()
        self._files: dict[str, bytearray] = {}

    def create(self, name: str) -> WritableFile:
        return _MemoryWritable(self, name)

    def open_random(self, name: str) -> RandomAccessFile:
        return _MemoryRandomAccess(self, name)

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise NotFoundError(f"no such file: {name}")
        del self._files[name]

    def rename(self, old: str, new: str) -> None:
        if old not in self._files:
            raise NotFoundError(f"no such file: {old}")
        self._files[new] = self._files.pop(old)

    def list_dir(self, prefix: str = "") -> list[str]:
        return sorted(name for name in self._files if name.startswith(prefix))

    def file_size(self, name: str) -> int:
        if name not in self._files:
            raise NotFoundError(f"no such file: {name}")
        return len(self._files[name])


class _LocalWritable(WritableFile):
    def __init__(self, vfs: "LocalVFS", path: str) -> None:
        self._vfs = vfs
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._fh = open(path, "wb")

    def append(self, data: bytes, category: Category = Category.OTHER) -> None:
        self._fh.write(data)
        self._vfs.stats.record_write(len(data), category)

    def flush(self) -> None:
        self._fh.flush()

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @property
    def size(self) -> int:
        return self._fh.tell()


class _LocalRandomAccess(RandomAccessFile):
    def __init__(self, vfs: "LocalVFS", path: str) -> None:
        if not os.path.exists(path):
            raise NotFoundError(f"no such file: {path}")
        self._vfs = vfs
        self._fh = open(path, "rb")
        self._size = os.path.getsize(path)

    def read_at(self, offset: int, length: int,
                category: Category = Category.DATA,
                charge: bool = True) -> bytes:
        # Positional read: seek()+read() on the shared handle is not
        # thread-safe — concurrent readers would interleave positions and
        # hand each other bytes from the wrong offset.
        data = os.pread(self._fh.fileno(), length, offset)
        if charge:
            self._vfs.stats.record_read(len(data), category)
        return data

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    @property
    def size(self) -> int:
        return self._size


class LocalVFS(VFS):
    """Filesystem-backed VFS rooted at ``root``."""

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def create(self, name: str) -> WritableFile:
        return _LocalWritable(self, self._path(name))

    def open_random(self, name: str) -> RandomAccessFile:
        return _LocalRandomAccess(self, self._path(name))

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        path = self._path(name)
        if not os.path.exists(path):
            raise NotFoundError(f"no such file: {name}")
        os.remove(path)

    def rename(self, old: str, new: str) -> None:
        old_path = self._path(old)
        if not os.path.exists(old_path):
            raise NotFoundError(f"no such file: {old}")
        os.replace(old_path, self._path(new))

    def list_dir(self, prefix: str = "") -> list[str]:
        found: list[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                rel = os.path.relpath(os.path.join(dirpath, filename), self.root)
                rel = rel.replace(os.sep, "/")
                if rel.startswith(prefix):
                    found.append(rel)
        return sorted(found)

    def file_size(self, name: str) -> int:
        path = self._path(name)
        if not os.path.exists(path):
            raise NotFoundError(f"no such file: {name}")
        return os.path.getsize(path)
