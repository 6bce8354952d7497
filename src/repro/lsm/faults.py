"""Fault injection and crash simulation: one schedule, two adapters.

The paper's experiments assume an engine that survives month-long runs on
real disks, so the WAL/manifest recovery paths must hold up under power
loss, not just clean shutdowns.  Every drill scripts the same rule — "fail
the *N*-th event of kind *K*, optionally for a run of events" — and
:class:`FaultSchedule` is that rule: it counts events per kind, maps an
event index to a fault, logs what fired, and round-trips through JSON so
a failing schedule can be replayed.  Two adapters execute it:

* :class:`FaultInjectingVFS` wraps a base :class:`~repro.lsm.vfs.VFS` (a
  fresh :class:`~repro.lsm.vfs.MemoryVFS` by default) and counts ``write``
  events (mutating ops: create, append, sync, delete, rename) and ``read``
  events (``open_random``, ``read_at``).
* :class:`~repro.server.netfaults.FaultInjectingTransport` counts the
  wire's ``connect`` / ``send`` / ``response`` events.

The storage faults:

* **Write errors and crashes** — :meth:`~FaultInjectingVFS.schedule_write_error`
  makes the *N*-th mutating operation fail with
  :class:`~repro.lsm.errors.FaultInjectedError` (the ``EIO`` case);
  :meth:`~FaultInjectingVFS.schedule_crash` instead raises
  :class:`~repro.lsm.errors.SimulatedCrashError` and freezes the
  filesystem: every later operation fails the same way, so in-flight work
  unwinds exactly as on a kernel panic.

* **Durability tracking** — every file records how many of its bytes have
  been ``sync()``\\ ed.  :meth:`~FaultInjectingVFS.crash_image` snapshots
  what a post-crash disk would hold: synced prefixes always survive;
  un-synced appends are dropped (``unsynced="drop"``), kept up to a 4 KiB
  device-page boundary (``unsynced="torn"``, the half-written tail the
  WAL's per-fragment CRCs exist to detect), or kept whole
  (``unsynced="keep"``, the lucky case where the page cache drained first).
  Metadata operations (create/delete/rename) model a journaling filesystem:
  they are durable as soon as they are applied.

* **Read faults and bit rot** — :meth:`~FaultInjectingVFS.schedule_read_error`
  makes read operations raise a transient
  :class:`~repro.lsm.errors.ReadFaultError` (``EIO``); the engine is
  expected to retry.  :meth:`~FaultInjectingVFS.flip_bit` and
  :meth:`~FaultInjectingVFS.garble` silently damage stored bytes (flipping
  the same bit twice heals it — handy for cache-poisoning drills), while
  :meth:`~FaultInjectingVFS.corrupt_reads` corrupts data *in flight* for
  the next reads matching a file-name substring and/or I/O
  :class:`~repro.lsm.vfs.Category`, leaving the stored bytes intact.

* **Disk-full** — :meth:`~FaultInjectingVFS.schedule_enospc` makes every
  space-consuming operation (create/append/sync) from mutating op *N*
  onward fail with :class:`~repro.lsm.errors.OutOfSpaceError`, while
  deletes, renames and reads keep working — the classic full-disk regime a
  database must degrade into read-only mode under, not crash-loop.

* **Crash-point enumeration** — :func:`count_mutations` runs a workload
  once to learn its deterministic operation schedule; iterating
  :func:`crash_points` and calling :func:`run_until_crash` then replays the
  workload, crashing before each operation in turn, for exhaustive
  recovery drills (see ``tests/property/test_crash_consistency.py``).

Crash imaging and stored-byte damage need the default ``MemoryVFS`` base;
counting and raising work over any base, and I/O metering keeps working
because the adapter shares its base's :class:`~repro.lsm.vfs.IOStats`.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Container, Iterable

from repro.lsm.errors import (
    FaultInjectedError,
    NotFoundError,
    OutOfSpaceError,
    ReadFaultError,
    SimulatedCrashError,
)
from repro.lsm.vfs import (
    DEVICE_BLOCK_SIZE,
    Category,
    MemoryVFS,
    RandomAccessFile,
    VFS,
    WritableFile,
)

#: Modes for what happens to un-synced appended bytes at a crash.
UNSYNCED_MODES = ("drop", "torn", "keep")

#: Mutating operations that consume device space; the ones ENOSPC fails.
#: Deletes and renames only touch metadata and still succeed on a full disk.
_SPACE_CONSUMING = frozenset({"create", "append", "sync"})

#: In-flight read corruption flavours.
CORRUPT_MODES = ("bitflip", "garble")

#: Every counted event, and the faults it can carry.
FAULTS = {
    "write": ("crash", "error", "enospc"),          # VFS mutating ops
    "read": ("eio",),                               # VFS read ops
    "connect": ("refuse",),                         # socket connect attempts
    "send": ("break", "torn"),                      # socket send calls
    "response": ("drop", "torn"),                   # response-frame reads
}
_NET_EVENTS = ("connect", "send", "response")

#: What :meth:`FaultSchedule.random` draws from: faults a workload rides out.
_RANDOM_FAULTS = {"send": ("break", "torn"), "response": ("drop", "torn"),
                  "write": ("error",), "read": ("eio",)}

#: The exception each write fault raises.
_RAISES = {"crash": SimulatedCrashError, "error": FaultInjectedError,
           "enospc": OutOfSpaceError}

#: Write faults that fire once and replace each other when re-armed.
_ONE_SHOT = ("crash", "error")

Workload = Callable[[VFS], None]


class FaultSchedule:
    """Counted-event faults: "fail the *N*-th event of kind *K*".

    Adapters report each event with :meth:`hit`; the schedule counts it
    (1-based, per event, under one lock — a pooled client's threads or a
    DB's background compactor may share a schedule) and returns the fault
    armed at that index, if any.  A fault ``(event, at, fault, count)``
    covers events ``at`` … ``at + count - 1`` (``count=None``: every event
    from ``at`` on).  Bounded faults on one event may not overlap, and a
    bounded fault outranks an open-ended one.  ``delay`` — a sleep, or a
    ``DeterministicScheduler`` step hook — is called before every event
    returns, with a name such as ``"net:send:3"`` or ``"vfs:write:7"``.
    """

    def __init__(self, faults: Iterable[Iterable] = (), *,
                 delay: Callable[[str], None] | None = None) -> None:
        self._lock = threading.Lock()
        #: Events counted so far, per event name.
        self.counts = dict.fromkeys(FAULTS, 0)
        #: Armed ``(event, at, fault, count)`` entries, bounded ones first.
        self.faults: list[tuple[str, int, str, int | None]] = []
        #: Every fault fired: ``(f"{fault}_{event}", 1-based index)`` —
        #: lets a drill assert the scheduled fault actually happened.
        self.injected: list[tuple[str, int]] = []
        self.delay = delay
        for fault in faults:
            self.arm(*fault)

    @classmethod
    def random(cls, seed: int, *, sends: int = 0, responses: int | None = None,
               writes: int = 0, reads: int = 0, fault_rate: float = 0.15,
               refuse_connects: int = 0,
               delay: Callable[[str], None] | None = None) -> "FaultSchedule":
        """A reproducible chaos schedule over the first ``sends`` send
        calls, ``responses`` response frames (default: as many as sends),
        ``writes`` mutating ops and ``reads`` read ops: each event
        independently faults with ``fault_rate``, its flavour chosen
        uniformly among the transient ones.  Same seed, same schedule."""
        rng = random.Random(seed)
        schedule = cls(delay=delay)
        if refuse_connects:
            schedule.arm("connect", 1, "refuse", refuse_connects)
        totals = {"send": sends, "write": writes, "read": reads,
                  "response": sends if responses is None else responses}
        for event in ("send", "response", "write", "read"):
            kinds = _RANDOM_FAULTS[event]
            for index in range(1, totals[event] + 1):
                if rng.random() < fault_rate:
                    schedule.arm(event, index,
                                 kinds[int(rng.random() * len(kinds))])
        return schedule

    def to_json(self) -> list[list]:
        """The armed faults; ``FaultSchedule(doc)`` rebuilds them."""
        return [list(entry) for entry in self.faults]

    def arm(self, event: str, at: int, fault: str, count: int | None = 1,
            *, replace: Container[str] = ()) -> None:
        """Fire ``fault`` at ``count`` events of ``event`` from ``at`` on,
        after dropping that event's armed ``replace`` faults."""
        if fault not in FAULTS[event]:
            raise ValueError(f"{event} events cannot carry {fault!r}")
        if at < 1 or (count is not None and count < 1):
            raise ValueError("fault indices are 1-based and counts >= 1")
        with self._lock:
            self._drop(event, replace)
            if count is not None and any(
                    e == event and n is not None
                    and a < at + count and at < a + n
                    for e, a, _f, n in self.faults):
                raise ValueError(f"{event} faults overlap at {at}")
            self.faults.append((event, at, fault, count))
            self.faults.sort(key=lambda entry: entry[3] is None)

    def disarm(self, event: str, *faults: str) -> None:
        """Drop ``event``'s armed ``faults`` (every one if none is named)."""
        with self._lock:
            self._drop(event, faults or FAULTS[event])

    def _drop(self, event: str, faults: Container[str]) -> None:
        self.faults = [entry for entry in self.faults
                       if entry[0] != event or entry[2] not in faults]

    def hit(self, event: str, skip: Container[str] = ()) -> str | None:
        """Count one ``event``; returns the fault it fires, or ``None``.

        ``skip`` names faults that cannot apply to this particular event
        (ENOSPC on a delete)."""
        with self._lock:
            self.counts[event] += 1
            index = self.counts[event]
            fault = next((f for e, a, f, n in self.faults
                          if e == event and a <= index
                          and (n is None or index < a + n)
                          and f not in skip), None)
            if fault is not None:
                self.injected.append((f"{fault}_{event}", index))
        if self.delay is not None:
            layer = "net" if event in _NET_EVENTS else "vfs"
            self.delay(f"{layer}:{event}:{index}")
        return fault


def _garble_pattern(length: int, seed: int = 0) -> bytes:
    """Deterministic junk bytes (an LCG) — reproducible page garbling."""
    state = (seed * 2654435761 + 97) & 0xFFFFFFFF
    out = bytearray(length)
    for i in range(length):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        out[i] = (state >> 16) & 0xFF
    return bytes(out)


class _ReadCorruption:
    """One armed in-flight corruption rule (see ``corrupt_reads``)."""

    __slots__ = ("count", "name_substring", "category", "mode")

    def __init__(self, count: int, name_substring: str | None,
                 category: Category | None, mode: str) -> None:
        self.count = count
        self.name_substring = name_substring
        self.category = category
        self.mode = mode

    def matches(self, name: str, category: Category) -> bool:
        if self.count <= 0:
            return False
        if self.name_substring is not None \
                and self.name_substring not in name:
            return False
        if self.category is not None and category is not self.category:
            return False
        return True

    def apply(self, data: bytes) -> bytes:
        if not data:
            return data
        if self.mode == "garble":
            return _garble_pattern(len(data), seed=len(data))
        # Single-bit flip in the middle of the returned slice: the smallest
        # possible silent damage, exactly what block CRCs exist to catch.
        damaged = bytearray(data)
        damaged[len(damaged) // 2] ^= 0x01
        return bytes(damaged)


class FaultInjectingVFS(VFS):
    """The storage adapter: a :class:`FaultSchedule` executed on a base VFS.

    Mutating operations (create, append, sync, delete, rename) are counted
    as ``write`` events; reads are free of them.  ``op_count`` after a
    fault-free run is therefore the number of enumerable crash points of a
    workload.
    """

    def __init__(self, base: VFS | None = None,
                 schedule: FaultSchedule | None = None) -> None:
        super().__init__()
        self.base = MemoryVFS() if base is None else base
        self.stats = self.base.stats
        self.schedule = FaultSchedule() if schedule is None else schedule
        #: Synced length of each file written through this adapter; a
        #: file without an entry is durable whole.
        self._durable: dict[str, int] = {}
        #: One ``(kind, name)`` entry per counted mutating op — crash-point
        #: drills use it to find the ops that touch a particular file
        #: (``op_log[i]`` describes 1-based mutating op ``i + 1``).
        self.op_log: list[tuple[str, str]] = []
        self.crashed = False
        self._read_corruptions: list[_ReadCorruption] = []

    @property
    def op_count(self) -> int:
        """Mutating operations counted so far."""
        return self.schedule.counts["write"]

    @op_count.setter
    def op_count(self, value: int) -> None:
        self.schedule.counts["write"] = value

    @property
    def read_op_count(self) -> int:
        """Read operations counted so far (``open_random``, ``read_at``)."""
        return self.schedule.counts["read"]

    def reset_stats(self) -> None:
        self.base.reset_stats()
        self.stats = self.base.stats

    # -- fault scheduling ----------------------------------------------------

    def schedule_crash(self, at_op: int) -> None:
        """Crash the machine just before mutating operation ``at_op`` (1-based)."""
        self.schedule.arm("write", at_op, "crash", replace=_ONE_SHOT)

    def schedule_write_error(self, at_op: int) -> None:
        """Fail mutating operation ``at_op`` once; later operations succeed."""
        self.schedule.arm("write", at_op, "error", replace=_ONE_SHOT)

    def schedule_read_error(self, at_read: int, count: int = 1) -> None:
        """Fail ``count`` read operations starting at read op ``at_read``.

        Failures raise :class:`~repro.lsm.errors.ReadFaultError` — a
        *transient* ``EIO``: retrying the read is a new read op, so after
        ``count`` failures the same read succeeds.  Models the retryable
        media errors the engine's bounded read-retry loop exists for.
        """
        self.schedule.arm("read", at_read, "eio", count, replace=("eio",))

    def schedule_enospc(self, at_op: int = 1) -> None:
        """Run out of disk space at mutating operation ``at_op`` (1-based).

        From that op onward every space-consuming operation (create, append,
        sync) raises :class:`~repro.lsm.errors.OutOfSpaceError`; deletes,
        renames and all reads keep working.  Persistent until
        :meth:`clear_enospc` — a full disk stays full.
        """
        self.schedule.arm("write", at_op, "enospc", None, replace=("enospc",))

    def clear_enospc(self) -> None:
        """Free up space: space-consuming operations succeed again."""
        self.schedule.disarm("write", "enospc")

    # -- stored-byte damage (bit rot) ----------------------------------------

    def _stored(self, name: str | None = None):
        """The base's byte buffers (or ``name``'s): crash imaging and bit
        rot edit stored bytes, which only a ``MemoryVFS`` base exposes."""
        if not isinstance(self.base, MemoryVFS):
            raise TypeError("crash imaging and bit rot need a MemoryVFS base")
        files = self.base._files
        if name is None:
            return files
        if name not in files:
            raise NotFoundError(f"no such file: {name}")
        return files[name]

    def flip_bit(self, name: str, byte_offset: int, bit: int = 0) -> None:
        """Silently flip one stored bit of ``name`` (XOR — flipping the same
        bit again heals the file, which cache-poisoning drills rely on)."""
        data = self._stored(name)
        if not 0 <= byte_offset < len(data):
            raise ValueError(
                f"byte_offset {byte_offset} outside {name} "
                f"({len(data)} bytes)")
        if not 0 <= bit < 8:
            raise ValueError("bit must be in [0, 8)")
        data[byte_offset] ^= 1 << bit

    def garble(self, name: str, offset: int = 0,
               length: int = DEVICE_BLOCK_SIZE) -> bytes:
        """Overwrite a stored byte range with deterministic junk (a whole
        device page by default).  Returns the original bytes so a drill can
        restore them."""
        data = self._stored(name)
        if not 0 <= offset < len(data):
            raise ValueError(
                f"offset {offset} outside {name} ({len(data)} bytes)")
        end = min(offset + length, len(data))
        original = bytes(data[offset:end])
        data[offset:end] = _garble_pattern(end - offset, seed=offset)
        return original

    def corrupt_reads(self, count: int = 1, *,
                      name_substring: str | None = None,
                      category: Category | None = None,
                      mode: str = "bitflip") -> None:
        """Corrupt the next ``count`` reads matching the given target, in
        flight: the stored bytes stay intact, only the returned copy is
        damaged (a flaky controller / cable, not bit rot).

        ``name_substring`` matches against the file name; ``category``
        against the read's I/O :class:`~repro.lsm.vfs.Category` (DATA,
        INDEX, FILTER, WAL, MANIFEST, ...).  Both ``None`` means every
        read matches.  ``mode`` is ``"bitflip"`` (single-bit) or
        ``"garble"`` (whole-slice junk).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if mode not in CORRUPT_MODES:
            raise ValueError(f"mode must be one of {CORRUPT_MODES}")
        self._read_corruptions.append(
            _ReadCorruption(count, name_substring, category, mode))

    def _mutate(self, kind: str, name: str) -> None:
        """Gate every mutating operation: count it, maybe fault, maybe crash."""
        self._check_up()
        fault = self.schedule.hit(
            "write", () if kind in _SPACE_CONSUMING else ("enospc",))
        self.op_log.append((kind, name))
        if fault is None:
            return
        self.crashed = fault == "crash"
        raise _RAISES[fault](
            f"injected {fault} at mutating op {self.op_count} ({kind})")

    def _check_up(self) -> None:
        if self.crashed:
            raise SimulatedCrashError("filesystem is down (simulated crash)")

    def _read_op(self) -> None:
        """Gate every read operation: count it, maybe raise transient EIO."""
        self._check_up()
        if self.schedule.hit("read") is not None:
            raise ReadFaultError(
                f"injected read failure at read op {self.read_op_count}")

    def _maybe_corrupt(self, name: str, category: Category,
                       data: bytes) -> bytes:
        if not self._read_corruptions:
            return data
        for rule in self._read_corruptions:
            if rule.matches(name, category):
                rule.count -= 1
                if rule.count <= 0:
                    self._read_corruptions.remove(rule)
                return rule.apply(data)
        return data

    # -- crash imaging -------------------------------------------------------

    def _surviving_length(self, name: str, unsynced: str) -> int:
        size = len(self._stored(name))
        durable = self._durable.get(name, size)
        if unsynced == "keep":
            return size
        if unsynced == "torn":
            # Whole 4 KiB device pages of the un-synced tail may have hit
            # the platter before power died; partial pages never survive.
            return max(durable, size - size % DEVICE_BLOCK_SIZE)
        if unsynced == "drop":
            return durable
        raise ValueError(f"unknown unsynced mode: {unsynced!r}")

    def crash_image(self, unsynced: str = "drop") -> MemoryVFS:
        """A fresh :class:`MemoryVFS` holding what survives power loss.

        ``unsynced`` picks the fate of appended-but-never-synced bytes:
        ``"drop"`` loses them all, ``"torn"`` keeps whole 4 KiB pages of the
        tail (a torn write), ``"keep"`` keeps everything.  Synced bytes and
        applied metadata operations always survive.
        """
        image = MemoryVFS()
        for name, data in self._stored().items():
            image._files[name] = data[:self._surviving_length(name, unsynced)]
        return image

    def reboot(self, unsynced: str = "drop") -> None:
        """Apply :meth:`crash_image` semantics in place and come back up."""
        for name, data in self._stored().items():
            del data[self._surviving_length(name, unsynced):]
        self._durable.clear()
        self.crashed = False
        # Transient faults (a pending write fault, in-flight EIO,
        # controller corruption) do not survive a reboot; stored bit rot
        # and a full disk do.
        self.schedule.disarm("write", *_ONE_SHOT)
        self.schedule.disarm("read")
        self._read_corruptions.clear()

    def durable_size(self, name: str) -> int:
        """Bytes of ``name`` guaranteed to survive a crash right now."""
        return self._durable.get(name, self.base.file_size(name))

    # -- VFS interface -------------------------------------------------------

    def create(self, name: str) -> WritableFile:
        self._mutate("create", name)
        handle = self.base.create(name)
        self._durable[name] = 0
        return _FaultedWritable(self, name, handle)

    def open_random(self, name: str) -> RandomAccessFile:
        self._read_op()
        return _FaultedRandomAccess(self, name, self.base.open_random(name))

    def exists(self, name: str) -> bool:
        self._check_up()
        return self.base.exists(name)

    def delete(self, name: str) -> None:
        self._check_up()
        if not self.base.exists(name):
            raise NotFoundError(f"no such file: {name}")
        self._mutate("delete", name)
        self.base.delete(name)
        self._durable.pop(name, None)

    def rename(self, old: str, new: str) -> None:
        self._check_up()
        if not self.base.exists(old):
            raise NotFoundError(f"no such file: {old}")
        self._mutate("rename", new)
        self.base.rename(old, new)
        if old in self._durable:
            self._durable[new] = self._durable.pop(old)
        else:
            self._durable.pop(new, None)

    def list_dir(self, prefix: str = "") -> list[str]:
        self._check_up()
        return self.base.list_dir(prefix)

    def file_size(self, name: str) -> int:
        self._check_up()
        return self.base.file_size(name)


class _FaultedWritable(WritableFile):
    def __init__(self, vfs: FaultInjectingVFS, name: str,
                 base: WritableFile) -> None:
        self._vfs = vfs
        self._name = name
        self._base = base

    def append(self, data: bytes, category: Category = Category.OTHER) -> None:
        self._vfs._mutate("append", self._name)
        self._base.append(data, category)

    def flush(self) -> None:
        self._base.flush()

    def sync(self) -> None:
        self._vfs._mutate("sync", self._name)
        self._base.sync()
        self._vfs._durable[self._name] = self._base.size

    def close(self) -> None:
        # Closing is always safe (even post-crash): it promises no
        # durability, exactly like POSIX close(2) without fsync.
        self._base.close()

    @property
    def size(self) -> int:
        return self._base.size


class _FaultedRandomAccess(RandomAccessFile):
    def __init__(self, vfs: FaultInjectingVFS, name: str,
                 base: RandomAccessFile) -> None:
        self._vfs = vfs
        self._name = name
        self._base = base

    def read_at(self, offset: int, length: int,
                category: Category = Category.DATA,
                charge: bool = True) -> bytes:
        self._vfs._read_op()
        data = self._base.read_at(offset, length, category, charge)
        return self._vfs._maybe_corrupt(self._name, category, data)

    def close(self) -> None:
        self._base.close()

    @property
    def size(self) -> int:
        return self._base.size


# -- crash-point enumeration -----------------------------------------------


def count_mutations(workload: Workload) -> int:
    """Run ``workload`` once, fault-free, and count its mutating operations.

    The engine is deterministic, so this count is stable across runs and
    defines the crash-point schedule for :func:`run_until_crash`.
    """
    vfs = FaultInjectingVFS()
    workload(vfs)
    return vfs.op_count


def crash_points(workload: Workload) -> range:
    """Every crash point of ``workload``: 1-based mutating-op indices."""
    return range(1, count_mutations(workload) + 1)


def run_until_crash(workload: Workload, at_op: int) -> FaultInjectingVFS:
    """Replay ``workload`` on a fresh VFS, crashing before op ``at_op``.

    Returns the crashed (or, if ``at_op`` lies beyond the workload's
    schedule, completed) filesystem; recover from
    :meth:`FaultInjectingVFS.crash_image`.
    """
    vfs = FaultInjectingVFS()
    vfs.schedule_crash(at_op)
    try:
        workload(vfs)
    except SimulatedCrashError:
        pass
    return vfs
