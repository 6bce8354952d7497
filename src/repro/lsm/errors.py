"""Exception hierarchy for the LSM engine.

Mirrors LevelDB's ``Status`` codes: rather than returning status objects the
engine raises a small, well-defined family of exceptions.  All engine errors
derive from :class:`LSMError` so callers can catch storage failures with a
single ``except`` clause.
"""

import errno as _errno


class LSMError(Exception):
    """Base class for every error raised by the storage engine."""


class CorruptionError(LSMError):
    """Persistent data failed an integrity check (CRC, magic number, bounds).

    Raised while decoding WAL records, SSTable blocks, footers or manifest
    edits whose stored checksums or framing do not match their contents.
    """


class NotFoundError(LSMError, KeyError):
    """A required file or key was not found.

    Subclasses :class:`KeyError` as well so that dictionary-style access
    idioms (``except KeyError``) keep working for key lookups.
    """


class InvalidArgumentError(LSMError, ValueError):
    """A caller-supplied argument is malformed or out of range."""


class DBClosedError(LSMError):
    """An operation was attempted on a database handle after ``close()``."""


class ReadOnlyError(LSMError):
    """A mutation was attempted on a database opened in read-only mode."""


class WriteStallError(LSMError):
    """Writes were rejected because level-0 reached its hard file limit.

    LevelDB slows and eventually stalls writers when compaction cannot keep
    up.  The synchronous engine compacts inline, so in practice this error
    signals a configuration problem (for example a zero-size level budget).
    """


class FaultInjectedError(LSMError, IOError):
    """A write failed because the fault-injection harness said so.

    Raised by :class:`~repro.lsm.faults.FaultInjectingVFS` in place of the
    ``EIO`` a real disk would return.  Subclasses :class:`IOError` so code
    written against the OS error taxonomy behaves identically under test.
    """


class ReadFaultError(FaultInjectedError):
    """A read failed because the fault-injection harness said so.

    Models a *transient* ``EIO`` from the device (a retryable media error),
    as opposed to :class:`CorruptionError`, which means the bytes came back
    but failed their integrity check.  The read path retries these with
    bounded backoff (``Options.read_retries``) before giving up.
    """


class OutOfSpaceError(FaultInjectedError):
    """A write failed because the simulated device is full (``ENOSPC``).

    Unlike a crash, the machine is still up and all existing data is
    readable; the engine responds by parking background maintenance and
    flipping the database into read-only mode rather than crash-looping.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.errno = _errno.ENOSPC


class SimulatedCrashError(FaultInjectedError):
    """The simulated machine has crashed; all further I/O fails.

    Once raised, the originating :class:`~repro.lsm.faults.FaultInjectingVFS`
    refuses every subsequent operation with the same error, so in-flight
    work unwinds exactly as it would on a kernel panic.  Recovery proceeds
    from :meth:`~repro.lsm.faults.FaultInjectingVFS.crash_image`.
    """

