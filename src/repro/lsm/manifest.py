"""Manifest: the durable log of version edits.

The manifest reuses the WAL record format; each record is one serialized
:class:`~repro.lsm.version.VersionEdit`.  A ``CURRENT`` file names the
active manifest, and recovery replays every edit in order to rebuild the
:class:`~repro.lsm.version.VersionSet` — the same two-file scheme LevelDB
uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.lsm.errors import CorruptionError
from repro.lsm.vfs import VFS, Category
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import LogReader, LogWriter


def manifest_file_name(db_name: str, number: int) -> str:
    return f"{db_name}/MANIFEST-{number:06d}"


def current_file_name(db_name: str) -> str:
    return f"{db_name}/CURRENT"


def current_tmp_file_name(db_name: str) -> str:
    """Scratch file for atomic CURRENT installation (may survive a crash)."""
    return f"{db_name}/CURRENT.tmp"


def table_file_name(db_name: str, number: int) -> str:
    return f"{db_name}/{number:06d}.ldb"


def log_file_name(db_name: str, number: int) -> str:
    return f"{db_name}/{number:06d}.log"


_ENGINE_FILE = re.compile(r"([0-9]+)\.(ldb|log)|MANIFEST-([0-9]+)")


@dataclass
class DBFiles:
    """A database directory's files, each under what its name makes it.

    ``tables``, ``logs`` and ``manifests`` map file number to full name.
    ``unrecognized`` holds every name the engine did not produce (editor
    droppings, a user's ``notes.log``, anything in a subdirectory): every
    tool skips them and none deletes them.
    """

    tables: dict[int, str] = field(default_factory=dict)
    logs: dict[int, str] = field(default_factory=dict)
    manifests: dict[int, str] = field(default_factory=dict)
    current_tmp: str | None = None
    unrecognized: list[str] = field(default_factory=list)

    def obsolete(self, live_tables: set[int], log_number: int,
                 manifest_number: int) -> "DBFiles":
        """The engine files that state ``live_tables``, ``log_number`` and
        ``manifest_number`` no longer needs: what recovery and repair
        delete, and what the audit flags as orphaned.  A WAL at or above
        the log number is still needed: the one being appended to, and that
        of a sealed (or, after a failed flush, restored) MemTable whose
        table is not installed.  A ``CURRENT.tmp`` (a crash between writing
        it and renaming it over ``CURRENT``) is never meaningful."""
        return DBFiles(
            tables={number: name for number, name in self.tables.items()
                    if number not in live_tables},
            logs={number: name for number, name in self.logs.items()
                  if number < log_number},
            manifests={number: name for number, name in self.manifests.items()
                       if number != manifest_number},
            current_tmp=self.current_tmp)

    def names(self) -> list[str]:
        """Every engine file named here, tables first, manifests last."""
        tmp = [] if self.current_tmp is None else [self.current_tmp]
        return [*self.tables.values(), *self.logs.values(), *tmp,
                *self.manifests.values()]


def list_db_files(vfs: VFS, db_name: str) -> DBFiles:
    """Classify the files of ``db_name`` by name; the one place that does."""
    files = DBFiles()
    prefix = db_name + "/"
    for name in vfs.list_dir(prefix):
        base = name[len(prefix):]
        match = _ENGINE_FILE.fullmatch(base)
        if match is None:
            if base == "CURRENT.tmp":
                files.current_tmp = name
            elif base != "CURRENT":
                files.unrecognized.append(name)
        elif match[3] is not None:
            files.manifests[int(match[3])] = name
        elif match[2] == "ldb":
            files.tables[int(match[1])] = name
        else:
            files.logs[int(match[1])] = name
    return files


class ManifestWriter:
    """Appends version edits to the active manifest."""

    def __init__(self, vfs: VFS, db_name: str, number: int) -> None:
        self.vfs = vfs
        self.db_name = db_name
        self.number = number
        self._file = vfs.create(manifest_file_name(db_name, number))
        self._log = LogWriter(self._file)
        #: A failed :meth:`log_edit` may have left its record in the file
        #: without the sync: whether a reopen replays it is unknown.
        self.in_doubt = False

    def log_edit(self, edit: VersionEdit) -> None:
        try:
            self._log.add_record(edit.encode())
            # Version edits record which files exist; losing one to a crash
            # would orphan live tables (and recovery would then delete them
            # as garbage).  LevelDB syncs the manifest on every LogAndApply;
            # so do we — edits are rare (per flush/compaction) and tiny.
            self._file.sync()
        except OSError:
            self.in_doubt = True
            raise

    @property
    def size(self) -> int:
        return self._file.size

    def install_as_current(self) -> None:
        """Atomically point ``CURRENT`` at this manifest.

        The new content is written (and synced) to ``CURRENT.tmp`` first,
        then renamed over ``CURRENT``, so a crash leaves either the old or
        the new pointer — never a torn one.  A crash between the two steps
        strands ``CURRENT.tmp``; recovery deletes it
        (:meth:`repro.lsm.db.DB._delete_obsolete_files`).
        """
        tmp = current_tmp_file_name(self.db_name)
        self.vfs.write_whole(
            tmp, f"MANIFEST-{self.number:06d}\n".encode("utf-8"),
            Category.MANIFEST)
        self.vfs.rename(tmp, current_file_name(self.db_name))

    def close(self) -> None:
        self._log.close()


def read_current_manifest_number(vfs: VFS, db_name: str) -> int | None:
    """Manifest number named by ``CURRENT``, or ``None`` for a fresh DB."""
    name = current_file_name(db_name)
    if not vfs.exists(name):
        return None
    content = vfs.read_whole(name, Category.MANIFEST).decode("utf-8").strip()
    if not content.startswith("MANIFEST-"):
        raise CorruptionError(f"malformed CURRENT file: {content!r}")
    try:
        return int(content[len("MANIFEST-"):])
    except ValueError as exc:
        raise CorruptionError(f"malformed CURRENT file: {content!r}") from exc


def recover_version_set(vfs: VFS, db_name: str,
                        version_set: VersionSet) -> bool:
    """Replay the current manifest into ``version_set``.

    Returns True if a manifest existed (the DB is being reopened), False
    for a fresh database.
    """
    number = read_current_manifest_number(vfs, db_name)
    if number is None:
        return False
    reader = LogReader(vfs.open_random(manifest_file_name(db_name, number)))
    for payload in reader:
        version_set.apply(VersionEdit.decode(payload))
    return True
