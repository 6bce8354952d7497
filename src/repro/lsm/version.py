"""Versions: immutable snapshots of the LSM tree's file layout.

A :class:`Version` records which SSTable files live in which level.  Every
flush or compaction produces a :class:`VersionEdit` which, applied to the
current version, yields the next one — LevelDB's MVCC-for-metadata design.
The :class:`VersionSet` owns the current version plus the monotonic counters
(file numbers, sequence numbers) and the per-level compaction pointers that
implement the paper's "round-robin basis" compaction file choice.

File metadata carries, besides key bounds and sizes, the **file-level
secondary zone maps** of the paper's Section 3 ("we also store one zone map
for each SSTable file, in a global metadata file"): the Embedded index can
skip a whole SSTable without touching any of its per-block structures.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from functools import cached_property

from repro.lsm.errors import CorruptionError
from repro.lsm.keys import MAX_SEQUENCE
from repro.lsm.options import Options
from repro.lsm.zonemap import ZoneMap


@dataclass
class FileMetaData:
    """Manifest-resident description of one SSTable."""

    file_number: int
    file_size: int
    smallest: bytes  # encoded internal key
    largest: bytes
    min_seq: int = 0
    max_seq: int = 0
    num_entries: int = 0
    secondary_zonemaps: dict[str, ZoneMap] = field(default_factory=dict)

    # The key bounds are immutable once the file is live, and every GET
    # consults them (level binary search + containment check): decode the
    # user-key halves once per FileMetaData, not once per access.
    @cached_property
    def smallest_user_key(self) -> bytes:
        return self.smallest[:-8]

    @cached_property
    def largest_user_key(self) -> bytes:
        return self.largest[:-8]

    @property
    def seq_upper_bound(self) -> int:
        """No entry of the file has a larger sequence number.

        Sequence numbers start at 1, so ``max_seq == 0`` means the manifest
        did not record one (the dataclass and :meth:`from_json` default):
        such a file is unbounded and a recency-pruned read never skips it.
        """
        return self.max_seq or MAX_SEQUENCE

    def contains_user_key(self, user_key: bytes) -> bool:
        return self.smallest_user_key <= user_key <= self.largest_user_key

    def overlaps_user_range(self, lo: bytes | None, hi: bytes | None) -> bool:
        """Does ``[smallest, largest]`` intersect user-key range ``[lo, hi]``?

        ``None`` bounds are unbounded.
        """
        if lo is not None and self.largest_user_key < lo:
            return False
        if hi is not None and self.smallest_user_key > hi:
            return False
        return True

    def to_json(self) -> dict:
        return {
            "file_number": self.file_number,
            "file_size": self.file_size,
            "smallest": self.smallest.hex(),
            "largest": self.largest.hex(),
            "min_seq": self.min_seq,
            "max_seq": self.max_seq,
            "num_entries": self.num_entries,
            "secondary_zonemaps": {
                attr: zone.encode().hex()
                for attr, zone in self.secondary_zonemaps.items()
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FileMetaData":
        zonemaps = {}
        for attr, encoded_hex in doc.get("secondary_zonemaps", {}).items():
            zone, _offset = ZoneMap.decode(bytes.fromhex(encoded_hex), 0)
            zonemaps[attr] = zone
        return cls(
            file_number=doc["file_number"],
            file_size=doc["file_size"],
            smallest=bytes.fromhex(doc["smallest"]),
            largest=bytes.fromhex(doc["largest"]),
            min_seq=doc.get("min_seq", 0),
            max_seq=doc.get("max_seq", 0),
            num_entries=doc.get("num_entries", 0),
            secondary_zonemaps=zonemaps,
        )


@dataclass
class VersionEdit:
    """A delta between two versions, as logged to the manifest."""

    log_number: int | None = None
    next_file_number: int | None = None
    last_sequence: int | None = None
    compact_pointers: list[tuple[int, bytes]] = field(default_factory=list)
    deleted_files: list[tuple[int, int]] = field(default_factory=list)
    new_files: list[tuple[int, FileMetaData]] = field(default_factory=list)

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, file_number: int) -> None:
        self.deleted_files.append((level, file_number))

    def encode(self) -> bytes:
        doc = {
            "log_number": self.log_number,
            "next_file_number": self.next_file_number,
            "last_sequence": self.last_sequence,
            "compact_pointers": [
                [level, key.hex()] for level, key in self.compact_pointers],
            "deleted_files": [list(item) for item in self.deleted_files],
            "new_files": [
                [level, meta.to_json()] for level, meta in self.new_files],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "VersionEdit":
        try:
            doc = json.loads(payload)
        except ValueError as exc:
            raise CorruptionError(f"bad manifest edit: {exc}") from exc
        return cls(
            log_number=doc.get("log_number"),
            next_file_number=doc.get("next_file_number"),
            last_sequence=doc.get("last_sequence"),
            compact_pointers=[
                (level, bytes.fromhex(key))
                for level, key in doc.get("compact_pointers", [])],
            deleted_files=[
                (level, number)
                for level, number in doc.get("deleted_files", [])],
            new_files=[
                (level, FileMetaData.from_json(meta))
                for level, meta in doc.get("new_files", [])],
        )


class Version:
    """An immutable assignment of files to levels.

    Level 0 is ordered newest-file-first (files may overlap); levels >= 1
    are sorted by smallest key and are disjoint.
    """

    def __init__(self, options: Options,
                 levels: list[list[FileMetaData]] | None = None) -> None:
        self.options = options
        if levels is None:
            levels = [[] for _ in range(options.max_levels)]
        self.levels = levels

    # -- queries ------------------------------------------------------------

    def num_files(self, level: int) -> int:
        return len(self.levels[level])

    def total_files(self) -> int:
        return sum(len(files) for files in self.levels)

    def level_size(self, level: int) -> int:
        return sum(meta.file_size for meta in self.levels[level])

    def num_nonempty_levels(self) -> int:
        """Count of levels that hold at least one file (the paper's L)."""
        return sum(1 for files in self.levels if files)

    def deepest_nonempty_level(self) -> int:
        deepest = -1
        for level, files in enumerate(self.levels):
            if files:
                deepest = level
        return deepest

    def files_containing_key(self, level: int,
                             user_key: bytes) -> list[FileMetaData]:
        """Files in ``level`` whose key range covers ``user_key``.

        For level 0 this may return several files, newest first; for deeper
        levels at most one file qualifies (found by binary search).
        """
        files = self.levels[level]
        if level == 0:
            return [meta for meta in files if meta.contains_user_key(user_key)]
        lo, hi = 0, len(files)
        while lo < hi:
            mid = (lo + hi) // 2
            if files[mid].largest_user_key < user_key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(files) and files[lo].contains_user_key(user_key):
            return [files[lo]]
        return []

    def overlapping_files(self, level: int, lo: bytes | None,
                          hi: bytes | None) -> list[FileMetaData]:
        """Files in ``level`` overlapping user-key range ``[lo, hi]``.

        For level 0, overlap is transitively expanded (as in LevelDB): if a
        selected file widens the range, newly covered files are selected too,
        because level-0 files overlap each other.
        """
        files = [meta for meta in self.levels[level]
                 if meta.overlaps_user_range(lo, hi)]
        if level != 0:
            return files
        changed = True
        current_lo, current_hi = lo, hi
        while changed:
            changed = False
            for meta in files:
                if current_lo is None or meta.smallest_user_key < current_lo:
                    current_lo = meta.smallest_user_key
                    changed = True
                if current_hi is None or meta.largest_user_key > current_hi:
                    current_hi = meta.largest_user_key
                    changed = True
            if changed:
                files = [meta for meta in self.levels[0]
                         if meta.overlaps_user_range(current_lo, current_hi)]
        return files

    @cached_property
    def by_recency(self) -> list[list[tuple[int, FileMetaData]]]:
        """Per level, ``(position, meta)`` with the newest file first.

        Ordered by descending :attr:`FileMetaData.seq_upper_bound` — a
        sequence-number zone map over the level: a top-K-by-recency read
        that walks a level in this order can stop at the first file whose
        bound cannot beat its K-th result.  ``position`` is the file's
        index in ``levels[level]`` (level 0's newest-first overlap order).
        """
        return [sorted(enumerate(files),
                       key=lambda entry: -entry[1].seq_upper_bound)
                for files in self.levels]

    def all_files(self) -> list[tuple[int, FileMetaData]]:
        out = []
        for level, files in enumerate(self.levels):
            for meta in files:
                out.append((level, meta))
        return out

    def live_file_numbers(self) -> frozenset[int]:
        """File numbers this version references (cached; versions are
        immutable once installed).  Snapshot-isolated readers pin a version;
        background compaction defers deleting any table file that a pinned
        version still names."""
        cached = self.__dict__.get("_live_file_numbers")
        if cached is None:
            cached = frozenset(meta.file_number
                               for _level, meta in self.all_files())
            self.__dict__["_live_file_numbers"] = cached
        return cached

    # -- compaction scoring ---------------------------------------------------

    def level_scores(self) -> list[float]:
        """Score of every level but the last; >= 1.0 means "compact now".

        Level 0 is scored by file count against ``l0_compaction_trigger``,
        deeper levels by bytes against their size budget.
        """
        options = self.options
        return [len(self.levels[0]) / options.l0_compaction_trigger] + [
            self.level_size(level) / options.max_bytes_for_level(level)
            for level in range(1, len(self.levels) - 1)]

    def compaction_score(self) -> tuple[float, int]:
        """Best (score, level) pair; the shallowest level wins a tie."""
        scores = self.level_scores()
        level = max(range(len(scores)), key=scores.__getitem__)
        return scores[level], level


class VersionSet:
    """Mutable owner of the current :class:`Version` and global counters."""

    def __init__(self, options: Options) -> None:
        self.options = options
        self.current = Version(options)
        self.next_file_number = 1
        self.last_sequence = 0
        self.log_number = 0
        self.compact_pointers: list[bytes | None] = [None] * options.max_levels
        # Foreground writers (WAL rotation) and the background compactor
        # (table outputs) both allocate file numbers; the counter must not
        # hand the same number out twice.
        self._number_lock = threading.Lock()

    def new_file_number(self) -> int:
        with self._number_lock:
            number = self.next_file_number
            self.next_file_number += 1
            return number

    def apply(self, edit: VersionEdit) -> Version:
        """Apply ``edit`` and install the resulting version as current."""
        if edit.log_number is not None:
            self.log_number = edit.log_number
        if edit.next_file_number is not None:
            with self._number_lock:
                self.next_file_number = max(self.next_file_number,
                                            edit.next_file_number)
        if edit.last_sequence is not None:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)
        for level, key in edit.compact_pointers:
            self.compact_pointers[level] = key

        deleted = set(edit.deleted_files)
        levels: list[list[FileMetaData]] = []
        for level, files in enumerate(self.current.levels):
            kept = [meta for meta in files
                    if (level, meta.file_number) not in deleted]
            levels.append(kept)
        for level, meta in edit.new_files:
            levels[level].append(meta)
        for level in range(len(levels)):
            if level == 0:
                levels[level].sort(key=lambda m: m.file_number, reverse=True)
            else:
                levels[level].sort(key=lambda m: m.smallest)
        self.current = Version(self.options, levels)
        self._check_invariants()
        return self.current

    def _check_invariants(self) -> None:
        for level in range(1, len(self.current.levels)):
            files = self.current.levels[level]
            for i in range(1, len(files)):
                if files[i - 1].largest_user_key >= files[i].smallest_user_key:
                    raise CorruptionError(
                        f"overlapping files in level {level}: "
                        f"{files[i - 1].file_number} and {files[i].file_number}")

    def live_file_numbers(self) -> set[int]:
        return {meta.file_number
                for _level, meta in self.current.all_files()}
