"""Leveled compaction, LevelDB-style.

* A MemTable flush writes one SSTable into level 0; level-0 files may
  overlap each other.
* When level 0 accumulates ``l0_compaction_trigger`` files, or level *i*'s
  total size exceeds its budget, the level is merged into level *i+1*.
* Within a level, the file to compact is chosen **round-robin by key range**
  (the ``compact_pointer`` of LevelDB), which is exactly the behaviour the
  paper leans on when discussing the Composite index's loss of time order
  ("a compaction in a level takes place as round-robin basis").
* A picked compaction whose one input file overlaps nothing in the next
  level is a *trivial move*: a manifest edit relabels the table, nothing is
  merged (:meth:`Compaction.is_trivial_move`).

During a merge, obsolete versions are dropped, tombstones are elided once
they reach the bottom-most level that could contain their key, and — the
hook the Lazy index relies on — runs of ``KIND_MERGE`` operands for the
same key are folded through the configured merge operator ("the old
postings list ... is merged later, during the periodic compaction phase").

Live snapshots suppress folding and dropping conservatively: correctness
first, space later.

"Turn these input tables into output tables" is one module-level function,
:func:`run_compaction_job`.  :meth:`Compactor.run` calls it in the thread
the DB's scheduler picked (the writer's, or the maintenance thread's),
reading inputs through the table cache.
"""

from __future__ import annotations

import heapq
import logging
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat

from repro.lsm.compression import compressor_for
from repro.lsm.errors import (
    CorruptionError,
    InvalidArgumentError,
    SimulatedCrashError,
)
from repro.lsm.keys import (
    KIND_MERGE,
    KIND_VALUE,
    MAX_SEQUENCE,
    pack_internal_key,
)
from repro.lsm.manifest import table_file_name
from repro.lsm.sstable import TableBuilder
from repro.lsm.vfs import Category
from repro.lsm.version import FileMetaData, Version, VersionEdit, VersionSet

logger = logging.getLogger(__name__)

_TRAILER = struct.Struct(">Q")


@dataclass
class Compaction:
    """A unit of compaction work: inputs at two adjacent levels.

    ``manual`` marks one that :meth:`~repro.lsm.db.DB.compact_range` built:
    its caller wants the entries rewritten (operands folded, tombstones
    elided), so it is never a trivial move.
    """

    level: int
    inputs0: list[FileMetaData]
    inputs1: list[FileMetaData]
    manual: bool = False

    @property
    def output_level(self) -> int:
        return self.level + 1

    def is_trivial_move(self) -> bool:
        """One input file and nothing it overlaps in the output level: the
        merge would write the same entries back, so the file is relabelled.

        LevelDB's third clause — grandparent overlap at most ten file sizes,
        so the moved file does not make a later compaction expensive — is
        left out: a time-ordered table overlaps nothing deeper either (none
        of the 131 moves of the ``bench/`` loads had any grandparent
        overlap), and a file with a wide key range is rewritten when its own
        level next picks it.
        """
        return (not self.manual and len(self.inputs0) == 1
                and not self.inputs1)

    def input_files(self) -> list[tuple[int, FileMetaData]]:
        return ([(self.level, meta) for meta in self.inputs0]
                + [(self.output_level, meta) for meta in self.inputs1])

    def total_input_bytes(self) -> int:
        return sum(meta.file_size for _lvl, meta in self.input_files())


def pick_compaction(versions: VersionSet) -> Compaction | None:
    """Choose what to compact next, or ``None`` if nothing is due."""
    version = versions.current
    score, level = version.compaction_score()
    if score < 1.0:
        return None
    if level >= versions.options.max_levels - 1:
        return None

    if versions.options.compaction_style == "full_level":
        # AsterixDB-style: the whole level merges into the whole next level.
        inputs0 = list(version.levels[level])
        if not inputs0:
            return None
        inputs1 = list(version.levels[level + 1])
        return Compaction(level, inputs0, inputs1)

    if level == 0:
        inputs0 = list(version.levels[0])
        if not inputs0:
            return None
        lo = min(meta.smallest_user_key for meta in inputs0)
        hi = max(meta.largest_user_key for meta in inputs0)
        inputs0 = version.overlapping_files(0, lo, hi)
    else:
        inputs0 = [_round_robin_file(versions, level)]

    lo = min(meta.smallest_user_key for meta in inputs0)
    hi = max(meta.largest_user_key for meta in inputs0)
    inputs1 = versions.current.overlapping_files(level + 1, lo, hi)
    return Compaction(level, inputs0, inputs1)


def _round_robin_file(versions: VersionSet, level: int) -> FileMetaData:
    """LevelDB's compact-pointer choice: first file past the last compacted key."""
    files = versions.current.levels[level]
    pointer = versions.compact_pointers[level]
    if pointer is not None:
        for meta in files:
            if meta.largest > pointer:
                return meta
    return files[0]


@dataclass
class CompactionStats:
    """Aggregate counters, surfaced via :attr:`repro.lsm.db.DB.stats`."""

    flush_count: int = 0
    compaction_count: int = 0
    bytes_flushed: int = 0
    bytes_compacted_in: int = 0
    bytes_compacted_out: int = 0
    entries_dropped: int = 0
    merges_folded: int = 0
    compactions_by_level: dict[int, int] = field(default_factory=dict)
    # Trivial moves are counted apart: every counter above keeps meaning
    # "merged", so write amplification can be read off the byte counters.
    trivial_moves: int = 0
    bytes_moved: int = 0


class Compactor:
    """Executes flushes and compactions for one DB instance.

    The collaborator protocol (rather than importing ``DB``) keeps this
    module independently testable: it needs a VFS, options, the version
    set, a table cache, a way to log version edits, the oldest live
    snapshot sequence number, and the two ways a table file leaves the
    directory:

    ``retire_files(file_numbers)``
        disposes of compaction *inputs* once the edit removing them is
        applied (the DB defers deletion while a pinned version reads them).
    ``discard_outputs(file_numbers)``
        deletes those of ``file_numbers`` the current version does not
        name: *outputs* that were allocated a number but never became live
        (a failed flush or merge must not leave orphans).
    """

    def __init__(self, vfs, db_name: str, options, versions: VersionSet,
                 table_cache, log_and_apply, oldest_snapshot_seq,
                 retire_files, discard_outputs) -> None:
        self.vfs = vfs
        self.db_name = db_name
        self.options = options
        self.versions = versions
        self.table_cache = table_cache
        self._log_and_apply = log_and_apply
        self._oldest_snapshot_seq = oldest_snapshot_seq
        self._retire_files = retire_files
        self._discard_outputs = discard_outputs
        self.stats = CompactionStats()

    def _step(self, label: str) -> None:
        hook = self.options.step_hook
        if hook is not None:
            hook(label)

    def _discard_uninstalled(self, file_numbers: list[int],
                             error: BaseException) -> None:
        """Delete the outputs of a flush or merge that ``error`` stopped.

        A simulated crash took the filesystem down with it — there is no
        cleanup I/O to attempt, and recovery collects non-live tables.  A
        cleanup that itself fails must not mask ``error``: the caller's
        policy (a full disk parks the DB) keys on it.
        """
        if isinstance(error, SimulatedCrashError):
            return
        try:
            self._discard_outputs(file_numbers)
        except OSError as exc:
            logger.warning("could not delete uninstalled outputs %s: %s",
                           file_numbers, exc)

    # -- flush ----------------------------------------------------------------

    def flush_memtable(self, memtable,
                       log_number: int | None = None) -> FileMetaData | None:
        """Write the MemTable's contents as one new level-0 SSTable.

        ``log_number``, when given, rides along in the *same* version edit
        that makes the table live.  The pairing is a crash-consistency
        invariant: if the table (holding the WAL's contents) commits, the
        WAL is simultaneously retired — recording them in separate edits
        would let a crash land between the two, and recovery would then
        replay a WAL whose writes are already in the table (merge operands
        would fold twice).
        """
        if memtable.is_empty():
            return None
        self._step("flush:build")
        file_number = self.versions.new_file_number()
        out = None
        try:
            out = self.vfs.create(table_file_name(self.db_name, file_number))
            builder = TableBuilder(self.options, out,
                                   compressor_for(self.options.compression),
                                   Category.FLUSH)
            # The column slots a MemTable kept at insert ride along,
            # as a compaction carries them over from its inputs.
            for entry in memtable:
                builder.add_sorted(
                    (entry.user_key, -((entry.seq << 8) | entry.kind)),
                    pack_internal_key(entry.user_key, entry.seq, entry.kind),
                    entry.value, entry.slots)
            meta = finish_table(builder, out, file_number)
            self._step("flush:install")
            edit = VersionEdit(log_number=log_number)
            edit.add_file(0, meta)
            self._log_and_apply(edit)
        except BaseException as exc:
            _abandon(out)
            self._discard_uninstalled([file_number], exc)
            raise
        self.stats.flush_count += 1
        self.stats.bytes_flushed += meta.file_size
        return meta

    # -- compaction -------------------------------------------------------------

    def run(self, compaction: Compaction) -> list[FileMetaData]:
        """Merge the input files into new files at the output level.

        Build the job, run the merge body, install what it wrote.  Every
        output file number is recorded in ``allocated``, so whatever goes
        wrong before the edit is applied, exactly the files this call
        created are deleted and the compaction simply did not happen — its
        inputs stay live.  On success every allocated file is an output:
        the writer opens a file only to add an entry to it, and finishes
        the last one when the merge ends.

        A trivial move (:meth:`Compaction.is_trivial_move`) is decided here,
        before there is a job.
        """
        if compaction.is_trivial_move():
            return [self._move(compaction)]
        job = build_compaction_job(compaction, self.versions.current,
                                   self._oldest_snapshot_seq())
        allocated: list[int] = []

        def open_output():
            allocated.append(self.versions.new_file_number())
            name = table_file_name(self.db_name, allocated[-1])
            return allocated[-1], self.vfs.create(name)

        self._step("compact:merge")
        try:
            # table_cache.get is looked up per call: bench/ wraps it on the
            # instance after the DB is built.
            result = run_compaction_job(
                job, self.options,
                lambda file_number: self.table_cache.get(file_number),
                open_output, on_output=lambda: self._step("compact:output"))
            outputs: list[FileMetaData] = result["outputs"]
            edit = VersionEdit()
            for level, meta in compaction.input_files():
                edit.delete_file(level, meta.file_number)
            for meta in outputs:
                edit.add_file(compaction.output_level, meta)
            if compaction.inputs0:
                pointer = max(meta.largest for meta in compaction.inputs0)
                edit.compact_pointers.append((compaction.level, pointer))
            self._step("compact:install")
            self._log_and_apply(edit)
        except BaseException as exc:
            self._discard_uninstalled(allocated, exc)
            raise

        self._retire_files([meta.file_number
                            for _level, meta in compaction.input_files()])

        self.stats.entries_dropped += result["entries_dropped"]
        self.stats.merges_folded += result["merges_folded"]
        self.stats.compaction_count += 1
        level_key = compaction.level
        self.stats.compactions_by_level[level_key] = (
            self.stats.compactions_by_level.get(level_key, 0) + 1)
        self.stats.bytes_compacted_in += compaction.total_input_bytes()
        self.stats.bytes_compacted_out += sum(m.file_size for m in outputs)
        return outputs

    def _move(self, compaction: Compaction) -> FileMetaData:
        """Relabel the one input file one level down: a manifest edit.

        No table byte is read or written and the file keeps its number, so
        there is nothing to allocate, discard or retire — readers pinned to
        the version before the edit find the same file at its old level.  A
        failed manifest write leaves the tree as it was.
        """
        meta = compaction.inputs0[0]
        edit = VersionEdit()
        edit.delete_file(compaction.level, meta.file_number)
        edit.add_file(compaction.output_level, meta)
        edit.compact_pointers.append((compaction.level, meta.largest))
        self._step("compact:move")
        self._log_and_apply(edit)
        self.stats.trivial_moves += 1
        self.stats.bytes_moved += meta.file_size
        return meta


def build_compaction_job(compaction: Compaction, base_version: Version,
                         oldest_snapshot: int) -> dict:
    """What :func:`run_compaction_job` merges from.

    Everything the merge body needs that is not already on disk: the input
    files' metadata, the snapshot horizon, and — so the tombstone-elision
    predicate needs no :class:`Version` — the user-key bounds of every file
    in levels deeper than the output.
    """
    return {
        "level": compaction.level,
        "inputs": compaction.input_files(),
        "deeper_bounds": [
            [(meta.smallest_user_key, meta.largest_user_key)
             for meta in files]
            for files in base_version.levels[compaction.output_level + 1:]
            if files],
        "oldest_snapshot": oldest_snapshot,
    }


def bounds_base_predicate(deeper_bounds):
    """``is_base(user_key)``: could no level deeper than the output hold it?

    Levels >= 1 are sorted and disjoint, so containment is one bisect per
    level over the job's ``(smallest, largest)`` user-key bounds.
    """
    levels = [(bounds, [hi for _lo, hi in bounds]) for bounds in deeper_bounds]

    def is_base(user_key: bytes) -> bool:
        for bounds, largests in levels:
            index = bisect_left(largests, user_key)
            if index < len(bounds) and bounds[index][0] <= user_key:
                return False
        return True

    return is_base


def run_compaction_job(job: dict, options, open_table, open_output,
                       on_output=None) -> dict:
    """Turn the job's input tables into output tables: the one merge body.

    ``open_table(file_number)`` yields an opened
    :class:`~repro.lsm.sstable.SSTable`; ``open_output()`` supplies each
    output file (see :class:`CompactionOutputWriter`).  On failure the
    in-flight output handle is closed so the caller can delete every file
    it allocated.
    """
    stats = CompactionStats()
    outputs: list[FileMetaData] = []
    writer = CompactionOutputWriter(options, open_output, outputs, on_output)
    try:
        _merge_entries(options, _input_streams(job["inputs"], open_table,
                                              options.indexed_attributes),
                      job["oldest_snapshot"],
                      bounds_base_predicate(job["deeper_bounds"]),
                      writer, stats)
    except BaseException:
        writer.abort()
        raise
    return {"outputs": outputs,
            "entries_dropped": stats.entries_dropped,
            "merges_folded": stats.merges_folded}


def _input_streams(inputs, open_table, attributes) -> list:
    """One entry stream per level-0 input and one per deeper level, in the
    job's order (newest first): a deeper level's tables are sorted and
    disjoint, so they concatenate (as in the scan path)."""
    runs: list[tuple[int, list[int]]] = []
    for level, meta in inputs:
        if level == 0 or not runs or runs[-1][0] != level:
            runs.append((level, []))
        runs[-1][1].append(meta.file_number)
    return [chain.from_iterable(
                block
                for number in numbers
                for block in _table_blocks(open_table(number), attributes))
            for _level, numbers in runs]


def _table_blocks(table, attributes):
    """A table's data blocks, read as compaction I/O that does not fill
    the block cache (LevelDB's ``fill_cache = false``: the inputs are
    about to be deleted), each as an iterator of its entries'
    ``(sort_key, internal_key, value, slots)``.

    ``slots`` are the entry's attribute-column slots (one per attribute
    of ``attributes``) from the table's column, or ``None`` where the
    table has no column for one of them (written before columns existed,
    or its column block dropped as corrupt): the builder then derives
    them.  A column that does not describe its block entry for entry is
    corrupt.  The keys, values and sort keys are decoded per block and
    not kept on it (:meth:`~repro.lsm.block.Block.arrays`): an input block
    a read left in the block cache holds nothing more after the merge.
    """
    columns = [table.secondary_columns.get(attr) for attr in attributes]
    carried = bool(columns) and None not in columns
    no_slots = repeat(None)
    unpack_trailer = _TRAILER.unpack_from
    for block_index in range(table.num_data_blocks):
        keys, values = table.read_data_block(
            block_index, Category.COMPACTION, fill_cache=False).arrays()
        try:
            sort_keys = [(key[:-8], -unpack_trailer(key, len(key) - 8)[0])
                         for key in keys]
        except struct.error as exc:
            raise CorruptionError(
                f"table {table.file_number} block {block_index}: entry key "
                "shorter than trailer") from exc
        slots = no_slots
        if carried:
            block_columns = [column[block_index] for column in columns]
            for column in block_columns:
                if len(column) != len(keys):
                    raise CorruptionError(
                        f"table {table.file_number} block {block_index}: "
                        f"attribute column of {len(column)} entries for a "
                        f"block of {len(keys)}")
            slots = zip(*block_columns)
        yield zip(sort_keys, keys, values, slots)


def _merge_entries(options, streams, oldest_snapshot: int, is_base_of,
                  writer: "CompactionOutputWriter",
                  stats: CompactionStats) -> None:
    """The whole merge: k-way heap merge, per-key policy and output
    cutting, in one loop over ``(sort_key, internal_key, value, slots)``
    entries (streams listed newest first, which breaks ties).

    A user key's versions arrive newest first.  The first version that is
    not a merge operand and is visible to every snapshot (``seq <=
    oldest_snapshot``) settles the key: every older version is shadowed
    and dropped.  ``is_base_of(user_key)`` answers "could no level deeper
    than the output hold this key?".

    * A key its newest version settles — the common case — is decided
      here: a VALUE is written as read, column slots and all; so is a
      DELETE, unless no snapshot is live and no deeper level could hold
      the key (the tombstone is elided).
    * Otherwise the versions down to the settling one — a run of merge
      operands, or versions a live snapshot may still read — are held and
      go to :func:`_settle_run`.
    """
    heap = []
    for index, stream in enumerate(streams):
        advance = iter(stream).__next__
        try:
            entry = advance()
        except StopIteration:
            continue
        heap.append((entry[0], index, entry, advance))
    heapq.heapify(heap)
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    add = writer.add
    snapshots_live = oldest_snapshot != MAX_SEQUENCE
    current_key: bytes | None = None
    run: list | None = None  # held versions of current_key, newest first
    dropped = 0
    while heap:
        _sort_key, index, entry, advance = heap[0]
        try:
            following = advance()
        except StopIteration:
            heappop(heap)
        else:
            heapreplace(heap, (following[0], index, following, advance))
        sort_key = entry[0]
        user_key = sort_key[0]
        tag = -sort_key[1]  # (seq << 8) | kind
        settles = tag & 0xFF != KIND_MERGE and tag >> 8 <= oldest_snapshot
        if user_key == current_key:
            if run is None:
                dropped += 1  # shadowed by the version that settled the key
            else:
                run.append(entry)
                if settles:
                    _settle_run(options, run, True, snapshots_live,
                                is_base_of, add, stats)
                    run = None
            continue
        if run:
            _settle_run(options, run, False, snapshots_live, is_base_of,
                        add, stats)
        current_key = user_key
        run = None
        if not settles:
            run = [entry]
        elif (tag & 0xFF == KIND_VALUE or snapshots_live
              or not is_base_of(user_key)):
            add(entry)
        else:
            dropped += 1  # a tombstone with nothing left to shadow
    if run:
        _settle_run(options, run, False, snapshots_live, is_base_of, add,
                    stats)
    writer.finish()
    stats.entries_dropped += dropped


def _settle_run(options, run: list, settled: bool, snapshots_live: bool,
                is_base_of, add, stats: CompactionStats) -> None:
    """Write the held versions of one key (newest first; ``settled``: the
    last is the version that settled the key).

    With a live snapshot every held version is kept as it is: no folding,
    no elision — correctness first, space later.  Otherwise the run is
    merge operands, then possibly their base, and folds into one entry:
    a plain value when the base was in the inputs or no deeper level could
    hold one (a full merge), else a single combined operand (a partial
    merge, which needs the operator to be associative, as posting-list
    union is).
    """
    if snapshots_live:
        for entry in run:
            add(entry)
        return
    operator = options.merge_operator
    if operator is None:
        raise InvalidArgumentError(
            "merge entries present but no merge_operator configured")
    user_key, negated_tag = run[0][0]
    newest_seq = -negated_tag >> 8
    base = run.pop() if settled else None
    operands = [entry[2] for entry in reversed(run)]  # oldest first
    if base is not None and -base[0][1] & 0xFF == KIND_VALUE:
        operands.insert(0, base[2])
    folded = operator(user_key, operands)
    stats.merges_folded += len(run)
    kind = (KIND_VALUE if base is not None or is_base_of(user_key)
            else KIND_MERGE)
    add(((user_key, -((newest_seq << 8) | kind)),
         pack_internal_key(user_key, newest_seq, kind), folded, None))


def _abandon(out) -> None:
    """Close a half-written output without finishing it (failure path: the
    caller deletes the file)."""
    if out is not None:
        try:
            out.close()
        except (OSError, ValueError):
            pass


def finish_table(builder: TableBuilder, out, file_number: int) -> FileMetaData:
    """The tail of every table write: finish, make durable, close, describe.

    The manifest edit that follows names this table live; its bytes must
    reach stable storage first, or a crash could leave a live-but-torn file.
    """
    props = builder.finish()
    out.sync()
    out.close()
    return props.file_meta(file_number)


class CompactionOutputWriter:
    """Cuts compaction output into files of ``sstable_target_size``.

    ``open_output()`` supplies each file: it allocates a file number and
    returns ``(file_number, writable)``.
    """

    def __init__(self, options, open_output,
                 outputs: list[FileMetaData], on_output=None) -> None:
        self.options = options
        self.open_output = open_output
        self.outputs = outputs
        self.on_output = on_output
        self._builder: TableBuilder | None = None
        self._out = None
        self._file_number = 0

    def add(self, entry: tuple) -> None:
        """Write one kept ``(sort_key, internal_key, value, slots)`` entry
        (see :meth:`TableBuilder.add_sorted`)."""
        builder = self._builder
        if builder is None:
            self._file_number, self._out = self.open_output()
            builder = self._builder = TableBuilder(
                self.options, self._out,
                compressor_for(self.options.compression),
                Category.COMPACTION)
        if builder.add_sorted(*entry) >= self.options.sstable_target_size:
            self.finish()

    def finish(self) -> None:
        """Close the current output file, if one is open."""
        if self._builder is None:
            return
        self.outputs.append(
            finish_table(self._builder, self._out, self._file_number))
        self._builder = None
        self._out = None
        if self.on_output is not None:
            self.on_output()

    def abort(self) -> None:
        """Failure path: drop the in-flight output without finishing it."""
        _abandon(self._out)
        self._builder = None
        self._out = None
