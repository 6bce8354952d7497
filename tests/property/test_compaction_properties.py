"""Property tests of the compaction merge body and the table builder.

* The fused merge (:func:`repro.lsm.compaction.run_compaction_job`) writes
  byte-identical tables, and counts the same dropped entries and folded
  operands, as a naive reference defined here: the inputs' whole history
  sorted in internal-key order, each user key's versions decided by the
  documented rules, every kept entry added through
  :meth:`TableBuilder.add` (which derives the attribute column by parsing,
  where the merge carries it over from its inputs).
* An input block whose column does not hold one slot per entry is corrupt.
* :meth:`BloomFilterBuilder.finish` sets exactly the bits of the probe
  loop it replaced.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilterBuilder, optimal_num_probes
from repro.lsm.compaction import run_compaction_job
from repro.lsm.compression import NoCompression
from repro.lsm.errors import CorruptionError
from repro.lsm.keys import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_VALUE,
    MAX_SEQUENCE,
    pack_internal_key,
)
from repro.lsm.manifest import table_file_name
from repro.lsm.options import Options
from repro.lsm.sstable import SSTable, TableBuilder
from repro.lsm.vfs import MemoryVFS

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
KEYS = 40


def _concat(_key: bytes, operands: list[bytes]) -> bytes:
    """An associative merge operator: the operands, oldest first."""
    return b"|".join(operands)


def _value(value_id: int) -> bytes:
    if value_id % 4 == 3:
        return b"not json %d" % value_id
    if value_id % 4 == 2:
        return json.dumps({"b": value_id}).encode()
    return json.dumps({"a": value_id % 3, "pad": "x" * value_id}).encode()


@st.composite
def _jobs(draw):
    """Input tables (newest first: level 0, then one disjoint level 1),
    the snapshot horizon, deeper levels' key bounds and options."""
    level0 = draw(st.integers(0, 3))
    level1 = draw(st.integers(0 if level0 else 1, 3))
    seq = 1
    runs = []
    for position in range(level1):  # oldest first
        share = KEYS // level1
        lo = position * share
        runs.append((1, draw(st.lists(st.tuples(
            st.integers(lo, lo + share - 1),
            st.sampled_from([KIND_VALUE, KIND_VALUE, KIND_DELETE,
                             KIND_MERGE]),
            st.integers(0, 60)), min_size=1, max_size=25))))
    for _table in range(level0):
        runs.append((0, draw(st.lists(st.tuples(
            st.integers(0, KEYS - 1),
            st.sampled_from([KIND_VALUE, KIND_DELETE, KIND_MERGE]),
            st.integers(0, 60)), min_size=1, max_size=25))))
    tables = []
    for level, drawn in runs:
        entries = []
        for key_id, kind, value_id in drawn:
            entries.append((b"k%03d" % key_id, seq, kind,
                            b"" if kind == KIND_DELETE else _value(value_id)))
            seq += 1
        tables.append((level, sorted(entries, key=lambda e: (e[0], -e[1]))))
    # Level 0 newest first, then level 1 in key order.
    tables = (list(reversed(tables[level1:]))
              + tables[:level1])
    cuts = sorted(draw(st.sets(st.integers(0, KEYS - 1), max_size=6)))
    deeper = [[(b"k%03d" % lo, b"k%03d" % hi)
               for lo, hi in zip(cuts[::2], cuts[1::2])]]
    snapshot = draw(st.one_of(st.just(MAX_SEQUENCE),
                              st.integers(0, seq)))
    embedded = draw(st.booleans())
    options = Options(
        block_size=128, sstable_target_size=draw(st.sampled_from([128, 700])),
        compression="none", merge_operator=_concat,
        indexed_attributes=("a",) if embedded else ())
    dropped = draw(st.sets(st.integers(0, len(tables) - 1))) \
        if embedded else set()
    return tables, snapshot, [level for level in deeper if level], \
        options, dropped


def _write(vfs, number: int, options: Options, entries):
    """Write table ``number``; returns its manifest record."""
    out = vfs.create(table_file_name("db", number))
    builder = TableBuilder(options, out, NoCompression())
    for user_key, seq, kind, value in entries:
        builder.add(pack_internal_key(user_key, seq, kind), value)
    props = builder.finish()
    out.close()
    return props.file_meta(number)


def _file(vfs, number: int) -> bytes:
    handle = vfs.open_random(table_file_name("db", number))
    return handle.read_at(0, handle.size)


def _fused(tables, snapshot, deeper, options, dropped):
    """``(output bytes, entries_dropped, merges_folded)`` of the merge."""
    vfs = MemoryVFS()
    inputs = []
    for number, (level, entries) in enumerate(tables, start=1):
        inputs.append((level, _write(vfs, number, options, entries)))

    def open_table(number):
        table = SSTable.open(vfs, "db", options, number)
        if number - 1 in dropped:  # as a quarantined column block leaves it
            del table.secondary_columns["a"]
        return table

    numbers = iter(range(100, 1000))

    def open_output():
        number = next(numbers)
        return number, vfs.create(table_file_name("db", number))

    job = {"level": tables[0][0], "inputs": inputs,
           "deeper_bounds": deeper, "oldest_snapshot": snapshot}
    result = run_compaction_job(job, options, open_table, open_output)
    return ([_file(vfs, meta.file_number) for meta in result["outputs"]],
            result["entries_dropped"], result["merges_folded"])


def _reference(tables, snapshot, deeper, options):
    """The naive merge: sorted history, per-key rules, builder cuts."""
    history = sorted((entry for _level, entries in tables
                      for entry in entries),
                     key=lambda e: (e[0], -e[1], -e[2]))

    def is_base(key):
        return not any(lo <= key <= hi for level in deeper
                       for lo, hi in level)

    kept_all, dropped, folded = [], 0, 0
    keys = sorted({entry[0] for entry in history})
    for key in keys:
        versions = [entry for entry in history if entry[0] == key]
        kept = []
        for entry in versions:
            kept.append(entry)
            if entry[2] != KIND_MERGE and entry[1] <= snapshot:
                break
        dropped += len(versions) - len(kept)
        if snapshot == MAX_SEQUENCE:
            operands = [e[3] for e in kept if e[2] == KIND_MERGE]
            if operands:
                base = kept[-1] if kept[-1][2] != KIND_MERGE else None
                chain = list(reversed(operands))
                if base is not None and base[2] == KIND_VALUE:
                    chain.insert(0, base[3])
                folded += len(operands)
                kind = KIND_VALUE if base is not None or is_base(key) \
                    else KIND_MERGE
                kept = [(key, kept[0][1], kind, _concat(key, chain))]
            elif kept[0][2] == KIND_DELETE and is_base(key):
                dropped += 1
                kept = []
        kept_all.extend(kept)

    vfs, outputs, builder, out = MemoryVFS(), [], None, None
    for user_key, seq, kind, value in kept_all:
        if builder is None:
            number = 100 + len(outputs)
            out = vfs.create(table_file_name("db", number))
            builder = TableBuilder(options, out, NoCompression())
        builder.add(pack_internal_key(user_key, seq, kind), value)
        if builder.estimated_file_size >= options.sstable_target_size:
            builder.finish()
            out.close()
            outputs.append(_file(vfs, number))
            builder = None
    if builder is not None:
        builder.finish()
        out.close()
        outputs.append(_file(vfs, number))
    return outputs, dropped, folded


@given(_jobs())
@_SETTINGS
def test_fused_merge_equals_the_reference(job):
    tables, snapshot, deeper, options, dropped = job
    assert _fused(tables, snapshot, deeper, options, dropped) == \
        _reference(tables, snapshot, deeper, options)


def test_column_slot_count_mismatch_is_corruption():
    options = Options(block_size=128, compression="none",
                      indexed_attributes=("a",))
    vfs = MemoryVFS()
    meta = _write(vfs, 1, options, [(b"k%03d" % i, i + 1, KIND_VALUE,
                                     _value(i)) for i in range(20)])

    def open_table(number):
        table = SSTable.open(vfs, "db", options, number)
        table.secondary_columns["a"][1].pop()  # one slot short
        return table

    job = {"level": 0,
           "inputs": [(0, meta)],
           "deeper_bounds": [], "oldest_snapshot": MAX_SEQUENCE}
    with pytest.raises(CorruptionError, match="attribute column"):
        run_compaction_job(
            job, options, open_table,
            lambda: (9, vfs.create(table_file_name("db", 9))))


def _reference_bloom(hashes, bits_per_key) -> bytes:
    """The probe loop: ``num_probes`` bits per key, one at a time."""
    nbits = max(64, int(len(hashes) * bits_per_key))
    nbytes = (nbits + 7) // 8
    nbits = nbytes * 8
    bits = bytearray(nbytes)
    num_probes = optimal_num_probes(bits_per_key)
    for h1, h2 in hashes:
        h = h1
        for _ in range(num_probes):
            pos = h % nbits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + h2) & 0xFFFFFFFFFFFFFFFF
    bits.append(num_probes)
    return bytes(bits)


@pytest.mark.parametrize("bits_per_key", [1, 3.5, 10, 100])
@given(keys=st.lists(st.binary(max_size=12), min_size=1, max_size=120),
       extremes=st.lists(st.sampled_from([0, 1, 2**64 - 1]), max_size=4))
@settings(max_examples=40, deadline=None)
def test_bloom_finish_equals_the_probe_loop(bits_per_key, keys, extremes):
    builder = BloomFilterBuilder(bits_per_key)
    for key in keys:
        builder.add(key)
    # Hash words at the edges of the 64-bit range, a zero step included.
    builder._hashes += [(h, extremes[-1 - i]) for i, h in
                        enumerate(extremes)]
    assert builder.finish() == _reference_bloom(builder._hashes,
                                                bits_per_key)
