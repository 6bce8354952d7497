"""Write-ahead log: record framing, fragmentation, torn-write recovery."""

import pytest

from repro.lsm.db import DB
from repro.lsm.errors import CorruptionError
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.manifest import list_db_files
from repro.lsm.options import Options
from repro.lsm.vfs import MemoryVFS
from repro.lsm.wal import BLOCK_SIZE, HEADER_SIZE, LogReader, LogWriter


def _roundtrip(records, vfs=None):
    vfs = vfs or MemoryVFS()
    writer = LogWriter(vfs.create("wal"))
    for record in records:
        writer.add_record(record)
    writer.close()
    return list(LogReader(vfs.open_random("wal"))), vfs


def _salvage(vfs):
    """Read ``wal`` in salvage mode: ``(records, problems reported)``."""
    problems = []
    return list(LogReader(vfs.open_random("wal"), problems.append)), problems


def read_torn(vfs):
    """Read a log whose tail is torn: both modes agree and stay silent."""
    strict = list(LogReader(vfs.open_random("wal")))
    salvaged, problems = _salvage(vfs)
    assert problems == []
    assert salvaged == strict
    return strict


class TestRoundtrip:
    def test_small_records(self):
        records = [b"one", b"two", b"three"]
        got, _vfs = _roundtrip(records)
        assert got == records

    def test_empty_record(self):
        got, _vfs = _roundtrip([b""])
        assert got == [b""]

    def test_record_spanning_blocks(self):
        big = bytes(range(256)) * 600  # ~150 KB, several blocks
        got, _vfs = _roundtrip([big])
        assert got == [big]

    def test_record_exactly_filling_block(self):
        payload = b"x" * (BLOCK_SIZE - HEADER_SIZE)
        got, _vfs = _roundtrip([payload, b"next"])
        assert got == [payload, b"next"]

    def test_header_never_split(self):
        # Leave less than a header's room at a block tail.
        first = b"a" * (BLOCK_SIZE - HEADER_SIZE - 3)
        got, _vfs = _roundtrip([first, b"tail"])
        assert got == [first, b"tail"]

    def test_many_records(self):
        records = [f"record-{i}".encode() * (i % 7 + 1) for i in range(500)]
        got, _vfs = _roundtrip(records)
        assert got == records


class TestRecovery:
    def test_torn_tail_is_silently_dropped(self):
        _got, vfs = _roundtrip([b"complete", b"doomed" * 100])
        data = vfs._files["wal"]
        del data[len(data) - 10:]  # tear the last record
        assert read_torn(vfs) == [b"complete"]

    def test_corruption_in_middle_raises(self):
        _got, vfs = _roundtrip([b"first", b"second", b"third"])
        data = vfs._files["wal"]
        data[HEADER_SIZE + 1] ^= 0xFF  # flip a payload byte of record one
        with pytest.raises(CorruptionError):
            list(LogReader(vfs.open_random("wal")))

    def test_truncated_header_at_tail(self):
        _got, vfs = _roundtrip([b"keeper"])
        data = vfs._files["wal"]
        data.extend(b"\x01\x02\x03")  # partial header garbage
        assert read_torn(vfs) == [b"keeper"]

    def test_empty_log(self):
        vfs = MemoryVFS()
        LogWriter(vfs.create("wal")).close()
        assert list(LogReader(vfs.open_random("wal"))) == []

    def test_zero_padding_skipped(self):
        _got, vfs = _roundtrip([b"data"])
        vfs._files["wal"].extend(b"\x00" * 64)
        assert list(LogReader(vfs.open_random("wal"))) == [b"data"]


class TestBlockBoundaryEdges:
    """Fragmentation corner cases around the 32 KiB block grid."""

    def test_record_spanning_many_blocks(self):
        records = [b"a" * (3 * BLOCK_SIZE + 123), b"tail"]
        got, _vfs = _roundtrip(records)
        assert got == records

    def test_fragment_at_exact_header_leftover(self):
        # First record leaves exactly HEADER_SIZE free in the block, so
        # the next record starts with a zero-payload FIRST fragment.
        first = b"x" * (BLOCK_SIZE - 2 * HEADER_SIZE)
        second = b"spans-into-the-next-block"
        got, vfs = _roundtrip([first, second])
        assert got == [first, second]
        assert vfs.file_size("wal") > BLOCK_SIZE  # second really spilled

    def test_empty_record_at_exact_header_leftover(self):
        first = b"x" * (BLOCK_SIZE - 2 * HEADER_SIZE)
        got, vfs = _roundtrip([first, b"", b"after"])
        assert got == [first, b"", b"after"]

    def test_torn_tail_of_multi_block_record(self):
        # FIRST and MIDDLE fragments land, the crash eats the LAST one:
        # the whole record must vanish, the earlier one must survive.
        keeper = b"keeper"
        doomed = b"d" * (2 * BLOCK_SIZE + 500)
        _got, vfs = _roundtrip([keeper, doomed])
        data = vfs._files["wal"]
        del data[2 * BLOCK_SIZE:]  # cut exactly at a block boundary
        assert read_torn(vfs) == [keeper]

    def test_fragment_crossing_block_boundary_raises_midfile(self):
        # Corrupt the first fragment's length so it claims to span the
        # block boundary while real data follows: structural corruption.
        big = b"p" * (2 * BLOCK_SIZE + 500)
        _got, vfs = _roundtrip([big])
        data = vfs._files["wal"]
        data[4:6] = (0xFFFF).to_bytes(2, "little")  # length field
        with pytest.raises(CorruptionError):
            list(LogReader(vfs.open_random("wal")))

    def test_fragment_crossing_block_boundary_at_tail_is_torn(self):
        # The same oversized length with nothing after it is a torn tail.
        _got, vfs = _roundtrip([b"keeper", b"short"])
        data = vfs._files["wal"]
        tail = HEADER_SIZE + len(b"keeper")
        data[tail + 4:tail + 6] = (0xFFFF).to_bytes(2, "little")
        assert read_torn(vfs) == [b"keeper"]


class TestTornTailKinds:
    """Torn header vs torn payload vs corrupt CRC at the tail."""

    def test_torn_header_stops_silently(self):
        _got, vfs = _roundtrip([b"keeper", b"doomed"])
        data = vfs._files["wal"]
        second_start = HEADER_SIZE + len(b"keeper")
        del data[second_start + 3:]  # 3 bytes of header survive
        assert read_torn(vfs) == [b"keeper"]

    def test_torn_payload_stops_silently(self):
        _got, vfs = _roundtrip([b"keeper", b"doomed-payload"])
        data = vfs._files["wal"]
        del data[len(data) - 5:]
        assert read_torn(vfs) == [b"keeper"]

    def test_corrupt_crc_of_last_record_stops_silently(self):
        _got, vfs = _roundtrip([b"keeper", b"doomed"])
        data = vfs._files["wal"]
        second_start = HEADER_SIZE + len(b"keeper")
        data[second_start] ^= 0xFF  # flip a CRC byte of the tail record
        assert read_torn(vfs) == [b"keeper"]

    def test_corrupt_crc_before_more_records_raises(self):
        _got, vfs = _roundtrip([b"first", b"second", b"third"])
        data = vfs._files["wal"]
        data[0] ^= 0xFF  # CRC byte of record one; records follow
        with pytest.raises(CorruptionError):
            list(LogReader(vfs.open_random("wal")))

    def test_sync_marks_watermark_for_crash_imaging(self):
        from repro.lsm.faults import FaultInjectingVFS

        fvfs = FaultInjectingVFS()
        writer = LogWriter(fvfs.create("wal"))
        writer.add_record(b"durable")
        writer.sync()
        writer.add_record(b"volatile")
        image = fvfs.crash_image("drop")
        assert list(LogReader(image.open_random("wal"))) == [b"durable"]


class TestSalvage:
    """The reader's report-and-continue mode, which repair uses."""

    def test_bad_fragment_costs_the_rest_of_its_block_only(self):
        vfs = MemoryVFS()
        writer = LogWriter(vfs.create("wal"))
        records, starts = [], []
        for i in range(100):  # ~3 blocks of 1 KB records
            starts.append(vfs.file_size("wal"))
            records.append(bytes([i]) * 1000)
            writer.add_record(records[-1])
        vfs._files["wal"][HEADER_SIZE + 1] ^= 0xFF  # mid-file, block 0
        with pytest.raises(CorruptionError):
            list(LogReader(vfs.open_random("wal")))
        got, problems = _salvage(vfs)
        # Every record that starts in a later block survives; the one that
        # straddles into block 1 lost its FIRST fragment with block 0.
        later = [record for record, start in zip(records, starts)
                 if start >= BLOCK_SIZE]
        assert got == later and len(later) > len(records) // 2
        assert problems == ["WAL checksum mismatch at offset 0",
                            "LAST record without FIRST"]

    @pytest.mark.parametrize("tail", [[b"after"],
                                      [b"n" * BLOCK_SIZE, b"after"]],
                             ids=["FULL", "FIRST"])
    def test_broken_chain_drops_only_its_own_record(self, tail):
        # Block 0 ends in the FIRST fragment of a record whose rest never
        # arrived; block 1 goes on with other records.
        keeper, orphan = b"keeper", b"o" * BLOCK_SIZE
        _got, vfs = _roundtrip([keeper, orphan])
        del vfs._files["wal"][BLOCK_SIZE:]
        _got, rest = _roundtrip(tail)
        vfs._files["wal"] += rest._files["wal"]
        with pytest.raises(CorruptionError, match="inside fragmented"):
            list(LogReader(vfs.open_random("wal")))
        got, problems = _salvage(vfs)
        assert got == [keeper, *tail]
        assert len(problems) == 1 and "inside fragmented" in problems[0]


@pytest.mark.parametrize("background", [False, True],
                         ids=["inline", "background"])
def test_failed_append_leaves_no_fragment_behind(background):
    """A record crossing a block boundary goes out in one append.  Were its
    FIRST fragment appended alone and the LAST append then failed, the
    next acknowledged write would land behind an unfinished record and the
    reopen would refuse the log ("FULL record inside fragmented record")."""
    vfs = FaultInjectingVFS()
    options = Options(memtable_budget=1 << 20,
                      background_compaction=background)
    db = DB.open(vfs, "db", options)
    logs = list_db_files(vfs, "db").logs
    wal = logs[max(logs)]
    acked = {}
    i = 0
    while vfs.file_size(wal) % BLOCK_SIZE < BLOCK_SIZE - 200:
        acked[b"k%05d" % i] = b"v" * 100
        db.put(b"k%05d" % i, b"v" * 100)
        i += 1
    # The next PUT straddles the boundary; fail its second append, if any.
    vfs.schedule_write_error(vfs.op_count + 2)
    refused = 0
    for j in range(4):
        try:
            db.put(b"s%d" % j, b"x" * 400)
        except OSError:
            refused += 1
        else:
            acked[b"s%d" % j] = b"x" * 400
    assert refused == 1
    db.close()
    db = DB.open(vfs, "db", options)
    assert dict(db.scan()) == acked
    db.close()
