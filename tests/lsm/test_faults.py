"""Fault schedule and its VFS adapter: scheduled failures, crash imaging,
enumeration."""

import json

import pytest

from repro.lsm.errors import FaultInjectedError, NotFoundError, \
    SimulatedCrashError
from repro.lsm.faults import (
    FAULTS,
    FaultInjectingVFS,
    FaultSchedule,
    count_mutations,
    crash_points,
    run_until_crash,
)
from repro.lsm.vfs import DEVICE_BLOCK_SIZE, Category, LocalVFS


def _write(vfs, name, data, sync=True):
    handle = vfs.create(name)
    handle.append(data, Category.OTHER)
    if sync:
        handle.sync()
    handle.close()


class TestOpCounting:
    def test_mutations_are_counted(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "a", b"x")          # create + append + sync
        vfs.rename("a", "b")            # rename
        vfs.delete("b")                 # delete
        assert vfs.op_count == 5

    def test_reads_are_free(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "a", b"hello")
        before = vfs.op_count
        vfs.read_whole("a")
        vfs.exists("a")
        vfs.list_dir()
        vfs.file_size("a")
        assert vfs.op_count == before

    def test_schedule_is_deterministic(self):
        def workload(vfs):
            _write(vfs, "a", b"x" * 100)
            _write(vfs, "b", b"y" * 100, sync=False)
            vfs.delete("a")

        assert count_mutations(workload) == count_mutations(workload)
        assert list(crash_points(workload)) == \
            list(range(1, count_mutations(workload) + 1))


class TestScheduledFaults:
    def test_write_error_fires_once(self):
        vfs = FaultInjectingVFS()
        vfs.schedule_write_error(2)
        handle = vfs.create("a")
        with pytest.raises(FaultInjectedError):
            handle.append(b"doomed")
        handle.append(b"ok")  # next op succeeds
        handle.sync()
        assert vfs.read_whole("a") == b"ok"

    def test_failed_append_leaves_no_bytes(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("a")
        handle.append(b"before")
        vfs.schedule_write_error(vfs.op_count + 1)
        with pytest.raises(FaultInjectedError):
            handle.append(b"doomed")
        assert vfs.file_size("a") == len(b"before")

    def test_crash_freezes_the_filesystem(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("a")
        vfs.schedule_crash(vfs.op_count + 1)
        with pytest.raises(SimulatedCrashError):
            handle.append(b"doomed")
        assert vfs.crashed
        with pytest.raises(SimulatedCrashError):
            handle.append(b"still down")
        with pytest.raises(SimulatedCrashError):
            vfs.create("b")
        with pytest.raises(SimulatedCrashError):
            vfs.list_dir()
        handle.close()  # close never raises (POSIX close promises nothing)


class TestDurability:
    def test_unsynced_appends_drop(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "synced", b"keep me")
        _write(vfs, "unsynced", b"lose me", sync=False)
        image = vfs.crash_image("drop")
        assert image.read_whole("synced") == b"keep me"
        assert image.read_whole("unsynced") == b""

    def test_sync_watermark_is_a_prefix(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("f")
        handle.append(b"durable")
        handle.sync()
        handle.append(b"-volatile")
        assert vfs.durable_size("f") == len(b"durable")
        assert vfs.crash_image("drop").read_whole("f") == b"durable"

    def test_torn_keeps_whole_device_pages(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("f")
        handle.append(b"x" * (DEVICE_BLOCK_SIZE + 100))  # never synced
        image = vfs.crash_image("torn")
        assert image.file_size("f") == DEVICE_BLOCK_SIZE
        # A sub-page unsynced tail never survives torn mode.
        assert vfs.crash_image("drop").file_size("f") == 0

    def test_torn_never_truncates_synced_bytes(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("f")
        handle.append(b"x" * 5000)
        handle.sync()
        handle.append(b"y" * 100)
        image = vfs.crash_image("torn")
        # Page-alignment (4096) lies below the synced watermark (5000):
        # the watermark wins.
        assert image.file_size("f") == 5000

    def test_keep_mode_retains_everything(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "f", b"abc", sync=False)
        assert vfs.crash_image("keep").read_whole("f") == b"abc"

    def test_metadata_ops_are_journaled(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "old", b"data")
        vfs.rename("old", "new")
        _write(vfs, "gone", b"x")
        vfs.delete("gone")
        image = vfs.crash_image("drop")
        assert image.list_dir() == ["new"]
        assert image.read_whole("new") == b"data"

    def test_reboot_in_place(self):
        vfs = FaultInjectingVFS()
        handle = vfs.create("f")
        handle.append(b"durable")
        handle.sync()
        handle.append(b"volatile")
        vfs.schedule_crash(vfs.op_count + 1)
        with pytest.raises(SimulatedCrashError):
            vfs.create("other")
        vfs.reboot("drop")
        assert not vfs.crashed
        assert vfs.read_whole("f") == b"durable"
        _write(vfs, "post", b"works again")

    def test_crash_image_is_independent(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "f", b"abc")
        image = vfs.crash_image("keep")
        image._files["f"].extend(b"mutated")
        assert vfs.read_whole("f") == b"abc"

    def test_unknown_unsynced_mode_rejected(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "f", b"abc", sync=False)
        with pytest.raises(ValueError):
            vfs.crash_image("maybe")


class TestEnumeration:
    def test_run_until_crash_replays_prefix(self):
        def workload(vfs):
            _write(vfs, "a", b"first")
            _write(vfs, "b", b"second")

        total = count_mutations(workload)
        assert total == 6
        # Crash before b's sync: a fully durable, b's bytes volatile.
        vfs = run_until_crash(workload, 6)
        assert vfs.crashed
        image = vfs.crash_image("drop")
        assert image.read_whole("a") == b"first"
        assert image.read_whole("b") == b""

    def test_crash_beyond_schedule_completes(self):
        def workload(vfs):
            _write(vfs, "a", b"x")

        vfs = run_until_crash(workload, 100)
        assert not vfs.crashed
        assert vfs.read_whole("a") == b"x"

    def test_every_crash_point_yields_a_prefix_image(self):
        def workload(vfs):
            _write(vfs, "a", b"1")
            vfs.rename("a", "b")
            _write(vfs, "c", b"3")

        for at_op in crash_points(workload):
            vfs = run_until_crash(workload, at_op)
            assert vfs.crashed
            image = vfs.crash_image("drop")
            for name in image.list_dir():
                assert name in ("a", "b", "c")


class TestErrors:
    def test_missing_file_operations(self):
        vfs = FaultInjectingVFS()
        with pytest.raises(NotFoundError):
            vfs.open_random("ghost")
        with pytest.raises(NotFoundError):
            vfs.delete("ghost")
        with pytest.raises(NotFoundError):
            vfs.rename("ghost", "other")
        with pytest.raises(NotFoundError):
            vfs.file_size("ghost")
        with pytest.raises(NotFoundError):
            vfs.durable_size("ghost")

    def test_io_is_metered(self):
        vfs = FaultInjectingVFS()
        _write(vfs, "f", b"x" * 10000)
        vfs.read_whole("f")
        assert vfs.stats.write_bytes == 10000
        assert vfs.stats.read_bytes == 10000


class TestOneSchedule:
    @pytest.mark.parametrize("base", ["memory", "local"])
    def test_same_ops_fire_over_any_base(self, base, tmp_path):
        """A LocalVFS base fires exactly what the drills' MemoryVFS base
        fires."""
        vfs = FaultInjectingVFS(LocalVFS(str(tmp_path))
                                if base == "local" else None)
        vfs.schedule_write_error(2)
        vfs.schedule_enospc(7)
        fired = []

        def attempt(op, *args):
            try:
                return op(*args)
            except FaultInjectedError as exc:
                fired.append((vfs.op_count, type(exc).__name__))

        handle = attempt(vfs.create, "a")               # 1
        attempt(handle.append, b"doomed")               # 2: EIO
        attempt(handle.append, b"ok")                   # 3
        attempt(handle.sync)                            # 4
        handle.close()
        attempt(vfs.rename, "a", "b")                   # 5
        handle = attempt(vfs.create, "c")               # 6
        attempt(handle.append, b"no room")              # 7: ENOSPC
        attempt(vfs.delete, "b")                        # 8: deletes work
        attempt(handle.sync)                            # 9: ENOSPC
        handle.close()
        assert fired == [(2, "FaultInjectedError"), (7, "OutOfSpaceError"),
                         (9, "OutOfSpaceError")]
        assert vfs.schedule.injected == [("error_write", 2),
                                         ("enospc_write", 7),
                                         ("enospc_write", 9)]
        assert [kind for kind, _name in vfs.op_log] == [
            "create", "append", "append", "sync", "rename", "create",
            "append", "delete", "sync"]
        assert vfs.list_dir() == ["c"] and vfs.file_size("c") == 0

    def test_json_round_trip_of_every_fault_kind(self):
        schedule = FaultSchedule()
        for event, kinds in FAULTS.items():
            for at, fault in enumerate(kinds, start=1):
                count = None if fault == "enospc" else 2 if event == "read" \
                    else 1
                schedule.arm(event, at * 3, fault, count)
        doc = json.loads(json.dumps(schedule.to_json()))
        assert FaultSchedule(doc).faults == schedule.faults
        assert {(event, fault) for event, _at, fault, _n in schedule.faults} \
            == {(event, fault) for event, kinds in FAULTS.items()
                for fault in kinds}

    def test_bounded_fault_outranks_open_ended(self):
        schedule = FaultSchedule([("write", 1, "enospc", None),
                                  ("write", 2, "error")])
        assert [schedule.hit("write") for _ in range(3)] == [
            "enospc", "error", "enospc"]
        assert schedule.hit("write", skip=("enospc",)) is None

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="cannot carry"):
            FaultSchedule([("write", 1, "torn")])

    def test_random_storage_faults_are_transient(self):
        first = FaultSchedule.random(7, writes=200, reads=200)
        assert first.faults == FaultSchedule.random(
            7, writes=200, reads=200).faults
        assert {(event, fault) for event, _at, fault, _n in first.faults} \
            == {("write", "error"), ("read", "eio")}
