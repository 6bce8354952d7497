"""The workload runner's measurement plumbing."""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options
from repro.workloads.generator import MIXED_RATIOS, MixedWorkload
from repro.workloads.ops import Delete, Get, Lookup, Put, RangeLookup
from repro.workloads.runner import (
    ConcurrentRunReport,
    WorkloadRunner,
    nearest_rank_index,
)


@pytest.fixture
def db():
    options = Options(block_size=1024, sstable_target_size=4 * 1024,
                      memtable_budget=4 * 1024, l1_target_size=16 * 1024)
    handle = SecondaryIndexedDB.open_memory(
        indexes={"UserID": IndexKind.LAZY}, options=options)
    yield handle
    handle.close()


class TestRunner:
    def test_all_operation_types_apply(self, db):
        ops = [
            Put("t1", {"UserID": "u1"}),
            Put("t2", {"UserID": "u2"}),
            Get("t1"),
            Lookup("UserID", "u1", 5),
            RangeLookup("UserID", "u1", "u2", 5),
            Delete("t2"),
        ]
        report = WorkloadRunner(db).run(ops)
        assert report.op_counts == {"put": 2, "get": 1, "lookup": 1,
                                    "range_lookup": 1, "delete": 1}
        assert report.total_ops == 6
        assert db.get("t1") is not None
        assert db.get("t2") is None

    def test_unknown_operation_rejected(self, db):
        with pytest.raises(TypeError):
            WorkloadRunner(db).run([object()])

    def test_mean_micros(self, db):
        report = WorkloadRunner(db).run(
            [Put(f"t{i}", {"UserID": "u1"}) for i in range(50)])
        assert report.mean_micros() > 0
        assert report.mean_micros("put") == report.mean_micros()
        assert report.mean_micros("get") == 0.0

    def test_sampling_interval(self, db):
        ops = [Put(f"t{i}", {"UserID": "u1"}) for i in range(100)]
        report = WorkloadRunner(db, sample_every=25).run(ops)
        # 4 interval samples + 1 final sample
        assert len(report.samples) == 5
        assert [s.ops_done for s in report.samples] == [25, 50, 75, 100, 100]

    def test_samples_monotone_io(self, db):
        workload = MixedWorkload(num_operations=1500,
                                 ratios=MIXED_RATIOS["write_heavy"], seed=2)
        report = WorkloadRunner(db, sample_every=300).run(
            workload.operations())
        writes = [s.primary_write_blocks for s in report.samples]
        assert writes == sorted(writes)
        assert writes[-1] > 0
        index_writes = [s.index_write_blocks for s in report.samples]
        assert index_writes == sorted(index_writes)
        assert index_writes[-1] > 0

    def test_compaction_blocks_tracked(self, db):
        workload = MixedWorkload(num_operations=2500,
                                 ratios=MIXED_RATIOS["write_heavy"], seed=3)
        report = WorkloadRunner(db, sample_every=500).run(
            workload.operations())
        assert report.samples[-1].primary_compaction_blocks > 0
        assert report.samples[-1].index_compaction_blocks > 0

    def test_per_op_io_attribution(self, db):
        """Figures 13-15 depend on reads being attributed to the op type
        that caused them."""
        ops = [Put(f"t{i:04d}", {"UserID": f"u{i % 5}"}) for i in range(600)]
        report = WorkloadRunner(db).run(ops)
        db.flush()
        report2 = WorkloadRunner(db).run(
            [Get(f"t{i:04d}") for i in range(0, 600, 10)]
            + [Lookup("UserID", "u1", 5) for _ in range(5)])
        # Reads from GETs and LOOKUPs land in their own buckets; writes
        # belong to the PUT phase only.
        assert report2.read_blocks_by_op.get("get", 0) > 0
        assert report2.read_blocks_by_op.get("lookup", 0) > 0
        assert report2.write_blocks_by_op.get("get", 0) == 0
        assert report.write_blocks_by_op.get("put", 0) > 0


class TestConcurrentRunner:
    def _streams(self, threads, per_thread):
        return [[Put(f"c{tid}-{i:04d}", {"UserID": f"u{tid}", "n": i})
                 for i in range(per_thread)]
                for tid in range(threads)]

    def test_concurrent_clients_over_background_pipeline(self):
        options = Options(block_size=1024, sstable_target_size=4 * 1024,
                          memtable_budget=4 * 1024,
                          l1_target_size=16 * 1024,
                          background_compaction=True)
        db = SecondaryIndexedDB.open_memory(indexes={}, options=options)
        try:
            report = WorkloadRunner(db).run_concurrent(self._streams(4, 100))
            assert report.errors == []
            assert report.threads == 4
            assert report.op_counts == {"put": 400}
            assert report.total_ops == 400
            assert report.ops_per_sec > 0
            assert len(report.latencies_by_op["put"]) == 400
            assert report.percentile_micros("put", 0.99) \
                >= report.percentile_micros("put", 0.50) > 0
            assert report.mean_micros("put") == report.mean_micros()
            assert report.percentile_micros("get", 0.99) == 0.0
            for tid in range(4):
                assert db.get(f"c{tid}-0099") is not None
        finally:
            db.close()

    def test_concurrent_via_thread_safe_wrapper(self):
        from repro.core.concurrent import ThreadSafeDB

        options = Options(block_size=1024, sstable_target_size=4 * 1024,
                          memtable_budget=4 * 1024,
                          l1_target_size=16 * 1024)
        db = ThreadSafeDB(SecondaryIndexedDB.open_memory(
            indexes={"UserID": IndexKind.LAZY}, options=options))
        try:
            report = WorkloadRunner(db).run_concurrent(self._streams(3, 80))
            assert report.errors == []
            assert report.op_counts == {"put": 240}
            assert db.lookup("UserID", "u1", 5)
        finally:
            db.close()

    def test_client_errors_are_reported(self):
        options = Options(background_compaction=True)
        db = SecondaryIndexedDB.open_memory(indexes={}, options=options)
        try:
            streams = [[Put("k1", {"n": 1})], [object()]]
            report = WorkloadRunner(db).run_concurrent(streams)
            assert len(report.errors) == 1
            assert "client 1" in report.errors[0]
            assert report.op_counts == {"put": 1}
        finally:
            db.close()


class TestNearestRankIndex:
    def test_p50_of_two_samples_is_the_lower(self):
        # The regression this pins: ``int(0.5 * 2)`` is 1 (the larger
        # sample); nearest rank says ceil(0.5 * 2) = rank 1, index 0.
        assert nearest_rank_index(0.5, 2) == 0
        report = ConcurrentRunReport(threads=1, wall_seconds=1.0,
                                     latencies_by_op={"get": [2e-6, 1e-6]})
        assert report.percentile_micros("get", 0.5) == pytest.approx(1.0)

    def test_textbook_ranks(self):
        assert nearest_rank_index(0.5, 1) == 0
        assert nearest_rank_index(0.5, 4) == 1
        assert nearest_rank_index(0.5, 5) == 2
        assert nearest_rank_index(0.25, 4) == 0
        assert nearest_rank_index(0.99, 100) == 98
        assert nearest_rank_index(0.99, 10) == 9
        assert nearest_rank_index(1.0, 7) == 6
        assert nearest_rank_index(0.001, 100) == 0

    def test_rejects_out_of_range_fractions(self):
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                nearest_rank_index(fraction, 10)
