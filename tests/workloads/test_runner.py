"""The workload runner's measurement plumbing."""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.lsm.options import Options
from repro.workloads.generator import MIXED_RATIOS, MixedWorkload
from repro.workloads.ops import Delete, Get, Lookup, Put, RangeLookup
from repro.workloads.runner import WorkloadRunner, nearest_rank_index


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


class TestNearestRankIndex:
    def test_p50_of_two_samples_is_the_lower(self):
        # The regression this pins: ``int(0.5 * 2)`` is 1 (the larger
        # sample); nearest rank says ceil(0.5 * 2) = rank 1, index 0.
        assert nearest_rank_index(0.5, 2) == 0

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
