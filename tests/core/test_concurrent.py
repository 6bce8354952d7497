"""Thread-safe wrapper: hammered from many threads, still consistent."""

import threading

from index_helpers import open_db

from repro.core.base import IndexKind
from repro.core.concurrent import ThreadSafeDB


def _wrapped(index_options, kind=IndexKind.LAZY):
    return ThreadSafeDB(open_db(kind, index_options))


class TestBasicDelegation:
    def test_operations_pass_through(self, index_options):
        db = _wrapped(index_options)
        put_seq = db.put("t1", {"UserID": "u1"})
        assert db.get("t1") == {"UserID": "u1"}
        assert [r.key for r in db.lookup("UserID", "u1")] == ["t1"]
        assert db.range_lookup("UserID", "u0", "u9")[0].key == "t1"
        assert db.delete("t1") > put_seq
        assert db.get("t1") is None
        db.flush()
        db.compact_all()
        assert db.total_size() == sum(db.size_breakdown().values())
        assert "primary" in db.io_stats()
        db.close()

    def test_context_manager(self, index_options):
        with _wrapped(index_options) as db:
            db.put("t1", {"UserID": "u1"})


class TestConcurrency:
    def test_parallel_writers_and_readers(self, index_options):
        db = _wrapped(index_options)
        num_threads = 6
        per_thread = 150
        errors: list[BaseException] = []

        def writer(thread_id: int) -> None:
            try:
                for i in range(per_thread):
                    key = f"t{thread_id:02d}-{i:04d}"
                    db.put(key, {"UserID": f"u{thread_id}"})
                    if i % 10 == 0:
                        db.lookup("UserID", f"u{thread_id}", k=3)
                        db.get(key)
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        # Post-hoc consistency: every thread's writes are all present.
        for thread_id in range(num_threads):
            got = db.lookup("UserID", f"u{thread_id}",
                            early_termination=False)
            assert len(got) == per_thread, thread_id
        db.close()

    def test_concurrent_updates_single_key(self, index_options):
        db = _wrapped(index_options)
        barrier = threading.Barrier(4)

        def updater(thread_id: int) -> None:
            barrier.wait()
            for i in range(100):
                db.put("contested", {"UserID": f"u{thread_id}",
                                     "round": i})

        threads = [threading.Thread(target=updater, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one version is visible, and the index agrees with it.
        final = db.get("contested")
        assert final is not None
        winner = final["UserID"]
        results = db.lookup("UserID", winner, early_termination=False)
        assert [r.key for r in results] == ["contested"]
        for loser in range(4):
            user = f"u{loser}"
            if user == winner:
                continue
            assert db.lookup("UserID", user, early_termination=False) == []
        db.close()
