"""The MemTable attribute B-tree."""

import random
import sys
import threading

from repro.core.memview import MemTableAttributeIndex
from repro.lsm.zonemap import encode_attribute


def _enc(value):
    return encode_attribute(value)


class TestBasics:
    def test_empty(self):
        tree = MemTableAttributeIndex()
        assert len(tree) == 0
        assert tree.get(_enc("u1")) == []
        assert list(tree.range(_enc("a"), _enc("z"))) == []

    def test_insert_get(self):
        tree = MemTableAttributeIndex()
        tree.insert(_enc("u1"), 1, b"t1")
        tree.insert(_enc("u1"), 5, b"t2")
        tree.insert(_enc("u2"), 3, b"t3")
        assert tree.get(_enc("u1")) == [(5, b"t2"), (1, b"t1")]
        assert tree.get(_enc("u2")) == [(3, b"t3")]
        assert len(tree) == 3

    def test_range_inclusive_sorted(self):
        tree = MemTableAttributeIndex()
        for i, user in enumerate(["u1", "u3", "u5", "u7"]):
            tree.insert(_enc(user), i, f"t{i}".encode())
        got = [key for key, _postings in tree.range(_enc("u3"), _enc("u5"))]
        assert got == [_enc("u3"), _enc("u5")]

    def test_range_spans_everything(self):
        tree = MemTableAttributeIndex()
        users = [f"u{i:03d}" for i in range(50)]
        for i, user in enumerate(users):
            tree.insert(_enc(user), i, b"t")
        got = [key for key, _p in tree.range(_enc("u000"), _enc("u049"))]
        assert got == [_enc(u) for u in users]


class TestExpiry:
    def test_expire_removes_flushed_postings(self):
        tree = MemTableAttributeIndex()
        tree.insert(_enc("u1"), 1, b"t1")
        tree.insert(_enc("u1"), 5, b"t2")
        tree.insert(_enc("u2"), 3, b"t3")
        expired = tree.expire_up_to(3)
        assert expired == 2
        assert tree.get(_enc("u1")) == [(5, b"t2")]
        assert tree.get(_enc("u2")) == []
        assert len(tree) == 1

    def test_expire_everything(self):
        tree = MemTableAttributeIndex()
        for seq in range(10):
            tree.insert(_enc("u"), seq, str(seq).encode())
        assert tree.expire_up_to(100) == 10
        assert len(tree) == 0
        assert tree.get(_enc("u")) == []

    def test_expired_keys_vanish_from_range(self):
        tree = MemTableAttributeIndex()
        tree.insert(_enc("u1"), 1, b"t1")
        tree.insert(_enc("u2"), 9, b"t2")
        tree.expire_up_to(5)
        got = [key for key, _p in tree.range(_enc("u1"), _enc("u2"))]
        assert got == [_enc("u2")]

    def test_expire_noop(self):
        tree = MemTableAttributeIndex()
        tree.insert(_enc("u"), 5, b"t")
        assert tree.expire_up_to(4) == 0
        assert len(tree) == 1


class TestRandomizedAgainstOracle:
    def test_large_tree_with_splits(self):
        """Enough distinct keys to force several node splits (order 32)."""
        rng = random.Random(11)
        tree = MemTableAttributeIndex()
        oracle: dict[bytes, list[tuple[int, bytes]]] = {}
        for seq in range(5000):
            value = rng.randrange(800)
            key = _enc(value)
            pk = f"t{seq}".encode()
            tree.insert(key, seq, pk)
            oracle.setdefault(key, []).append((seq, pk))
        for value in rng.sample(range(800), 100):
            key = _enc(value)
            want = sorted(oracle.get(key, []), key=lambda p: -p[0])
            assert tree.get(key) == want
        # Range queries against the oracle.
        for _ in range(20):
            lo = rng.randrange(700)
            hi = lo + rng.randrange(100)
            got = dict(tree.range(_enc(lo), _enc(hi)))
            want_keys = {k for k in oracle if _enc(lo) <= k <= _enc(hi)}
            assert set(got) == want_keys

    def test_interleaved_expiry(self):
        rng = random.Random(12)
        tree = MemTableAttributeIndex()
        live: list[tuple[int, bytes, bytes]] = []
        seq = 0
        for _round in range(10):
            for _ in range(300):
                value = _enc(rng.randrange(50))
                pk = f"t{seq}".encode()
                tree.insert(value, seq, pk)
                live.append((seq, value, pk))
                seq += 1
            cutoff = seq - 150  # expire all but the newest 150
            tree.expire_up_to(cutoff)
            live = [item for item in live if item[0] > cutoff]
            assert len(tree) == len(live)
        for value in {v for _s, v, _p in live}:
            want = sorted(((s, p) for s, v, p in live if v == value),
                          key=lambda item: -item[0])
            assert tree.get(value) == want

    def test_expiry_on_another_thread_loses_nothing(self):
        """The flush listener expires postings on the engine's maintenance
        thread while the caller's thread inserts and reads: every posting
        is found until it is expired, and the count stays exact."""
        tree = MemTableAttributeIndex()
        total = 20_000
        inserted = 0  # postings 0..inserted-1 are in the tree
        failures: list[str] = []

        def expirer() -> None:
            try:
                while inserted < total:
                    tree.expire_up_to(inserted - 50)
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=expirer, daemon=True)
        try:
            thread.start()
            for seq in range(total):
                tree.insert(_enc(seq * 7919 % total), seq, b"t%d" % seq)
                inserted = seq + 1
                if seq % 97 == 0:
                    assert tree.get(_enc(seq * 7919 % total)) == \
                        [(seq, b"t%d" % seq)]
        finally:
            inserted = total
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and failures == []
        tree.expire_up_to(total - 11)
        assert len(tree) == 10
        assert sorted(posting for _value, postings
                      in tree.range(_enc(0), _enc(total))
                      for posting in postings) == \
            [(seq, b"t%d" % seq) for seq in range(total - 10, total)]
