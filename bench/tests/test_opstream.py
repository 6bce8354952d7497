"""Op streams are a pure function of the seed; the oracle ranks by seq."""

from repro.workloads.generator import MIXED_RATIOS

from opstream import Oracle, StreamBuilder, encode_ops


def stream(seed):
    builder = StreamBuilder(seed, num_users=20)
    return (builder.load(50)
            + builder.mixed(300, MIXED_RATIOS["update_heavy"])
            + builder.mixed(100, MIXED_RATIOS["read_heavy"],
                            frozen_targets=True)
            + builder.lookups(10) + builder.user_ranges(10))


def test_same_seed_gives_byte_identical_streams():
    assert encode_ops(stream(7)) == encode_ops(stream(7))


def test_another_seed_gives_another_stream():
    assert encode_ops(stream(7)) != encode_ops(stream(8))


def test_mixes_contain_what_they_promise():
    builder = StreamBuilder(3, num_users=20)
    preload = builder.load(100)
    known = {op[1] for op in preload}
    ops = builder.mixed(2000, MIXED_RATIOS["update_heavy"])
    updates = 0
    for op in ops:
        if op[0] == "put":
            updates += op[1] in known
            known.add(op[1])
        elif op[0] == "get":
            assert op[1] in known
    assert {op[0] for op in ops} == {"put", "get", "lookup"}
    assert 700 < updates < 900        # 40 % of the ops re-put a known key
    frozen = builder.mixed(500, MIXED_RATIOS["read_heavy"],
                           frozen_targets=True)
    new_keys = {op[1] for op in frozen if op[0] == "put"}
    assert all(op[1] not in new_keys for op in frozen if op[0] == "get")


def test_oracle_returns_the_k_most_recent_by_seq():
    oracle = Oracle()
    oracle.put("a", {"UserID": "u1", "CreationTime": 10}, 1)
    oracle.put("b", {"UserID": "u1", "CreationTime": 11}, 2)
    oracle.put("c", {"UserID": "u2", "CreationTime": 12}, 3)
    oracle.put("a", {"UserID": "u2", "CreationTime": 13}, 4)   # update
    assert oracle.lookup("UserID", "u1", 10) == ["b"]
    assert oracle.lookup("UserID", "u2", 10) == ["a", "c"]
    assert oracle.lookup("UserID", "u2", 1) == ["a"]
    assert oracle.range("UserID", "u1", "u2", None) == ["a", "c", "b"]
    assert oracle.range("CreationTime", 11, 12, 10) == ["c", "b"]
    assert oracle.expected(("range", "CreationTime", 11, 13, 2)) == ["a", "c"]
    assert oracle.live_bytes() > 0
