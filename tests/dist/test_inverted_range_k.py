"""A bad ``k`` is refused by RANGELOOKUP even over an inverted range.

``low > high`` answers nothing, but ``k`` is checked first, on every index
kind and on a global index over either partitioning.
"""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.dist.cluster import ShardedDB
from repro.lsm.errors import InvalidArgumentError
from repro.lsm.options import Options

_BAD_KS = [0, True]


def _options():
    return Options(block_size=1024, sstable_target_size=4 * 1024,
                   memtable_budget=4 * 1024, l1_target_size=16 * 1024)


@pytest.mark.parametrize("k", _BAD_KS)
@pytest.mark.parametrize("kind", list(IndexKind), ids=lambda kind: kind.value)
def test_every_kind_checks_k_before_an_inverted_range(kind, k):
    db = SecondaryIndexedDB.open_memory(indexes={"u": kind},
                                        options=_options())
    db.put("t1", {"u": "m"})
    with pytest.raises(InvalidArgumentError, match="k must be"):
        db.range_lookup("u", "z", "a", k=k)
    assert db.range_lookup("u", "z", "a") == []
    db.close()


@pytest.mark.parametrize("k", _BAD_KS)
@pytest.mark.parametrize("split_points", [None, {"u": ["g", "p"]}],
                         ids=["hash", "range"])
def test_global_index_checks_k_before_it_routes(split_points, k):
    cluster = ShardedDB.open_memory(num_shards=2, global_indexes=("u",),
                                    global_split_points=split_points,
                                    options=_options())
    cluster.put("t1", {"u": "m"})
    with pytest.raises(InvalidArgumentError, match="k must be"):
        cluster.range_lookup("u", "z", "a", k=k)
    assert cluster.range_lookup("u", "z", "a") == []
    assert [r.key for r in cluster.range_lookup("u", "a", "z", k=1)] == ["t1"]
    cluster.close()
