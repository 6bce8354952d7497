"""Equality LOOKUP answers the same on every index kind.

A LOOKUP(A, a) matches the records whose attribute *encodes* as ``a``
does — the order-preserving encoding that Embedded's columns, NoIndex's
scan and every RANGELOOKUP compare.  So LOOKUP(a) equals
RANGELOOKUP(a, a) on every kind, and both equal NoIndex's answer, also for
values where Python's ``==`` and the encoding part ways: ``nan`` (not
equal to itself), ``b"a"`` (encodes as ``"a"``) and integers past 2**53
(two of them share one float).
"""

import pytest

from repro.core.base import IndexKind
from repro.core.database import SecondaryIndexedDB
from repro.dist.cluster import ShardedDB
from repro.lsm.options import Options

# (stored values, one per document, in put order; the LOOKUP value)
FAMILIES = {
    "nan": ([float("nan"), 1.5], float("nan")),
    "bytes": (["a", "b"], b"a"),
    "big_int": ([2**53, 2**53 + 1, 2**53 + 2], 2**53),
}


def _options():
    return Options(block_size=1024, sstable_target_size=4 * 1024,
                   memtable_budget=4 * 1024, l1_target_size=16 * 1024)


def _stores():
    stores = {kind.value: SecondaryIndexedDB.open_memory(
                  indexes={"u": kind}, options=_options())
              for kind in IndexKind}
    stores["global"] = ShardedDB.open_memory(
        num_shards=2, global_indexes=("u",), options=_options())
    return stores


def _keys(results):
    return [result.key for result in results]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lookup_matches_range_lookup_and_noindex(family):
    stored, value = FAMILIES[family]
    stores = _stores()
    try:
        for store in stores.values():
            for i, attr in enumerate(stored):
                store.put(f"t{i}", {"u": attr, "i": i})
        for flushed in (False, True):
            expected = _keys(stores["noindex"].lookup("u", value))
            assert expected, family  # the value matches a stored record
            for name, store in stores.items():
                where = (family, name, flushed)
                assert _keys(store.lookup("u", value)) == expected, where
                assert _keys(store.range_lookup("u", value, value)) == \
                    expected, where
            for store in stores.values():
                store.flush()
    finally:
        for store in stores.values():
            store.close()
