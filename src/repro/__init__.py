"""LevelDB++ in Python.

A faithful, pure-Python reproduction of the system built for the SIGMOD 2018
paper *"A Comparative Study of Secondary Indexing Techniques in LSM-based
NoSQL Databases"* (Qader, Cheng, Hristidis).

The package is organised in three layers:

``repro.lsm``
    A from-scratch LevelDB-style log-structured merge-tree storage engine:
    ordered-map MemTable, write-ahead log, block-partitioned immutable SSTables
    with bloom filters and zone maps, leveled compaction and versioned
    manifests.  All I/O flows through a virtual filesystem that counts block
    reads and writes, so experiments report deterministic I/O costs instead
    of hardware-dependent wall time.

``repro.core``
    The paper's contribution: five secondary-indexing techniques implemented
    on top of the same engine — the *Embedded* index (per-block secondary
    bloom filters + zone maps), and the *Eager*, *Lazy* and *Composite*
    Stand-Alone indexes — plus a no-index baseline, the analytic cost models
    of Tables 3 and 5, and the index-selection strategy of Figure 2.

``repro.workloads``
    The Twitter-based synthetic dataset and operation workload generators
    used throughout the paper's evaluation (Static and Mixed workloads).

Quickstart::

    from repro import SecondaryIndexedDB, IndexKind

    db = SecondaryIndexedDB.open_memory(
        indexes={"user_id": IndexKind.LAZY})
    db.put("t1", {"user_id": "u1", "text": "hello"})
    db.put("t2", {"user_id": "u1", "text": "world"})
    results = db.lookup("user_id", "u1", k=10)
"""

from typing import Any

__version__ = "1.0.0"

# Public names are resolved lazily (PEP 562) so that importing one layer —
# say, the bare storage engine — does not pull in the others.
_EXPORTS = {
    "DB": ("repro.lsm.db", "DB"),
    "IOStats": ("repro.lsm.vfs", "IOStats"),
    "IndexKind": ("repro.core.base", "IndexKind"),
    "IndexSelector": ("repro.core.selector", "IndexSelector"),
    "LocalVFS": ("repro.lsm.vfs", "LocalVFS"),
    "LookupResult": ("repro.core.base", "LookupResult"),
    "MemoryVFS": ("repro.lsm.vfs", "MemoryVFS"),
    "Options": ("repro.lsm.options", "Options"),
    "SecondaryIndexedDB": ("repro.core.database", "SecondaryIndexedDB"),
    "ShardedDB": ("repro.dist.cluster", "ShardedDB"),
    "ThreadSafeDB": ("repro.core.concurrent", "ThreadSafeDB"),
    "WorkloadProfile": ("repro.core.selector", "WorkloadProfile"),
    "verify_integrity": ("repro.lsm.checker", "verify_integrity"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value
