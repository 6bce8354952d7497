"""A LevelDB-style LSM-tree storage engine, written from scratch in Python.

This subpackage is the substrate on which the paper's five secondary-index
techniques are implemented.  It mirrors the architecture of Google's LevelDB
(the base system of the paper's LevelDB++):

* an in-memory **MemTable**, an ordered map of versions per key
  (:mod:`repro.lsm.memtable`),
* a **write-ahead log** with CRC-protected, block-fragmented records
  (:mod:`repro.lsm.wal`),
* immutable **SSTables** partitioned into prefix-compressed data blocks, with
  a filter meta block (bloom filters), secondary filter/zone-map meta blocks
  (the LevelDB++ extension of the paper's Figure 3), an index block and a
  footer (:mod:`repro.lsm.sstable`),
* **leveled compaction** with round-robin key-range pointers and 10x level
  fan-out (:mod:`repro.lsm.compaction`),
* a versioned **manifest** for crash-consistent metadata
  (:mod:`repro.lsm.version`, :mod:`repro.lsm.manifest`), and
* a **virtual filesystem** that meters every block read and write so that
  experiments report deterministic I/O counts (:mod:`repro.lsm.vfs`), plus a
  **fault-injecting** variant that simulates power loss and torn writes for
  crash-recovery drills (:mod:`repro.lsm.faults`).

The public entry point is :class:`repro.lsm.db.DB`.
"""

from repro.lsm.db import DB
from repro.lsm.errors import (
    CorruptionError,
    FaultInjectedError,
    InvalidArgumentError,
    LSMError,
    SimulatedCrashError,
)
from repro.lsm.faults import FaultInjectingVFS
from repro.lsm.options import Options
from repro.lsm.vfs import IOStats, LocalVFS, MemoryVFS

__all__ = [
    "DB",
    "CorruptionError",
    "FaultInjectedError",
    "FaultInjectingVFS",
    "InvalidArgumentError",
    "IOStats",
    "LSMError",
    "LocalVFS",
    "MemoryVFS",
    "Options",
    "SimulatedCrashError",
]
