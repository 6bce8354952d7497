"""Twitter-based dataset and operation workload generators (paper Section 5.1).

The paper's evaluation is driven by a custom generator because "there is no
workload generator which allows fine-grained control of the ratio of queries
on primary to secondary attributes".  This subpackage reproduces it:

* :mod:`repro.workloads.tweets` — a synthetic tweet generator whose UserID
  rank-frequency distribution matches the paper's seed dataset (Figure 7)
  and whose CreationTime attribute is time-correlated by construction;
* :mod:`repro.workloads.generator` — the *Static* (build, then query) and
  *Mixed* (interleaved reads/writes/updates) operation generators with the
  paper's Table 7 parameterisation;
* :mod:`repro.workloads.runner` — executes a workload against a
  :class:`repro.core.database.SecondaryIndexedDB`, sampling latency and
  I/O-meter series the way the paper's figures report them.
"""

from repro.workloads.generator import (
    MIXED_RATIOS,
    MixedWorkload,
    StaticWorkload,
)
from repro.workloads.ops import Delete, Get, Lookup, Put, RangeLookup
from repro.workloads.runner import (
    RunReport,
    WorkloadRunner,
    nearest_rank_index,
)
from repro.workloads.tweets import SeedProfile, TweetGenerator

__all__ = [
    "Delete",
    "Get",
    "Lookup",
    "MIXED_RATIOS",
    "MixedWorkload",
    "Put",
    "RangeLookup",
    "RunReport",
    "SeedProfile",
    "StaticWorkload",
    "TweetGenerator",
    "WorkloadRunner",
    "nearest_rank_index",
]
