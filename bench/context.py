"""What every workload is handed, and what it hands back."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from calibrate import Calibrator
from closedloop import Tally

#: ``--seconds`` at which the base sizes in each workload module apply.
BASE_SECONDS = 10.0


@dataclass
class RunArgs:
    """One replica's inputs.

    A run is several independent *replicas* of a workload — each with a
    seed of its own derived from ``--seed``, its own set-up and its own
    measured phase — and every metric is the median over the replicas
    (``run.py``).  One replica hit by a noisy second, or by an unlucky
    tree shape, does not decide the run.
    """

    seed: int
    #: Size multiplier: ``--seconds / BASE_SECONDS``.  Op counts and dataset
    #: sizes are fixed functions of it, so counts repeat exactly.
    scale: float
    trace: bool
    out_dir: str
    #: Takes this replica's speed-calibration slices (see calibrate.py).
    calibrator: Calibrator = field(default_factory=Calibrator)

    def size(self, base: int, floor: int = 1) -> int:
        return max(floor, int(round(base * self.scale)))

    def timed_setup(self, build):
        """Run ``build()``; returns its result and its set-up seconds.

        Wall clock minus the calibration slices taken inside it.
        """
        slices_before = self.calibrator.seconds
        began = time.perf_counter()
        built = build()
        elapsed = time.perf_counter() - began
        return built, elapsed - (self.calibrator.seconds - slices_before)


@dataclass
class Outcome:
    tally: Tally
    #: End-to-end metrics (``--trace 0``) or layer metrics (``--trace 1``).
    metrics: dict[str, float]
    #: Human-readable lines: sizes, sanity shares, the layer budget.
    notes: list[str] = field(default_factory=list)
    #: Time-valued metrics the workload has put into reference-box time
    #: itself (``calibrate.Rounds``); the rest take the replica's factor.
    calibrated: frozenset[str] = frozenset()
