"""Speed calibration: how fast is this box running *right now*?

The sandbox's speed is not constant: it shifts by 5-30 % for seconds to
minutes at a time (other tenants), which is more than the regression
bounds.  So every replica interleaves its work with slices of a fixed,
pure-stdlib kernel — dict, bytes, ``struct``, ``sorted``, ``zlib``: the
interpreter-bound mix the engine itself is made of, but none of the
program's code, so a regression in the program cannot hide in it — and
every *time-valued* metric of the replica is scaled by::

    REFERENCE_SECONDS / median(kernel slice times)

i.e. reported in the reference box's microseconds.  On a quiet reference box
the factor is 1; while a neighbour steals a third of the CPU it is ~0.67 and
undoes the slowdown.  Counts, ratios and memory are never scaled.  The
factor is printed with every run, so raw times can be recovered.
``remote_mixed`` scales finer than that: round by round (:class:`Rounds`).
"""

from __future__ import annotations

import statistics
import struct
import time
import zlib

#: The kernel's median time on the quiet 2-core reference box.
REFERENCE_SECONDS = 0.0094
#: Closed-loop drivers take a slice every this many operations.
OPS_PER_SLICE = 400

_BLOB = bytes(range(256)) * 16
_PAIR = struct.Struct(">IQ")


def kernel() -> int:
    """About ten milliseconds of interpreter-bound work; returns a checksum."""
    table: dict[bytes, bytes] = {}
    for index in range(10000):
        key = b"k%08d" % (index * 7919 % 6007)
        table[key] = _PAIR.pack(index, index * index)
        _first, second = _PAIR.unpack(table[key])
    total = 0
    for key, value in sorted(table.items())[:5000]:
        total += len(key) + value[3]
    for _ in range(22):
        total += len(zlib.decompress(zlib.compress(_BLOB, 6)))
    return total


class Calibrator:
    """Collects kernel slices over one replica."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        #: Total time spent in slices, so a caller timing a phase by wall
        #: clock (set-up) can take the slices back out.
        self.seconds = 0.0

    def slice(self) -> float:
        began = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - began
        self.slices.append(elapsed)
        self.seconds += elapsed
        return elapsed

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-box time."""
        return REFERENCE_SECONDS / statistics.median(self.slices)


class Rounds:
    """Work cut into short rounds, each scaled by the slices around it.

    The slowdowns come in bursts of a fraction of a second to minutes, and
    one factor for a whole replica — the median slice — fits neither the
    rounds a burst hit nor the ones it spared.  Where work can be cut into
    rounds of a tenth of a second, a slice is taken between every two of
    them and each round's times are scaled by the mean of the slice before
    and the slice after it.  Measured on this box across quiet, busy and
    mixed minutes, a replica's remote p50s spread 4-6 % that way against
    11-20 % with the replica-wide factor, and their medians agree between
    the quiet and the busy minutes within 3 %.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.edges = [calibrator.slice()]
        self.work: list[int] = []
        self.seconds: list[float] = []

    def add(self, work: int, seconds: float) -> None:
        """A round of ``work`` operations just ran in ``seconds``."""
        self.work.append(work)
        self.seconds.append(seconds)
        self.edges.append(self.calibrator.slice())

    def factor(self, index: int) -> float:
        """Multiply a time measured in round ``index`` by this."""
        return 2.0 * REFERENCE_SECONDS / \
            (self.edges[index] + self.edges[index + 1])

    def seconds_per_op(self) -> float:
        """Reference-box seconds per operation over all rounds."""
        scaled = sum(seconds * self.factor(index)
                     for index, seconds in enumerate(self.seconds))
        return scaled / sum(self.work)
