"""The open-loop driver: requests go out on a schedule, whatever the server does.

Each sender owns one connection and a fixed timetable: request ``i`` is
*due* at ``start + offset + i / rate``.  Latency is measured **from the due
time**, not from when the request actually went out, so a stall is charged
to every request that had to wait behind it (no coordinated omission).  A
sender that falls more than one second behind gives the step
up: everything still unsent counts as failed.

The generator keeps its own books so its lateness can be told from the
server's: a request is *late* when it left more than 1 ms after it was due,
and ``overshoot`` records by how much ``sleep`` overslept when the sender
was **not** behind — that is the load generator's own error.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

#: A request issued more than this after its due time counts as late.
LATE_SECONDS = 0.001
#: A sender this far behind its timetable gives the step up.
MAX_BACKLOG_SECONDS = 1.0


class SenderLog:
    """What one sender saw during one step."""

    def __init__(self) -> None:
        self.from_due: list[float] = []    # completion - due, per request
        self.overshoot: list[float] = []   # wake-up - due, when it slept
        self.late = 0
        self.unsent = 0
        self.aborted = False
        self.first_due = 0.0
        #: When the timetable ends: the due time of a request after the last.
        self.schedule_end = 0.0


def run_sender(send: Callable[[Any], Any], ops: Sequence[Any], rate: float,
               start: float, offset: float = 0.0,
               clock: Callable[[], float] = time.perf_counter,
               sleep: Callable[[float], None] = time.sleep) -> SenderLog:
    """Send ``ops`` at ``rate`` per second from ``start + offset``.

    ``send(op)`` performs the request (and may check the answer); its whole
    duration is inside the latency, and whatever makes the *next* request
    leave late shows in ``late`` and ``overshoot``.
    """
    log = SenderLog()
    log.first_due = start + offset
    log.schedule_end = log.first_due + len(ops) / rate
    for index, op in enumerate(ops):
        due = start + offset + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
            log.overshoot.append(now - due)
        elif now - due > MAX_BACKLOG_SECONDS:
            log.aborted = True
            log.unsent = len(ops) - index
            break
        if now - due > LATE_SECONDS:
            log.late += 1
        send(op)
        done = clock()
        log.from_due.append(done - due)
    return log


class StepResult:
    """One ladder step: the senders' logs pooled."""

    def __init__(self, rate: float, logs: Sequence[SenderLog],
                 grace: float) -> None:
        self.rate = rate
        self.from_due = [s for log in logs for s in log.from_due]
        self.overshoot = [s for log in logs for s in log.overshoot]
        self.sent = len(self.from_due)
        self.unsent = sum(log.unsent for log in logs)
        self.aborted = any(log.aborted for log in logs)
        self.late_frac = sum(log.late for log in logs) / max(1, self.sent)
        # Achieved rate: requests answered by the end of the timetable
        # (plus ``grace``, the latency limit) over the timetable's length.
        # Counting against the last completion instead would let a single
        # straggler at the very end read as a 5 % shortfall.
        began = min(log.first_due for log in logs)
        ended = max(log.schedule_end for log in logs)
        on_time = 0
        for log in logs:
            step = (log.schedule_end - log.first_due) / max(
                1, len(log.from_due) + log.unsent)
            for index, latency in enumerate(log.from_due):
                if log.first_due + index * step + latency <= ended + grace:
                    on_time += 1
        self.achieved = on_time / (ended - began) if ended > began else 0.0

    def passes(self, p99_from_due: float, limit_seconds: float) -> bool:
        """Met the latency limit without a growing backlog."""
        return (not self.aborted and p99_from_due <= limit_seconds
                and self.achieved >= 0.97 * self.rate)
