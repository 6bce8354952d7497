"""The open-loop scheduler on a fake clock."""

import pytest

from openloop import SenderLog, StepResult, run_sender


class World:
    """A clock that only moves when someone sleeps or a request runs."""

    def __init__(self, service_seconds):
        self.now = 0.0
        self.service = list(service_seconds)
        self.sent_at = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds

    def send(self, _op):
        self.sent_at.append(self.now)
        self.now += self.service.pop(0)


def run(world, count, rate, **kwargs):
    return run_sender(world.send, list(range(count)), rate, start=1.0,
                      clock=world.clock, sleep=world.sleep, **kwargs)


def test_latency_is_measured_from_the_due_time():
    # 10 op/s: due at 1.0, 1.1, 1.2, 1.3.  The second request stalls for
    # 0.25 s, so the third leaves 0.15 s late and the fourth 0.06 s late.
    world = World([0.01, 0.25, 0.01, 0.01])
    log = run(world, 4, 10.0)
    assert world.sent_at == pytest.approx([1.0, 1.1, 1.35, 1.36])
    assert log.from_due == pytest.approx([0.01, 0.25, 0.16, 0.07])
    assert log.late == 2
    assert not log.aborted and log.unsent == 0
    # It slept (exactly) before the first two only; never overslept.
    assert log.overshoot == pytest.approx([0.0, 0.0])


def test_oversleeping_is_the_generators_own_lateness():
    world = World([0.0, 0.0])
    sleepy = lambda seconds: world.sleep(seconds + 0.002)  # noqa: E731
    log = run_sender(world.send, [0, 1], 10.0, start=1.0, clock=world.clock,
                     sleep=sleepy)
    assert log.overshoot == pytest.approx([0.002, 0.002])
    assert log.late == 2                     # > 1 ms after due, both times
    assert log.from_due == pytest.approx([0.002, 0.002])


def test_a_backlog_over_one_second_aborts_the_step():
    world = World([1.5, 0.01, 0.01, 0.01, 0.01])
    log = run(world, 5, 10.0)
    # After the 1.5 s stall the next request is 1.4 s overdue: give up.
    assert log.aborted
    assert len(log.from_due) == 1
    assert log.unsent == 4


def test_offset_staggers_two_senders():
    world = World([0.0, 0.0])
    log = run_sender(world.send, [0, 1], 5.0, start=1.0, offset=0.1,
                     clock=world.clock, sleep=world.sleep)
    assert world.sent_at == pytest.approx([1.1, 1.3])
    assert log.first_due == pytest.approx(1.1)


def make_log(from_due, first_due, schedule_end, late=0, unsent=0,
             aborted=False):
    log = SenderLog()
    log.from_due = from_due
    log.first_due, log.schedule_end = first_due, schedule_end
    log.late, log.unsent, log.aborted = late, unsent, aborted
    return log


def test_step_result_pools_senders_and_judges_the_step():
    logs = [make_log([0.001] * 50, 0.0, 1.0, late=5),
            make_log([0.002] * 50, 0.01, 1.01)]
    step = StepResult(100.0, logs, grace=0.020)
    assert step.sent == 100
    assert step.achieved == pytest.approx(100 / 1.01)
    assert step.late_frac == pytest.approx(0.05)
    assert step.passes(p99_from_due=0.002, limit_seconds=0.020)
    assert not step.passes(p99_from_due=0.021, limit_seconds=0.020)


def test_one_straggler_costs_one_request_not_the_step():
    stalled = [0.001] * 99 + [0.5]           # the very last answer is late
    step = StepResult(100.0, [make_log(stalled, 0.0, 1.0)], grace=0.020)
    assert step.achieved == pytest.approx(99.0)
    assert step.passes(0.001, 0.020)


def test_a_sender_that_falls_behind_fails_the_step():
    # Every answer 0.3 s late by the end: a third of them miss the window.
    drifting = [0.3 * index / 99 for index in range(100)]
    step = StepResult(100.0, [make_log(drifting, 0.0, 1.0)], grace=0.020)
    assert step.achieved < 97.0
    assert not step.passes(0.001, 0.020)
    gave_up = StepResult(100.0, [make_log([0.001] * 100, 0.0, 1.03,
                                          unsent=3, aborted=True)], 0.020)
    assert not gave_up.passes(0.001, 0.020)
