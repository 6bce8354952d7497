"""Tests of the deterministic scheduler itself.

The scheduler is the foundation the rest of this suite stands on: if
same-seed runs diverged, or the DFS explorer missed interleavings, every
property test downstream would be meaningless.  These tests pin down the
scheduler's contract using plain Python tasks (no DB involved).
"""

from __future__ import annotations

import threading
import time

import pytest

from scheduling import (
    DeterministicScheduler,
    SchedulerDeadlockError,
    explore_interleavings,
)


def _interleaved_pair(sched):
    """Two spawned tasks, two recorded steps each; returns the step order."""
    log = []

    def task(name):
        for i in range(2):
            sched(f"{name}:step{i}")
            log.append((name, i))

    t_a = sched.spawn("a", task, "a")
    t_b = sched.spawn("b", task, "b")
    sched.wait_threads(t_a, t_b)
    sched.shutdown()
    return tuple(log)


def _merges(xs, ys):
    """All order-preserving interleavings of two sequences."""
    if not xs:
        return [tuple(ys)]
    if not ys:
        return [tuple(xs)]
    return ([(xs[0],) + rest for rest in _merges(xs[1:], ys)]
            + [(ys[0],) + rest for rest in _merges(xs, ys[1:])])


def test_same_seed_replays_identically():
    def run(seed):
        sched = DeterministicScheduler(seed=seed)
        order = _interleaved_pair(sched)
        return order, tuple(sched.trace), tuple(sched.decisions)

    for seed in (0, 3, 11):
        assert run(seed) == run(seed)


def test_different_seeds_cover_multiple_orders():
    orders = set()
    for seed in range(16):
        sched = DeterministicScheduler(seed=seed)
        orders.add(_interleaved_pair(sched))
    assert len(orders) > 1


def test_scripted_replay_reproduces_a_random_run():
    sched = DeterministicScheduler(seed=7)
    order = _interleaved_pair(sched)
    replay = DeterministicScheduler(script=list(sched.decisions),
                                    default="first")
    assert _interleaved_pair(replay) == order
    assert replay.trace == sched.trace
    assert replay.decisions == sched.decisions


def test_explore_enumerates_every_order():
    results = explore_interleavings(_interleaved_pair, max_interleavings=500)
    assert len(results) < 500, "choice tree did not converge"
    observed = {order for _decisions, order in results}
    expected = set(_merges([("a", 0), ("a", 1)], [("b", 0), ("b", 1)]))
    assert observed == expected  # all 6 merge orders of 2 steps x 2 tasks


def test_unmanaged_thread_registers_on_first_yield():
    sched = DeterministicScheduler()
    done = []

    def raw():
        sched("raw:step")
        done.append(True)

    thread = threading.Thread(target=raw, name="raw-thread")
    thread.start()
    deadline = time.monotonic() + 5.0
    while not any(name == "raw-thread"
                  for name, _label in sched.parked_tasks()):
        assert time.monotonic() < deadline, sched.parked_tasks()
        time.sleep(0.001)
    # Guarded park: the main task is ineligible until raw has run, so the
    # scheduler must hand the token to the raw thread.
    sched.park_until("main:wait-raw", lambda: bool(done))
    assert done == [True]
    thread.join(5.0)
    sched.shutdown()


def test_deadlock_detection():
    sched = DeterministicScheduler()
    hit = []

    def stuck():
        try:
            sched.park_until("stuck:forever", lambda: False)
        except SchedulerDeadlockError:
            hit.append(True)

    thread = sched.spawn("stuck", stuck)
    with pytest.raises(SchedulerDeadlockError):
        sched.park_until("main:never", lambda: False)
    thread.join(5.0)
    assert hit == [True]
    sched.shutdown()


def test_shutdown_releases_parked_tasks():
    sched = DeterministicScheduler()
    done = []

    def task():
        sched("task:step")
        done.append(True)

    thread = sched.spawn("t", task)
    # The task is parked at task:step and is never granted the token;
    # shutdown must free it so the thread can finish.
    sched.shutdown()
    thread.join(5.0)
    assert done == [True]
