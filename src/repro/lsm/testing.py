"""Deterministic concurrency harness for the background pipeline.

Threaded code is only testable if its interleavings can be *chosen*.  The
engine's concurrent paths call ``options.step_hook(label)`` at every
interesting point (WAL append, MemTable insert, publish, flush build,
compaction install, stall waits, ...) and rewrite internal blocking waits
as cooperative yield loops when a hook is set.  This module provides the
hook: a :class:`DeterministicScheduler` that serializes all participating
threads — exactly one runs between yield points — and decides, at every
yield, which parked thread resumes next.

The decision sequence is driven by a seeded RNG (property tests sweep
seeds; the same seed replays the same interleaving bit for bit) or by an
explicit script of choice indices, which :func:`explore_interleavings`
uses to DFS-enumerate every schedule of a small scenario.

Protocol
--------

* Threads join the schedule automatically on their first hook call; the
  thread's ``name`` identifies it in traces and decisions.
* A label ``"spawn:<name>"`` does not park the caller: it blocks (for
  real) until the task ``<name>`` has parked for the first time, so a
  freshly started thread's preamble cannot race its parent.  ``DB`` emits
  this right after starting its background thread; :meth:`spawn` wraps
  arbitrary test threads in the same handshake.
* Plain ``hook(label)`` parks unconditionally; :meth:`park_until` parks
  with a *guard* — the task is not eligible to run again until its guard
  predicate returns true.  ``DB._await_locked`` uses guards for its
  internal waits (a background thread with no due work, a writer stalled
  on level 0, ...), which keeps pointless wake-recheck-park cycles out of
  the schedule and out of the choice tree.
* A parking thread that holds the run token picks the successor *itself*
  (under the scheduler lock) among eligible parked tasks and hands the
  token over; there is no central controller thread to deadlock.  With
  two or more eligible candidates this is a recorded *choice point*.
* A thread that exits while holding the token (the engine's background
  thread after ``close()``) is reaped by the parked threads' 1 ms
  liveness poll.  If every task is parked and no guard is satisfiable,
  the schedule cannot progress: every parked task raises
  :class:`SchedulerDeadlockError` instead of hanging the test.

Rules for instrumented code (see ``DB._await_locked``): never call the
hook while holding a lock another task might need, and rewrite every
blocking wait as release-yield-reacquire-recheck.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

__all__ = [
    "DeterministicScheduler",
    "ScheduleDivergenceError",
    "SchedulerDeadlockError",
    "explore_interleavings",
]

_SPAWN_PREFIX = "spawn:"
_SPAWN_TIMEOUT = 30.0
_POLL_SECONDS = 0.001


class ScheduleDivergenceError(AssertionError):
    """A scripted replay saw a different choice tree than the recording.

    This means the scenario is not deterministic under the scheduler
    (e.g. it branched on wall-clock time or an unmanaged thread), which
    the harness treats as a test failure.
    """


class SchedulerDeadlockError(RuntimeError):
    """Every task is parked and no guard can become true: a real deadlock.

    Raised in *all* parked tasks so the test fails immediately with the
    park labels in the message, instead of hanging until a CI timeout.
    """


class _Task:
    __slots__ = ("name", "thread", "gate", "parked", "label", "guard")

    def __init__(self, name: str, thread: threading.Thread) -> None:
        self.name = name
        self.thread = thread
        self.gate = threading.Event()
        self.parked = False
        self.label = ""
        self.guard: Callable[[], bool] | None = None

    def eligible(self) -> bool:
        if not self.parked:
            return False
        if self.guard is None:
            return True
        try:
            return bool(self.guard())
        except Exception:  # noqa: BLE001 - guard races are scheduling hints
            return True  # wake it; the task's own recheck is authoritative


class DeterministicScheduler:
    """Step-controlled thread scheduler; instances are ``options.step_hook``.

    ``seed`` drives random successor choices; ``script`` forces the first
    ``len(script)`` choices (indices into the name-sorted candidate list)
    and ``default`` says what happens past the script's end: ``"random"``
    (seeded) or ``"first"`` (always index 0 — what the DFS explorer uses).

    After the orchestrated part of a test, :meth:`shutdown` releases every
    parked thread and turns the hook into a no-op so the remaining work
    (drains, ``close()``) free-runs to completion.
    """

    def __init__(self, seed: int = 0, script: list[int] | None = None,
                 default: str = "random") -> None:
        if default not in ("random", "first"):
            raise ValueError(f"unknown default choice mode {default!r}")
        self._rng = random.Random(seed)
        self._script = list(script or [])
        self._default = default
        self._lock = threading.Lock()
        self._tasks: dict[int, _Task] = {}  # thread id -> task
        self._names: set[str] = set()
        self._free_run = False
        self._deadlocked = False
        #: Serialized history of yield points: ``(task_name, label)``.
        self.trace: list[tuple[str, str]] = []
        #: Index picked at each *choice point* (>= 2 eligible candidates).
        self.decisions: list[int] = []
        #: Candidate count at each choice point (for DFS branching).
        self.choice_counts: list[int] = []
        # The creating thread holds the run token from birth: threads it
        # spawns park on their first hook call without stealing the run.
        root = self._register_locked(threading.current_thread())
        self._token: str = root.name

    # -- the hook ----------------------------------------------------------

    def __call__(self, label: str) -> None:
        self.park_until(label, None)

    def park_until(self, label: str,
                   guard: Callable[[], bool] | None) -> None:
        """Park at ``label``; stay ineligible until ``guard()`` is true.

        ``guard`` may be evaluated by *other* tasks under the scheduler
        lock (without the caller's locks held): it must be a cheap, pure
        read.  It is a scheduling hint only — the woken task must recheck
        its real condition itself, as ``DB._await_locked`` does.
        """
        if self._free_run:
            time.sleep(0)  # plain yield; keep real threads moving
            return
        if label.startswith(_SPAWN_PREFIX):
            self._await_spawn(label[len(_SPAWN_PREFIX):])
            return
        with self._lock:
            task = self._current_task_locked()
            task.parked = True
            task.label = label
            task.guard = guard
            self.trace.append((task.name, label))
            if self._token == task.name:
                self._grant_next_locked(parker=task)
        self._wait_for_turn(task)

    def _wait_for_turn(self, task: _Task) -> None:
        while not task.gate.wait(_POLL_SECONDS):
            if self._free_run:
                break
            self._poll_stuck()
            if self._deadlocked:
                task.parked = False
                raise SchedulerDeadlockError(
                    f"no eligible task can run; parked: "
                    f"{self.parked_tasks()}")
        # Unpark under the lock: a poller that saw this task still parked
        # with its gate already cleared would take the token for floating
        # and grant it a second time (an extra, timing-made decision).
        with self._lock:
            task.gate.clear()
            task.parked = False
            task.guard = None

    # -- registration ------------------------------------------------------

    def _register_locked(self, thread: threading.Thread) -> _Task:
        name = thread.name
        while name in self._names:
            name += "'"
        self._names.add(name)
        task = _Task(name, thread)
        self._tasks[thread.ident or id(thread)] = task
        return task

    def _current_task_locked(self) -> _Task:
        thread = threading.current_thread()
        task = self._tasks.get(thread.ident or id(thread))
        if task is None:
            task = self._register_locked(thread)
        return task

    # -- successor choice --------------------------------------------------

    def _grant_next_locked(self, parker: _Task | None = None) -> None:
        # The parker itself is a legitimate successor ("this task simply
        # keeps running") but goes LAST in the candidate order: a plain
        # name sort would let the "always pick index 0" policy hand the
        # token straight back to an alphabetically early parker forever,
        # starving everyone else.  Parker-last makes index 0 mean "switch"
        # and turns the deterministic policy into a natural round-robin,
        # while self-continuation stays explorable as the highest index.
        candidates = sorted(
            (task for task in self._tasks.values()
             if task is not parker and task.eligible()),
            key=lambda task: task.name)
        if parker is not None and parker.eligible():
            candidates.append(parker)
        if not candidates:
            return  # token floats; _poll_stuck re-grants or flags deadlock
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            index = self._next_choice_locked(len(candidates))
            self.choice_counts.append(len(candidates))
            self.decisions.append(index)
            chosen = candidates[index]
        self._token = chosen.name
        chosen.gate.set()

    def _next_choice_locked(self, count: int) -> int:
        position = len(self.decisions)
        if position < len(self._script):
            index = self._script[position]
            if not 0 <= index < count:
                raise ScheduleDivergenceError(
                    f"scripted choice {position} is {index} but only "
                    f"{count} tasks are eligible — the scenario is not "
                    f"deterministic")
            return index
        if self._default == "first":
            return 0
        return self._rng.randrange(count)

    def _poll_stuck(self) -> None:
        """Parked tasks call this at 1 ms: reap dead token holders, regrant
        when a floating token has an eligible taker, and flag a deadlock
        when nothing can ever run again."""
        with self._lock:
            dead = [key for key, task in self._tasks.items()
                    if not task.thread.is_alive()]
            for key in dead:
                task = self._tasks.pop(key)
                self._names.discard(task.name)
            alive = list(self._tasks.values())
            if any(not task.parked or task.gate.is_set() for task in alive):
                return  # someone runs (or was just handed the token)
            if any(task.eligible() for task in alive):
                self._grant_next_locked()
                return
            if alive:
                self._deadlocked = True

    # -- spawning ----------------------------------------------------------

    def _await_spawn(self, name: str) -> None:
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while True:
            with self._lock:
                for task in self._tasks.values():
                    if task.name == name and task.parked:
                        return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"task {name!r} did not reach its first yield point")
            time.sleep(_POLL_SECONDS / 2)

    def spawn(self, name: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> threading.Thread:
        """Start ``fn`` on a managed thread named ``name``.

        The new thread parks at ``start:<name>`` before running ``fn``, and
        this call returns only once it has — from then on the thread moves
        only when the schedule picks it.  When ``fn`` returns, the thread
        deregisters and hands the token back explicitly (no reaper
        latency), which is also what makes :meth:`wait_threads`
        deterministic.
        """
        def runner() -> None:
            self(f"start:{name}")
            try:
                fn(*args, **kwargs)
            finally:
                self._task_exit()

        thread = threading.Thread(target=runner, name=name, daemon=True)
        thread.start()
        self._await_spawn(name)
        return thread

    def _task_exit(self) -> None:
        if self._free_run:
            return
        with self._lock:
            thread = threading.current_thread()
            task = self._tasks.pop(thread.ident or id(thread), None)
            if task is None:
                return
            self._names.discard(task.name)
            if self._token == task.name:
                self._grant_next_locked()

    def wait_threads(self, *threads: threading.Thread,
                     label: str = "wait:threads") -> None:
        """Park until every scheduler-:meth:`spawn`-ed thread has finished.

        Deterministic, unlike polling ``Thread.is_alive`` from a loop: a
        spawned task deregisters at a fixed point in the schedule (its
        ``fn`` returned), so the guard flips at the same decision index in
        every replay.  Only use with threads created by :meth:`spawn`.
        """
        idents = [thread.ident or id(thread) for thread in threads]

        def done() -> bool:
            return all(ident not in self._tasks for ident in idents)

        while not done():
            self.park_until(label, done)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop scheduling: every parked task resumes and free-runs."""
        with self._lock:
            self._free_run = True
            for task in self._tasks.values():
                task.gate.set()

    def parked_tasks(self) -> list[tuple[str, str]]:
        """Currently parked ``(name, label)`` pairs, for debugging."""
        with self._lock:
            return sorted((task.name, task.label)
                          for task in self._tasks.values() if task.parked)


def explore_interleavings(
        scenario: Callable[[DeterministicScheduler], Any],
        max_interleavings: int = 200) -> list[tuple[list[int], Any]]:
    """DFS-enumerate schedules of ``scenario`` and collect its results.

    ``scenario`` receives a fresh scheduler per run; it must build its own
    DB/threads (passing the scheduler as ``step_hook``), drive them with
    :meth:`DeterministicScheduler.spawn` / ``wait_threads`` and return
    something comparable (e.g. observed reads plus the final state).
    Returns ``[(decisions, result), ...]``, one entry per distinct
    interleaving, at most ``max_interleavings`` of them.

    The enumeration is exact for scenarios whose choice tree fits the
    budget: every leaf reached is a complete schedule, and alternative
    branches at every depth are queued until exhausted.
    """
    results: list[tuple[list[int], Any]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack and len(results) < max_interleavings:
        prefix = stack.pop()
        scheduler = DeterministicScheduler(script=list(prefix),
                                           default="first")
        result = scenario(scheduler)
        decisions = list(scheduler.decisions)
        counts = list(scheduler.choice_counts)
        if decisions[:len(prefix)] != list(prefix):
            raise ScheduleDivergenceError(
                f"replay of prefix {list(prefix)} recorded "
                f"{decisions[:len(prefix)]}")
        results.append((decisions, result))
        for depth in range(len(prefix), len(decisions)):
            for alternative in range(decisions[depth] + 1, counts[depth]):
                stack.append(tuple(decisions[:depth]) + (alternative,))
    return results
