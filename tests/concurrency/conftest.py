"""Shared setup for the concurrency suite.

A hung interleaving (scheduler bug, lost wakeup, real deadlock) must not
wedge the whole test run.  ``pytest-timeout`` is used in CI but is not a
hard dependency; this dependency-free watchdog arms
:func:`faulthandler.dump_traceback_later` around every test so a hang
dumps every thread's stack and kills the process instead of blocking
forever.

The stacks go to a file, not to the terminal: pytest captures file
descriptor 2 while a test runs, and the process dies before pytest could
show what it captured.  A hung test leaves
``<basetemp>/watchdog/<test id>.txt`` (``--basetemp``, by default under
``pytest-of-<user>`` in the system temp directory); a test that finishes
leaves nothing.
"""

from __future__ import annotations

import faulthandler
import re

import pytest

#: Generous per-test ceiling; the suite's slowest test is well under 30 s.
WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def hang_watchdog(request, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp() / "watchdog"
    directory.mkdir(exist_ok=True)
    path = directory / (re.sub(r"[^\w.-]+", "_", request.node.nodeid)[-120:]
                        + ".txt")
    with open(path, "w") as dump:
        faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True,
                                          file=dump)
        yield
        faulthandler.cancel_dump_traceback_later()
    path.unlink()
