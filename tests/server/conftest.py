"""Shared setup for the server suite.

A wedged socket (lost wakeup, connection-thread deadlock, server that never
answers) must not hang the whole run.  Same dependency-free watchdog as
the concurrency suite: ``faulthandler.dump_traceback_later`` arms around
every test, so a hang dumps every thread's stack and kills the process.
"""

from __future__ import annotations

import faulthandler

import pytest

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def hang_watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
