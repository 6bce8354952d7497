"""``python -m repro serve`` as a child process, started and stopped for sure.

The server runs with the shipped defaults: ``sync_writes=True`` (one fsync
per commit group) on a ``LocalVFS`` rooted in a directory the benchmark owns
under ``bench/out/``, a Lazy index on ``UserID``, an ephemeral port.  It is
a separate process so the load generator's threads do not share its GIL.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

from repro.server.client import Client

from measure import process_peak_rss_mib

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
STOP_TIMEOUT = 30.0
DB_NAME = "db"
INDEXES = "UserID=lazy"


class ServerProcess:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn the server and wait for its ``listening on`` line."""
        os.makedirs(self.directory, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.directory,
             DB_NAME, "--port", "0", "--indexes", INDEXES],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        assert self.process.stdout is not None
        line = self.process.stdout.readline()  # '' if the child died
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def client(self) -> Client:
        """A client that owns exactly one connection."""
        return Client("127.0.0.1", self.port, pool_size=1)

    def peak_rss_mib(self) -> float:
        assert self.process is not None
        return process_peak_rss_mib(self.process.pid)

    def drain(self) -> int:
        """SIGTERM: graceful drain.  Returns the exit code (0 = clean)."""
        return self._stop(signal.SIGTERM)

    def kill(self) -> int:
        """SIGKILL: no drain, no flush — whatever was fsynced is all."""
        return self._stop(signal.SIGKILL)

    def _stop(self, signo: int) -> int:
        process, self.process = self.process, None
        if process is None:
            return 0
        if process.poll() is None:
            process.send_signal(signo)
        try:
            code = process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
        if process.stdout is not None:
            process.stdout.close()
        return code
