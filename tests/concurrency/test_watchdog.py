"""The suite's hang watchdog (``conftest.py``) leaves a hung test's stack
where its docstring says: a file under the pytest basetemp."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_hang_leaves_its_stack_under_the_basetemp(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    (project / "conftest.py").write_text(
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('watchdog', "
        f"{str(CONFTEST)!r})\n"
        "watchdog = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(watchdog)\n"
        "watchdog.WATCHDOG_SECONDS = 1.0\n"
        "hang_watchdog = watchdog.hang_watchdog\n")
    (project / "test_hang.py").write_text(
        "import time\n\n\n"
        "def test_sleeps_past_the_watchdog():\n"
        "    time.sleep(60)\n")
    basetemp = tmp_path / "basetemp"
    finished = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--basetemp={basetemp}", "--rootdir", str(project), str(project)],
        capture_output=True, text=True, timeout=50)
    assert finished.returncode != 0
    dumps = list((basetemp / "watchdog").iterdir())
    assert [dump.name for dump in dumps] == [
        "test_hang.py_test_sleeps_past_the_watchdog.txt"]
    stack = dumps[0].read_text()
    assert "Timeout" in stack
    assert "test_sleeps_past_the_watchdog" in stack
