"""No test module imports ``conftest``.

Each test directory has its own ``conftest``, so ``from conftest import``
binds to whichever one was imported first and breaks collection of a run
that spans two directories.  Shared helpers live in plainly named modules
(``tests/scheduling.py``, ``tests/core/index_helpers.py``).
"""

import re
from pathlib import Path

_CONFTEST_IMPORT = re.compile(r"^\s*(from\s+conftest\s+import|import\s+conftest\b)",
                              re.MULTILINE)


def test_no_test_module_imports_conftest():
    tests = Path(__file__).resolve().parent
    offenders = sorted(str(path.relative_to(tests))
                       for path in tests.rglob("*.py")
                       if _CONFTEST_IMPORT.search(path.read_text()))
    assert offenders == []
