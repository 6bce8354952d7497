"""Self-tests of the benchmark harness.

Run by explicit path (``python -m pytest bench/tests``); the repository's
tier-1 run collects ``tests/`` only.  The harness modules are flat files in
``bench/`` and import the program from ``src/``, so both go on the path.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
