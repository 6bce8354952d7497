"""Fail when a regenerated paper table drifted from the committed record.

Every ``bench_*.py`` module rewrites its table under ``benchmarks/results/``
— the tracked ``.txt`` rendering EXPERIMENTS.md cites and an untracked
``.json`` twin.  The byte and block columns are exact counts from the
metered VFS: they repeat to the last digit, so a difference between a
regenerated table and the committed one means the code changed what the
paper's figure measures and the record (and EXPERIMENTS.md) was not
updated with it.  Wall-clock columns are ignored.

    python benchmarks/check_results.py      # after running the benchmarks

Checks each ``results/<name>.json`` present in the working tree against
``git show HEAD:benchmarks/results/<name>.txt``; exits 1 on any drift.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

#: Wall-clock columns, the only ones two runs of one commit may differ in.
TIMING_COLUMN = re.compile(r"(^|_)us(_|$)|^build_seconds$")
#: Tables that are latencies throughout (Fig. 9a/b: a column per checkpoint).
TIMING_TABLES = frozenset({"fig09ab_put_latency"})


def parse_rendered(text: str) -> tuple[list[str], list[list[str]]]:
    """``(columns, rows)`` of a ``ResultTable.render()`` text: cells are
    padded and joined by two spaces, notes start with ``#``."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    split = re.compile(r"\s{2,}")
    columns = split.split(lines[rule - 1].strip())
    rows = [split.split(line.strip()) for line in lines[rule + 1:]
            if line.strip() and not line.startswith("#")]
    return columns, rows


def drift(name: str, committed_text: str, regenerated: dict) -> list[str]:
    """Human-readable differences in the exact columns of one table."""
    if name in TIMING_TABLES:
        return []
    columns, rows = parse_rendered(committed_text)
    if columns != regenerated["columns"]:
        return [f"{name}: columns {columns} -> {regenerated['columns']}"]
    if len(rows) != len(regenerated["rows"]):
        return [f"{name}: {len(rows)} rows -> {len(regenerated['rows'])}"]
    problems = []
    for old, new in zip(rows, regenerated["rows"]):
        for column, was, now in zip(columns, old, new):
            if was != now and not TIMING_COLUMN.search(column):
                problems.append(
                    f"{name}: {column} {was} -> {now} "
                    f"in row [{' | '.join(new)}]")
    return problems


def main() -> int:
    problems: list[str] = []
    checked = 0
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        shown = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/results/{name}.txt"],
            cwd=RESULTS_DIR, capture_output=True, text=True)
        if shown.returncode != 0:
            problems.append(f"{name}: no committed {name}.txt")
            continue
        with open(path) as handle:
            problems += drift(name, shown.stdout, json.load(handle))
        checked += 1
    for problem in problems:
        print(problem)
    print(f"{checked} regenerated tables checked against HEAD, "
          f"{len(problems)} exact cells drifted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
