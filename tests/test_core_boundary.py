"""``repro.core`` is a client of the engine's read view, not of its insides.

What one read sees — both MemTables, a pinned Version, quarantine — is
decided in ``repro.lsm.db`` only.  An index that walks ``DB.memtable``,
``DB.versions`` or the table cache by hand re-makes that decision and
drifts from it, so no module under ``src/repro/core/`` may name those
attributes, nor any underscore attribute of an object other than
``self`` / ``cls``.
"""

import ast
from pathlib import Path

import repro.core

ENGINE_STATE = {"memtable", "imm", "versions", "table_cache"}


def _violations(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        own = isinstance(node.value, ast.Name) and \
            node.value.id in ("self", "cls")
        private = name.startswith("_") and not name.startswith("__")
        if name in ENGINE_STATE or (private and not own):
            found.append(f"{filename}:{node.lineno}: .{name}")
    return found


def test_core_names_no_engine_internals():
    modules = sorted(Path(repro.core.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules
             for hit in _violations(path.read_text(), path.name)]
    assert found == []


def test_the_check_sees_what_it_is_for():
    source = ("def walk(self):\n"
              "    self._mine\n"
              "    self.primary.memtable\n"
              "    table._block_index_for(probe)\n"
              "    self.primary.table_cache.get(7)\n")
    assert _violations(source, "x.py") == [
        "x.py:3: .memtable", "x.py:4: ._block_index_for",
        "x.py:5: .table_cache"]
