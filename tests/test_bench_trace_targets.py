"""Every engine method the benchmark's tracer wraps exists.

``bench/engines.py`` names the ``DB`` methods it times in ``_LSM_CALLS`` /
``_LSM_GENERATORS`` and wraps ``table.table_cache.get``; ``Tracer.wrap``
looks each one up with ``getattr``, so a refactor that renames or deletes
one breaks only a traced benchmark run.  This reads those names from the
file's syntax tree, without importing the benchmark, and checks them
against the engine.
"""

import ast
from pathlib import Path

from repro.lsm.db import DB
from repro.lsm.tablecache import TableCache

ENGINES = Path(__file__).resolve().parents[1] / "bench" / "engines.py"


def _traced_names(source: str) -> tuple[list[str], list[str]]:
    """``(DB method names, TableCache method names)`` the tracer wraps."""
    tree = ast.parse(source)
    on_db: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name)
                and target.id in ("_LSM_CALLS", "_LSM_GENERATORS")
                for target in node.targets):
            on_db.extend(ast.literal_eval(node.value))
    on_cache = [call.args[1].value for call in ast.walk(tree)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "wrap" and len(call.args) >= 2
                and ast.unparse(call.args[0]) == "table.table_cache"
                and isinstance(call.args[1], ast.Constant)]
    return on_db, on_cache


def _missing(source: str) -> list[str]:
    on_db, on_cache = _traced_names(source)
    assert on_db and on_cache, "the tracer's targets were not found"
    return [f"DB.{name}" for name in on_db
            if not callable(getattr(DB, name, None))] + \
        [f"TableCache.{name}" for name in on_cache
         if not callable(getattr(TableCache, name, None))]


def test_every_traced_engine_method_exists():
    assert _missing(ENGINES.read_text()) == []


def test_the_check_sees_a_missing_method():
    source = ('_LSM_CALLS = ("put", "dropped_probe")\n'
              '_LSM_GENERATORS = ("scan_level",)\n'
              'def trace_table(tracer, table):\n'
              '    tracer.wrap(table.table_cache, "get", "lsm.get")\n'
              '    tracer.wrap(table.table_cache, "gone", "lsm.gone")\n')
    assert _missing(source) == ["DB.dropped_probe", "TableCache.gone"]
