"""``benchmarks/check_results.py``: exact columns gate, timing columns do not."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "check_results.py")
_spec = importlib.util.spec_from_file_location("check_results", _PATH)
check_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_results)

COMMITTED = """\
Figure 8b — PUT cost
====================
variant    us_per_put  index_write_blocks  note
-----------------------------------------------------
embedded   269.8       0                   1 (+bloom fp)
lazy       301.2       1,234               ok
# a note
"""


def _table(rows):
    return {"columns": ["variant", "us_per_put", "index_write_blocks", "note"],
            "rows": rows}


def test_parses_a_rendered_table():
    columns, rows = check_results.parse_rendered(COMMITTED)
    assert columns == ["variant", "us_per_put", "index_write_blocks", "note"]
    assert rows == [["embedded", "269.8", "0", "1 (+bloom fp)"],
                    ["lazy", "301.2", "1,234", "ok"]]


def test_timing_columns_may_differ_exact_ones_may_not():
    same_counts = _table([["embedded", "11.0", "0", "1 (+bloom fp)"],
                          ["lazy", "999.9", "1,234", "ok"]])
    assert check_results.drift("fig08b_put", COMMITTED, same_counts) == []
    moved = _table([["embedded", "269.8", "0", "1 (+bloom fp)"],
                    ["lazy", "301.2", "1,235", "ok"]])
    (problem,) = check_results.drift("fig08b_put", COMMITTED, moved)
    assert "index_write_blocks 1,234 -> 1,235" in problem
    # Fig. 9a/b is latencies throughout.
    assert check_results.drift("fig09ab_put_latency", COMMITTED, moved) == []


def test_a_changed_shape_is_drift():
    fewer = _table([["embedded", "269.8", "0", "1 (+bloom fp)"]])
    assert check_results.drift("fig08b_put", COMMITTED, fewer)
    renamed = dict(_table([]), columns=["variant", "blocks"])
    assert check_results.drift("fig08b_put", COMMITTED, renamed)
