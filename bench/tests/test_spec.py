"""``BENCHMARK.json`` is well-formed and the harness emits what it declares."""

import json
import os
import re

import pytest

import run as bench_run
from context import RunArgs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_shape_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


def test_names_units_and_bounds(spec):
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def smoke_outcomes(spec, tmp_path_factory):
    """Every workload at smoke size, plain and traced, in this process."""
    import importlib

    out_dir = str(tmp_path_factory.mktemp("out"))
    outcomes = {}
    for workload in spec["workloads"]:
        module = importlib.import_module(f"wl_{workload['name']}")
        for trace in (False, True):
            outcomes[workload["name"], trace] = module.run(RunArgs(
                seed=bench_run.SEEDS[1],
                scale=bench_run.SMOKE_SECONDS / 10.0, trace=trace,
                out_dir=out_dir))
    return outcomes


def test_smoke_answers_are_all_correct(smoke_outcomes):
    for (workload, trace), outcome in smoke_outcomes.items():
        assert outcome.tally.attempted > 0
        assert outcome.tally.failed == 0, (workload, trace,
                                           outcome.tally.reasons)


def test_every_workload_emits_every_end_to_end_metric(spec, smoke_outcomes):
    declared = {metric["name"] for metric in spec["end_to_end"]}
    for workload in spec["workloads"]:
        metrics = smoke_outcomes[workload["name"], False].metrics
        assert set(metrics) == declared, workload["name"]
        for name, value in metrics.items():
            # At smoke size the server's 256 KiB memtable never flushes, so
            # its reads touch no block; everything else is positive.
            if (workload["name"], name) == ("remote_mixed",
                                            "read_blocks_per_query"):
                assert value >= 0
            else:
                assert value > 0, (workload["name"], name)


def test_every_layer_metric_is_emitted_by_some_workload(spec, smoke_outcomes):
    declared = {metric["name"] for metric in spec["per_layer"]}
    emitted = set()
    for workload in spec["workloads"]:
        produced = set(smoke_outcomes[workload["name"], True].metrics)
        assert produced <= declared, produced - declared
        emitted |= produced
    # The ladder stops at its first failing step, which a busy second on the
    # box can bring forward: the steps it never ran have no numbers.
    missing = {name for name in declared - emitted
               if not name.startswith("server.rate")}
    assert not missing, missing
