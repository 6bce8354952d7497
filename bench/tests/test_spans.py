"""Span bookkeeping: parents, op ids, self time, compacted generators."""

import pytest

import spans
from spans import Tracer


def test_self_time_on_a_hand_built_tree():
    # root 0..10 with children 1..4 and 5..9; the second has a child 6..8.
    tree = [
        ["dist.put", 0.0, 10.0, -1, 0],
        ["core.put", 1.0, 4.0, 0, 0],
        ["core.put", 5.0, 9.0, 0, 0],
        ["lsm.put", 6.0, 8.0, 2, 0],
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    assert spans.self_share(tree, "dist.put") == pytest.approx(0.3)
    assert spans.self_share(tree, "core.put") == pytest.approx(5.0 / 7.0)
    assert spans.self_share(tree, "absent") == 0.0
    assert spans.self_time_by_layer(tree) == {
        "dist": 3.0, "core": 5.0, "lsm": 2.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Lower:
    def __init__(self, clock):
        self.clock = clock

    def read(self):
        self.clock.now += 2.0
        return "value"

    def scan(self):
        for item in range(3):
            self.clock.now += 1.0     # time inside the generator
            yield item


class Upper:
    def __init__(self, clock, lower):
        self.clock = clock
        self.lower = lower

    def get(self):
        self.clock.now += 1.0
        value = self.lower.read()
        self.clock.now += 1.0
        return value

    def sweep(self):
        total = 0
        for item in self.lower.scan():
            self.clock.now += 10.0    # the consumer's own work
            total += item
        return total


def build():
    clock = FakeClock()
    lower = Lower(clock)
    upper = Upper(clock, lower)
    tracer = Tracer(clock=clock)
    tracer.wrap(upper, "get", "core.get")
    tracer.wrap(upper, "sweep", "core.sweep")
    tracer.wrap(lower, "read", "lsm.read")
    tracer.wrap_generator(lower, "scan", "lsm.scan")
    return clock, upper, tracer


def test_wrapped_calls_nest_and_share_an_op_id():
    _clock, upper, tracer = build()
    tracer.enabled = True
    assert upper.get() == "value"
    assert upper.get() == "value"
    recorded = tracer.spans()
    assert [span[0] for span in recorded] == [
        "core.get", "lsm.read", "core.get", "lsm.read"]
    assert [span[3] for span in recorded] == [-1, 0, -1, 2]
    assert recorded[0][4] == recorded[1][4] != recorded[2][4]
    assert spans.self_times(recorded) == [2.0, 2.0, 2.0, 2.0]


def test_disabled_tracer_records_nothing_and_changes_nothing():
    _clock, upper, tracer = build()
    assert upper.get() == "value"
    assert upper.sweep() == 3
    assert tracer.spans() == []


def test_generator_span_holds_only_the_generator_time():
    _clock, upper, tracer = build()
    tracer.enabled = True
    assert upper.sweep() == 3
    recorded = tracer.spans()
    by_name = spans.durations_by_name(recorded)
    assert by_name["lsm.scan"] == [3.0]          # not 33: consumer excluded
    assert by_name["core.sweep"] == [33.0]
    assert spans.self_share(recorded, "core.sweep") == pytest.approx(30 / 33)
    assert tracer.yielded == {"lsm.scan": 3}


def test_concat_reindexes_parents(tmp_path):
    first = [["a.x", 0.0, 2.0, -1, 0], ["b.y", 0.5, 1.0, 0, 0]]
    second = [["a.x", 5.0, 6.0, -1, 0], ["b.y", 5.0, None, 0, 0]]
    joined = spans.concat([first, second])
    assert [span[3] for span in joined] == [-1, 0, -1, 2]
    assert joined[3][2] == 5.0                   # unfinished: zero length
    assert joined[0][4] != joined[2][4]
    spans.dump(joined, str(tmp_path / "trace.json"))
    assert (tmp_path / "trace.json").stat().st_size > 0
