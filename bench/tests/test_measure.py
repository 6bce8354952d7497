"""Percentile arithmetic: nearest rank, and when a tail may be reported."""

import pytest

from measure import (geomean, p99_or_supported, percentile, slow_share,
                     tail_fraction)


def test_nearest_rank_picks_the_lower_of_two():
    assert percentile([2.0, 1.0], 0.5) == 1.0


def test_nearest_rank_on_a_hundred_samples():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile(samples, 0.001) == 1


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


@pytest.mark.parametrize("count, expected", [
    (10_000, 0.999),   # exactly ten samples beyond p99.9
    (9_999, 0.99),     # nine beyond p99.9: drop to p99
    (1_000, 0.99),     # exactly ten beyond p99
    (999, 0.95),       # nine beyond p99: drop to p95
    (200, 0.95),
    (199, 0.9),
    (100, 0.9),
    (99, 0.5),         # nine beyond p90: no tail at all
])
def test_tail_needs_ten_samples_beyond(count, expected):
    assert tail_fraction(count) == expected


def test_p99_or_supported_falls_back():
    samples = [float(value) for value in range(1, 201)]
    assert p99_or_supported(samples) == percentile(samples, 0.95)
    big = [float(value) for value in range(1, 2001)]
    assert p99_or_supported(big) == percentile(big, 0.99)


def test_geomean_moves_by_the_same_share_for_any_member():
    base = geomean([100.0, 1000.0, 10.0])
    assert geomean([50.0, 1000.0, 10.0]) == pytest.approx(
        geomean([100.0, 1000.0, 5.0]))
    assert geomean([50.0, 1000.0, 10.0]) < base
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_slow_share():
    samples = [1.0] * 99 + [101.0]
    assert slow_share(samples, 0.01) == pytest.approx(101.0 / 200.0)
