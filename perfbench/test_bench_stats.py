"""Percentile and tail-rank selection."""

import pytest

from perfbench import stats


def test_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.nearest_rank(values, 50) == 3
    assert stats.nearest_rank(values, 100) == 5
    assert stats.nearest_rank(values, 1) == 1
    with pytest.raises(ValueError):
        stats.nearest_rank(values, 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_value_and_beyond_count():
    values = list(range(1, 41))  # 40 samples
    pct, value = stats.tail(values)
    assert pct == 75.0 and value == 30
    assert sum(v > value for v in values) == stats.TAIL_MIN_BEYOND
    assert stats.tail(values[:19]) is None

